package decl

import (
	"encoding/xml"
	"fmt"
	"sort"
	"strings"

	"healers/internal/csim"
)

// XML serialization in the shape of the paper's Figure 2.

type xmlArg struct {
	CType      string `xml:"ctype"`
	RobustType string `xml:"robust_type"`
}

type xmlErrors struct {
	Errno []string `xml:"errno"`
}

type xmlFunc struct {
	XMLName    xml.Name  `xml:"function"`
	Name       string    `xml:"name"`
	Version    string    `xml:"version"`
	Arguments  []xmlArg  `xml:"argument"`
	ReturnType string    `xml:"return_type"`
	ErrorValue string    `xml:"error_value,omitempty"`
	Errors     xmlErrors `xml:"errors"`
	Attribute  string    `xml:"attribute"`
	Assertions []string  `xml:"assertion,omitempty"`
}

// renderErrorValue prints an error return value the way a C programmer
// would write it.
func renderErrorValue(d *FuncDecl) string {
	if !d.HasErrorValue {
		return ""
	}
	switch d.ErrorValue {
	case 0:
		if strings.HasSuffix(d.Ret, "*") {
			return "NULL"
		}
		return "0"
	case ^uint64(0):
		return "-1"
	}
	return fmt.Sprintf("%d", int64(d.ErrorValue))
}

// parseErrorValue inverts renderErrorValue.
func parseErrorValue(s string) (uint64, error) {
	switch s {
	case "NULL", "0":
		return 0, nil
	case "-1", "EOF":
		return ^uint64(0), nil
	}
	var v int64
	if _, err := fmt.Sscanf(s, "%d", &v); err != nil {
		return 0, fmt.Errorf("decl: bad error value %q", s)
	}
	return uint64(v), nil
}

// EncodeXML renders the declaration in the Figure 2 format.
func (d *FuncDecl) EncodeXML() ([]byte, error) {
	x := xmlFunc{
		Name:       d.Name,
		Version:    d.Version,
		ReturnType: d.Ret,
		ErrorValue: renderErrorValue(d),
		Attribute:  string(d.Attribute),
	}
	for _, a := range d.Args {
		x.Arguments = append(x.Arguments, xmlArg{CType: a.CType, RobustType: a.Robust.String()})
	}
	x.Errors.Errno = append(x.Errors.Errno, d.Errnos...)
	for _, as := range d.Assertions {
		x.Assertions = append(x.Assertions, string(as))
	}
	return xml.MarshalIndent(x, "", "  ")
}

// UnmarshalXML parses a Figure 2 declaration.
func UnmarshalXML(data []byte) (*FuncDecl, error) {
	var x xmlFunc
	if err := xml.Unmarshal(data, &x); err != nil {
		return nil, fmt.Errorf("decl: %w", err)
	}
	d := &FuncDecl{
		Name:      x.Name,
		Version:   x.Version,
		Ret:       x.ReturnType,
		Attribute: Attribute(x.Attribute),
		Errnos:    x.Errors.Errno,
	}
	if x.ErrorValue != "" {
		v, err := parseErrorValue(x.ErrorValue)
		if err != nil {
			return nil, err
		}
		d.HasErrorValue = true
		d.ErrorValue = v
	}
	for _, a := range x.Arguments {
		rt, err := ParseRobustType(a.RobustType)
		if err != nil {
			return nil, err
		}
		d.Args = append(d.Args, ArgDecl{CType: a.CType, Robust: rt})
	}
	for _, as := range x.Assertions {
		d.Assertions = append(d.Assertions, Assertion(as))
	}
	// The rejection errno is not part of the Figure 2 schema; the
	// wrapper generator always rejects with EINVAL, matching the
	// injector-produced declarations.
	d.ErrnoOnReject = csim.EINVAL
	return d, nil
}

// UnmarshalSetXML parses a <functions> document back into a set — the
// archival path: declarations generated by one campaign (possibly
// manually edited) feed a later wrapper build.
func UnmarshalSetXML(data []byte) (*DeclSet, error) {
	var doc struct {
		XMLName   xml.Name  `xml:"functions"`
		Functions []xmlFunc `xml:"function"`
	}
	if err := xml.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("decl: %w", err)
	}
	set := NewDeclSet()
	for _, x := range doc.Functions {
		inner, err := xml.Marshal(x)
		if err != nil {
			return nil, err
		}
		d, err := UnmarshalXML(inner)
		if err != nil {
			return nil, err
		}
		set.Add(d)
	}
	return set, nil
}

// MarshalSetXML renders a whole declaration set inside a <functions>
// element, sorted by name.
func (s *DeclSet) MarshalSetXML() ([]byte, error) {
	var b strings.Builder
	b.WriteString("<functions>\n")
	names := make([]string, 0, len(s.ByName))
	for n := range s.ByName {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		data, err := s.ByName[n].EncodeXML()
		if err != nil {
			return nil, err
		}
		b.Write(data)
		b.WriteString("\n")
	}
	b.WriteString("</functions>\n")
	return []byte(b.String()), nil
}
