// Package bodyscan infers per-argument memory-footprint summaries for
// the simulated C library by running its compiled functions under
// instrumented probes — the static analogue of the dynamic
// fault-injection campaign.
//
// The registry is the compiled library's own (clib.Func records). The
// pass reads the internal/clib source with go/parser only for syntax:
// it pairs every Impl with its function literal by the file and line
// runtime.FuncForPC gives for its code, collects errno constants,
// Abort calls and l.Call edges, and closes errno/abort facts over the
// call graph by a monotone fixpoint. Per-argument access summaries come
// from calling each Impl in a fresh template process whose memory
// recorder (cmem.Memory.Recorder) logs which bytes of the argument
// under analysis were touched, and whether a kernel-boundary copy or a
// NUL scan touched them. A schedule of probes — zeroed region,
// unterminated string, empty string, NULL, boundary integers — runs
// with the generators' benign siblings (package gens), and dependent
// sizes are fitted by the injector's own fitter (decl.FitSize), so the
// resulting extents are directly comparable with the dynamically
// inferred robust types.
//
// A compiled body is never declined: soundness rests on the probes,
// the step budget and the static↔dynamic gate (wrong = 0), as the
// dynamic campaign's does. The one thing the pass refuses is a
// function that makes or reaches an l.Call whose target is not a
// string literal, whose errno facts it could not close.
package bodyscan

import (
	"fmt"
	"sort"
	"strings"

	"healers/internal/decl"
	"healers/internal/gens"
)

// AccessKind classifies how a pointer argument's pointee is accessed.
type AccessKind uint8

// Access kinds.
const (
	AccessNone AccessKind = iota // never dereferenced
	AccessRead
	AccessWrite
	AccessRW
)

func (k AccessKind) String() string {
	switch k {
	case AccessRead:
		return "read"
	case AccessWrite:
		return "write"
	case AccessRW:
		return "rw"
	}
	return "none"
}

// BoundShape classifies what bounds the access extent of a pointer
// argument.
type BoundShape uint8

// Bound shapes.
const (
	ShapeNone      BoundShape = iota // no dereference observed
	ShapeConst                       // fixed byte count (Bytes)
	ShapeArg                         // extent tracks integer argument BoundArg
	ShapeScan                        // NUL-terminated scan
	ShapeStruct                      // Bytes equals a known ABI struct size
	ShapeUnbounded                   // access ran past every probed bound
)

func (s BoundShape) String() string {
	switch s {
	case ShapeConst:
		return "const"
	case ShapeArg:
		return "arg"
	case ShapeScan:
		return "scan"
	case ShapeStruct:
		return "struct"
	case ShapeUnbounded:
		return "unbounded"
	}
	return "none"
}

// IntClass classifies an integer argument by which boundary values the
// body tolerates.
type IntClass uint8

// Integer classes.
const (
	IntNone     IntClass = iota // not an integer argument
	IntAny                      // -1 and 0 both terminate cleanly
	IntNonNeg                   // -1 crashes or hangs, 0 is fine
	IntPositive                 // both -1 and 0 crash or hang
)

func (c IntClass) String() string {
	switch c {
	case IntAny:
		return "any"
	case IntNonNeg:
		return "nonneg"
	case IntPositive:
		return "positive"
	}
	return "-"
}

// ArgSummary is the inferred access summary for one argument.
type ArgSummary struct {
	Index int        `json:"index"`
	Param string     `json:"param"`
	CType string     `json:"ctype"`
	Class gens.Class `json:"class"` // the parameter's class (gens.Classify)

	Kind       AccessKind `json:"kind"`
	Shape      BoundShape `json:"shape"`
	ReadBytes  int        `json:"readBytes"`  // read extent under benign siblings
	WriteBytes int        `json:"writeBytes"` // write extent under benign siblings
	MinBytes   int        `json:"minBytes"`   // read extent under the minimal ""-probe (string classes)
	BoundArg   int        `json:"boundArg"`   // index of the governing integer argument, -1 if none

	// Expr, when non-nil, is the dependent-size expression the extent
	// followed under sibling perturbation — the same candidate family
	// the dynamic campaign's inferSize fits, so a correct fit lowers to
	// a byte-identical expression-sized robust type.
	Expr *decl.SizeExpr `json:"expr,omitempty"`
	// BoundedArg is the index of the integer argument that bounds an
	// unterminated read (the R_BOUNDED contract: an unterminated region
	// larger than the count succeeds, a smaller one faults); -1 if none.
	BoundedArg int `json:"boundedArg"`

	NullOK     bool `json:"nullOK"`     // NULL terminated cleanly: a null check precedes the first dereference
	KernelOnly bool `json:"kernelOnly"` // pointee reached only through non-faulting kernel-boundary copies
	CStr       bool `json:"cstr"`       // NUL-terminated scan observed (LoadCString or guard overrun)
	ContentDep bool `json:"contentDep"` // extent moved when sibling *content* changed (comparison scan)
	FD         bool `json:"fd"`         // value flows into the process descriptor table
	FuncPtr    bool `json:"funcPtr"`    // value flows into CallPtr dispatch

	Int IntClass `json:"int"` // integer boundary class
}

// Extent returns the widest byte extent the summary claims.
func (a *ArgSummary) Extent() int {
	if a.ReadBytes > a.WriteBytes {
		return a.ReadBytes
	}
	return a.WriteBytes
}

// FuncSummary is the whole-function analysis result.
type FuncSummary struct {
	Name  string `json:"name"`
	Proto string `json:"proto"`
	NArgs int    `json:"nargs"`

	Args []ArgSummary `json:"args"`

	// Errnos lists every errno constant the body (or any callee,
	// transitively, by fixpoint over the call graph) may set directly
	// via SetErrno. Errnos set inside csim primitives are not included.
	Errnos []string `json:"errnos,omitempty"`
	// Aborts reports whether an Abort call is reachable.
	Aborts bool `json:"aborts,omitempty"`
	// Calls lists direct l.Call edges out of the body.
	Calls []string `json:"calls,omitempty"`
}

// String renders a summary compactly, one argument per segment, for
// golden-snapshot tests and the analyze table.
func (f *FuncSummary) String() string {
	var b strings.Builder
	b.WriteString(f.Name)
	b.WriteString(":")
	if len(f.Args) == 0 {
		b.WriteString(" -")
	}
	for i := range f.Args {
		a := &f.Args[i]
		if i > 0 {
			b.WriteString(" |")
		}
		b.WriteString(" ")
		b.WriteString(a.describe())
	}
	if len(f.Errnos) > 0 {
		fmt.Fprintf(&b, " ; errno={%s}", strings.Join(f.Errnos, ","))
	}
	if f.Aborts {
		b.WriteString(" ; aborts")
	}
	return b.String()
}

func (a *ArgSummary) describe() string {
	var parts []string
	switch {
	case a.FuncPtr:
		parts = append(parts, "funcptr")
	case a.FD:
		parts = append(parts, "fd")
	case a.Int != IntNone:
		parts = append(parts, "int:"+a.Int.String())
	case a.KernelOnly:
		parts = append(parts, "kernel-only")
	case a.Kind == AccessNone:
		parts = append(parts, "untouched")
	default:
		s := a.Kind.String()
		if a.CStr {
			s += " cstr"
		} else {
			s += fmt.Sprintf(" %s[%d]", a.Shape, a.Extent())
			if a.Expr != nil {
				s += "~" + a.Expr.String()
			}
			if a.MinBytes > 0 && a.MinBytes != a.Extent() {
				s += fmt.Sprintf(" min=%d", a.MinBytes)
			}
		}
		parts = append(parts, s)
	}
	if a.NullOK {
		parts = append(parts, "null-ok")
	}
	if a.ContentDep {
		parts = append(parts, "content-dep")
	}
	if a.BoundedArg >= 0 {
		parts = append(parts, fmt.Sprintf("bounded~arg%d", a.BoundedArg))
	}
	return a.Param + "=" + strings.Join(parts, ",")
}

// SortedNames returns the summary map's keys in sorted order.
func SortedNames(m map[string]*FuncSummary) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
