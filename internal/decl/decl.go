// Package decl defines the function declarations of paper §3 (Figure 2):
// the machine-readable contract between the fault injector, which
// discovers robust argument types, and the wrapper generator, which
// turns them into argument checks. Declarations serialize to the XML
// format shown in the paper and support the manual-edit overlay that
// upgrades the fully automatic wrapper into the semi-automatic one.
package decl

import (
	"fmt"
	"strconv"
	"strings"
)

// SizeKind says how an array robust type's size parameter is computed
// at check time.
type SizeKind uint8

// Size expression kinds. Fixed sizes come straight out of injection;
// the dependent kinds are inferred by re-running the adaptive growth
// chain under varied sibling arguments.
const (
	SizeFixed          SizeKind = iota + 1
	SizeStrlenPlus1             // strlen(arg A) + 1
	SizeArgValue                // value of arg A
	SizeArgProduct              // value of arg A * value of arg B
	SizeStrlenSumPlus1          // strlen(arg A) + strlen(arg B) + 1 (manual-edit only)
	SizeMinStrlenP1N            // min(strlen(arg A)+1, arg B)    — strxfrm shape
	SizeMinStrlenNP1            // min(strlen(arg A), arg B) + 1  — strncat shape
)

// ArgsView lets a size expression read the live arguments of a call:
// the wrapper implements it over the simulated process, the injector
// over its probe metadata.
type ArgsView interface {
	// Strlen returns the length of the string argument i (and whether
	// it could be read).
	Strlen(i int) (int, bool)
	// Value returns the integer value of argument i.
	Value(i int) int64
}

// Eval computes the concrete size of the expression for a call. ok is
// false when a referenced string argument cannot be read (the caller
// should then reject the call) or the size over/underflows.
func (e SizeExpr) Eval(args ArgsView) (int, bool) {
	clamp := func(v int64) (int, bool) {
		if v < 0 || v > 1<<40 {
			return 0, false
		}
		return int(v), true
	}
	switch e.Kind {
	case SizeFixed:
		return e.N, true
	case SizeStrlenPlus1:
		l, ok := args.Strlen(e.A)
		if !ok {
			return 0, false
		}
		return l + 1, true
	case SizeArgValue:
		return clamp(args.Value(e.A))
	case SizeArgProduct:
		a, b := args.Value(e.A), args.Value(e.B)
		if a < 0 || b < 0 {
			return 0, false
		}
		if b != 0 && a > (1<<40)/b {
			return 0, false
		}
		return clamp(a * b)
	case SizeStrlenSumPlus1:
		la, ok := args.Strlen(e.A)
		if !ok {
			return 0, false
		}
		lb, ok := args.Strlen(e.B)
		if !ok {
			return 0, false
		}
		return la + lb + 1, true
	case SizeMinStrlenP1N:
		l, ok := args.Strlen(e.A)
		if !ok {
			return 0, false
		}
		n, ok := clamp(args.Value(e.B))
		if !ok {
			return 0, false
		}
		if l+1 < n {
			return l + 1, true
		}
		return n, true
	case SizeMinStrlenNP1:
		l, ok := args.Strlen(e.A)
		if !ok {
			return 0, false
		}
		n, ok := clamp(args.Value(e.B))
		if !ok {
			return 0, false
		}
		if l < n {
			return l + 1, true
		}
		return n + 1, true
	}
	return 0, false
}

// SizeExpr parameterizes an array robust type.
type SizeExpr struct {
	Kind SizeKind
	N    int // fixed size
	A, B int // referenced argument indices (0-based)
}

// Fixed returns a fixed-size expression.
func Fixed(n int) SizeExpr { return SizeExpr{Kind: SizeFixed, N: n} }

func (e SizeExpr) String() string {
	switch e.Kind {
	case SizeFixed:
		return strconv.Itoa(e.N)
	case SizeStrlenPlus1:
		return fmt.Sprintf("strlen(arg%d)+1", e.A)
	case SizeArgValue:
		return fmt.Sprintf("arg%d", e.A)
	case SizeArgProduct:
		return fmt.Sprintf("arg%d*arg%d", e.A, e.B)
	case SizeStrlenSumPlus1:
		return fmt.Sprintf("strlen(arg%d)+strlen(arg%d)+1", e.A, e.B)
	case SizeMinStrlenP1N:
		return fmt.Sprintf("min(strlen(arg%d)+1,arg%d)", e.A, e.B)
	case SizeMinStrlenNP1:
		return fmt.Sprintf("min(strlen(arg%d),arg%d)+1", e.A, e.B)
	}
	return "?"
}

// parseSizeExpr inverts String.
func parseSizeExpr(s string) (SizeExpr, error) {
	if n, err := strconv.Atoi(s); err == nil {
		return Fixed(n), nil
	}
	var a, b int
	if n, _ := fmt.Sscanf(s, "min(strlen(arg%d)+1,arg%d)", &a, &b); n == 2 {
		return SizeExpr{Kind: SizeMinStrlenP1N, A: a, B: b}, nil
	}
	if n, _ := fmt.Sscanf(s, "min(strlen(arg%d),arg%d)+1", &a, &b); n == 2 {
		return SizeExpr{Kind: SizeMinStrlenNP1, A: a, B: b}, nil
	}
	if n, _ := fmt.Sscanf(s, "strlen(arg%d)+strlen(arg%d)+1", &a, &b); n == 2 {
		return SizeExpr{Kind: SizeStrlenSumPlus1, A: a, B: b}, nil
	}
	if n, _ := fmt.Sscanf(s, "strlen(arg%d)+1", &a); n == 1 {
		return SizeExpr{Kind: SizeStrlenPlus1, A: a}, nil
	}
	if n, _ := fmt.Sscanf(s, "arg%d*arg%d", &a, &b); n == 2 {
		return SizeExpr{Kind: SizeArgProduct, A: a, B: b}, nil
	}
	if n, _ := fmt.Sscanf(s, "arg%d", &a); n == 1 {
		return SizeExpr{Kind: SizeArgValue, A: a}, nil
	}
	return SizeExpr{}, fmt.Errorf("decl: bad size expression %q", s)
}

// RobustType is a robust argument type: a unified type base plus an
// optional size parameter.
type RobustType struct {
	Base string // "R_ARRAY_NULL", "OPEN_FILE", "CSTR", "UNCONSTRAINED", ...
	Size SizeExpr
}

// Parameterized reports whether the base takes a size parameter.
// R_BOUNDED[n] is the bounded-read string type: readable until a NUL
// terminator or n bytes, whichever comes first — the contract of
// strncpy's source.
func (r RobustType) Parameterized() bool {
	f := r.Kind().Family
	return f == FamilyArray || f == FamilyBounded
}

func (r RobustType) String() string {
	if r.Parameterized() {
		return fmt.Sprintf("%s[%s]", r.Base, r.Size)
	}
	return r.Base
}

// ParseRobustType inverts RobustType.String, also accepting the
// instantiated names produced by the type system ("R_ARRAY_NULL[44]").
func ParseRobustType(s string) (RobustType, error) {
	i := strings.IndexByte(s, '[')
	if i < 0 {
		return RobustType{Base: s}, nil
	}
	if !strings.HasSuffix(s, "]") {
		return RobustType{}, fmt.Errorf("decl: bad robust type %q", s)
	}
	expr, err := parseSizeExpr(s[i+1 : len(s)-1])
	if err != nil {
		return RobustType{}, err
	}
	return RobustType{Base: s[:i], Size: expr}, nil
}

// ArgDecl describes one argument.
type ArgDecl struct {
	CType  string
	Robust RobustType
}

// Attribute classifies a function as needing wrapping or not (§3.4).
type Attribute string

// Function attributes.
const (
	AttrSafe   Attribute = "safe"
	AttrUnsafe Attribute = "unsafe"
)

// ErrClass is the paper's Table 1 classification of error return
// behaviour.
type ErrClass uint8

// Error-return classes.
const (
	ErrClassNoReturn ErrClass = iota + 1
	ErrClassConsistent
	ErrClassInconsistent
	ErrClassNotFound
)

func (c ErrClass) String() string {
	switch c {
	case ErrClassNoReturn:
		return "no-return-code"
	case ErrClassConsistent:
		return "consistent"
	case ErrClassInconsistent:
		return "inconsistent"
	case ErrClassNotFound:
		return "not-found"
	}
	return fmt.Sprintf("ErrClass(%d)", uint8(c))
}

// Assertion names an executable assertion attached by manual editing
// (§5.2/§6: tracking directory structures, validating FILE integrity).
type Assertion string

// Executable assertions available to declarations.
const (
	AssertValidDir      Assertion = "valid_dir"      // stateful DIR* table lookup
	AssertFileIntegrity Assertion = "file_integrity" // validate FILE buffer fields
)

// FuncDecl is the full declaration of Figure 2.
type FuncDecl struct {
	Name    string
	Version string
	Ret     string
	Args    []ArgDecl

	// HasErrorValue is false for the paper's "No Error Return Code
	// Found" and "No Return Code" classes.
	HasErrorValue bool
	// ErrorValue is the value returned on error, sign-extended.
	ErrorValue uint64
	// Errnos are the errno names observed (e.g. "EINVAL").
	Errnos []string
	// ErrnoOnReject is the errno the wrapper sets when it rejects a
	// call (EINVAL unless the function suggests otherwise).
	ErrnoOnReject int

	Attribute Attribute
	ErrClass  ErrClass

	// Assertions added by manual editing (empty for full-auto decls).
	Assertions []Assertion
}

// Unsafe reports whether the wrapper generator should wrap this
// function.
func (d *FuncDecl) Unsafe() bool { return d.Attribute == AttrUnsafe }

// DeclSet is a named collection of declarations.
type DeclSet struct {
	ByName map[string]*FuncDecl
}

// NewDeclSet returns an empty set.
func NewDeclSet() *DeclSet { return &DeclSet{ByName: make(map[string]*FuncDecl)} }

// Add inserts (or replaces) a declaration.
func (s *DeclSet) Add(d *FuncDecl) { s.ByName[d.Name] = d }

// Get finds a declaration.
func (s *DeclSet) Get(name string) (*FuncDecl, bool) {
	d, ok := s.ByName[name]
	return d, ok
}

// Clone deep-copies the set (manual editing works on a copy).
func (s *DeclSet) Clone() *DeclSet {
	c := NewDeclSet()
	for _, d := range s.ByName {
		dd := *d
		dd.Args = append([]ArgDecl(nil), d.Args...)
		dd.Errnos = append([]string(nil), d.Errnos...)
		dd.Assertions = append([]Assertion(nil), d.Assertions...)
		c.Add(&dd)
	}
	return c
}
