package analysis

import (
	"encoding/json"

	"healers/internal/cparse"
	"healers/internal/csim"
	"healers/internal/decl"
	"healers/internal/typesys"
)

// Agreement classifies one static prediction against the dynamically
// discovered robust type.
type Agreement uint8

// Agreement classes. Wrong is the unsound one — the static type is
// stronger than (or incomparable to) the dynamic truth, so a wrapper
// built from it would reject calls the library survives. The analyze
// acceptance bar is zero Wrong across the corpus.
const (
	// AgreeUnknown: the predictor declined to claim anything.
	AgreeUnknown Agreement = iota + 1
	// AgreeExact: prediction and dynamic type are the same type.
	AgreeExact
	// AgreeWeaker: the dynamic type implies the prediction (the static
	// claim is sound but leaves some checking to the injector).
	AgreeWeaker
	// AgreeWrong: the prediction is not implied by the dynamic type.
	AgreeWrong
)

func (a Agreement) String() string {
	switch a {
	case AgreeUnknown:
		return "unknown"
	case AgreeExact:
		return "exact"
	case AgreeWeaker:
		return "weaker"
	case AgreeWrong:
		return "wrong"
	}
	return "?"
}

// MarshalJSON emits the class name, so `healers analyze -json` reports
// are readable without this package's enum values.
func (a Agreement) MarshalJSON() ([]byte, error) {
	return json.Marshal(a.String())
}

// trivialTypes accept every value of their argument kind; they are
// interchangeable "no constraint" tops across the per-kind lattices.
var trivialTypes = map[string]bool{
	typesys.TypeUnconstrained: true,
	typesys.TypeIntAny:        true,
	typesys.TypeFdAny:         true,
	typesys.TypeDoubleAny:     true,
}

// Compare classifies a prediction against the dynamic type.
func Compare(pred ArgPrediction, dyn decl.RobustType) Agreement {
	if pred.Unknown {
		return AgreeUnknown
	}
	p := pred.Robust
	if p.String() == dyn.String() {
		return AgreeExact
	}
	if trivialTypes[p.Base] && trivialTypes[dyn.Base] {
		// Both accept everything (INT_ANY vs UNCONSTRAINED on an int).
		return AgreeExact
	}
	if LE(dyn, p) {
		return AgreeWeaker
	}
	return AgreeWrong
}

// LE reports whether robust type a implies robust type b (every value
// of a is a value of b — a is at least as strong). Fixed-size pairs are
// decided inside a composite typesys hierarchy assembled over both
// sizes; expression sizes get the hand rules below, which only claim
// the comparisons that hold for every possible evaluation of the
// expression.
func LE(a, b decl.RobustType) bool {
	if trivialTypes[b.Base] {
		return true
	}
	if trivialTypes[a.Base] {
		return false
	}
	if a.String() == b.String() {
		return true
	}

	// R_BOUNDED[n]: readable until NUL or n bytes, whichever first.
	// Every valid C string satisfies it for any n; a readable region
	// satisfies it whenever its guaranteed extent covers the bound —
	// fixed m >= fixed n, an identical size expression, or the n == 0
	// floor every region meets. (The original equal-sizes-only rule
	// broke transitivity: RW_ARRAY[56] <= RW_ARRAY[44] <= R_BOUNDED[44]
	// without RW_ARRAY[56] <= R_BOUNDED[44].)
	if b.Base == "R_BOUNDED" {
		switch a.Base {
		case "CSTR", "W_CSTR":
			return true
		case "R_BOUNDED":
			if a.Size.Kind == decl.SizeFixed && b.Size.Kind == decl.SizeFixed {
				return a.Size.N >= b.Size.N
			}
			return a.Size.String() == b.Size.String()
		}
		// Anything else implies the bounded read exactly when its
		// guaranteed readable extent covers the bound: delegate to the
		// plain readable array of the same size, which closes the
		// relation transitively over the whole lattice.
		if b.Size.Kind == decl.SizeFixed {
			return LE(a, decl.RobustType{Base: "R_ARRAY", Size: decl.Fixed(b.Size.N)})
		}
		switch a.Base {
		case "R_ARRAY", "RW_ARRAY":
			return a.Size.String() == b.Size.String()
		}
		return false
	}
	if a.Base == "R_BOUNDED" {
		return false
	}

	aFixed, bFixed := a.Size.Kind == decl.SizeFixed, b.Size.Kind == decl.SizeFixed
	aParam, bParam := a.Parameterized(), b.Parameterized()
	switch {
	case aParam && bParam && !aFixed && !bFixed:
		// Same expression on both sides: substitute a common size and
		// compare the families. Different expressions are incomparable.
		if a.Size.String() != b.Size.String() {
			return false
		}
		return latticeLE(fixedName(a.Base, 8), fixedName(b.Base, 8), 8)
	case aParam && !aFixed && bFixed:
		// a holds at SOME size ≥ 0 decided at call time, so the claim
		// is only sound against the size-0 floor of b's family.
		if b.Size.N != 0 {
			return false
		}
		return latticeLE(fixedName(a.Base, 0), fixedName(b.Base, 0), 0)
	case bParam && !bFixed:
		// A fixed type never implies an expression-sized bound.
		return false
	default:
		return latticeLE(fixedName(a.Base, a.Size.N), fixedName(b.Base, b.Size.N), a.Size.N, b.Size.N)
	}
}

// fixedName names base instantiated at size n; a base without a size
// parameter names itself.
func fixedName(base string, n int) string {
	return decl.RobustType{Base: base, Size: decl.SizeExpr{Kind: decl.SizeFixed, N: n}}.String()
}

// latticeLE decides name-level subtyping inside a composite hierarchy
// instantiated over the given sizes.
func latticeLE(aName, bName string, sizes ...int) bool {
	h := comparisonHierarchy(sizes)
	ta, ok := h.Lookup(aName)
	if !ok {
		return false
	}
	tb, ok := h.Lookup(bName)
	if !ok {
		return false
	}
	return h.LE(ta, tb)
}

// comparisonHierarchy assembles one hierarchy holding every type
// family the predictor or the injector can name, so cross-family
// comparisons (OPEN_FILE vs RW_ARRAY_NULL[152]) resolve through the
// same edges the selection logic uses. Every unified family gets
// populated fundamentals — a unified type with an empty value set
// would vacuously sit below everything.
func comparisonHierarchy(sizes []int) *typesys.Hierarchy {
	h := typesys.NewHierarchy()
	all := append([]int{0, cparse.PointerSize, csim.SizeofFILE, csim.SizeofDIR}, sizes...)
	typesys.AddArrayTypes(h, all)
	typesys.AddCStringTypes(h, []int{16}, []int{0, 5})
	typesys.AddFileTypes(h, csim.SizeofFILE)
	typesys.AddDirTypes(h, csim.SizeofDIR)
	typesys.AddIntTypes(h)
	typesys.AddFdTypes(h)
	typesys.AddDoubleTypes(h)
	typesys.AddFuncPtrTypes(h)
	if err := h.Finalize(); err != nil {
		panic(err) // deterministic construction; failure is a bug
	}
	return h
}
