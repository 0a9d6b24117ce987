package typesys

import (
	"strings"
	"testing"
)

func TestFinalizeRejectsFundamentalSupertype(t *testing.T) {
	h := NewHierarchy()
	a := h.Fundamental("A")
	b := h.Fundamental("B")
	h.Edge(a, b)
	if err := h.Finalize(); err == nil {
		t.Error("fundamental supertype accepted")
	}
}

func TestFinalizeRejectsCycle(t *testing.T) {
	h := NewHierarchy()
	a := h.Unified("A")
	b := h.Unified("B")
	c := h.Unified("C")
	h.Edge(a, b)
	h.Edge(b, c)
	h.Edge(c, a)
	if err := h.Finalize(); err == nil {
		t.Error("cycle accepted")
	}
}

func TestLEIsPartialOrder(t *testing.T) {
	h := BuildArrayHierarchy([]int{4, 44})
	types := h.Types()
	for _, a := range types {
		if !h.LE(a, a) {
			t.Errorf("LE not reflexive at %s", a)
		}
	}
	for _, a := range types {
		for _, b := range types {
			for _, c := range types {
				if h.LE(a, b) && h.LE(b, c) && !h.LE(a, c) {
					t.Fatalf("LE not transitive: %s <= %s <= %s", a, b, c)
				}
			}
			// LE is a preorder: distinct types may be equivalent (equal
			// fundamental sets under the instantiated sizes), but then
			// neither may be a *strict* supertype of the other.
			if a != b && h.LE(a, b) && h.LE(b, a) {
				for _, st := range h.StrictSupertypes(a) {
					if st == b {
						t.Fatalf("equivalent types %s, %s appear strict", a, b)
					}
				}
			}
		}
	}
}

func TestArrayHierarchyFig3Relations(t *testing.T) {
	h := BuildArrayHierarchy([]int{4, 44})
	get := func(name string) *Type {
		tp, ok := h.Lookup(name)
		if !ok {
			t.Fatalf("missing type %s", name)
		}
		return tp
	}
	tests := []struct {
		sub, super string
		want       bool
	}{
		{NameROnlyFixed(44), NameRArray(44), true},
		{NameROnlyFixed(44), NameRArray(4), true},  // bigger region is also a smaller array
		{NameROnlyFixed(4), NameRArray(44), false}, // too small
		{NameRWFixed(44), NameRArray(44), true},    // rw is readable
		{NameRWFixed(44), NameWArray(44), true},    // rw is writable
		{NameROnlyFixed(44), NameWArray(4), false}, // read-only is not writable
		{NameWOnlyFixed(44), NameRArray(4), false}, // write-only is not readable
		{NameRArray(44), NameRArrayNull(44), true},
		{TypeNull, NameRArrayNull(4), true},
		{TypeNull, NameRArray(4), false},
		{TypeInvalid, TypeUnconstrained, true},
		{TypeInvalid, NameRArrayNull(4), false},
		{NameRArrayNull(44), TypeUnconstrained, true},
		{NameRWArrayNull(44), NameRArrayNull(44), true},
		{NameRArray(44), NameRArray(4), true},
		{NameRArray(4), NameRArray(44), false},
		{NameRWArray(44), NameRWArrayNull(4), true},
	}
	for _, tt := range tests {
		if got := h.LE(get(tt.sub), get(tt.super)); got != tt.want {
			t.Errorf("LE(%s, %s) = %v, want %v", tt.sub, tt.super, got, tt.want)
		}
	}
}

func TestFileHierarchyFig4Relations(t *testing.T) {
	h := NewHierarchy()
	AddArrayTypes(h, []int{44, 152})
	AddFileTypes(h, 152)
	if err := h.Finalize(); err != nil {
		t.Fatal(err)
	}
	get := func(name string) *Type {
		tp, ok := h.Lookup(name)
		if !ok {
			t.Fatalf("missing type %s", name)
		}
		return tp
	}
	tests := []struct {
		sub, super string
		want       bool
	}{
		{TypeROnlyFile, TypeRFile, true},
		{TypeRWFile, TypeRFile, true},
		{TypeRWFile, TypeWFile, true},
		{TypeWOnlyFile, TypeWFile, true},
		{TypeWOnlyFile, TypeRFile, false},
		{TypeRFile, TypeOpenFile, true},
		{TypeWFile, TypeOpenFile, true},
		{TypeOpenFile, TypeOpenFileNull, true},
		{TypeNull, TypeOpenFileNull, true},
		// An open FILE lives in read-write memory of the FILE's size.
		{TypeOpenFile, NameRWArray(152), true},
		{TypeOpenFile, NameRWArray(44), true},
		{TypeOpenFile, TypeUnconstrained, true},
		// R_FILE and W_FILE are incomparable (their intersection is
		// RW_FILE, a strict subset of both).
		{TypeRFile, TypeWFile, false},
		{TypeWFile, TypeRFile, false},
		// Plain memory is not an open file.
		{NameRWFixed(152), TypeOpenFile, false},
	}
	for _, tt := range tests {
		if got := h.LE(get(tt.sub), get(tt.super)); got != tt.want {
			t.Errorf("LE(%s, %s) = %v, want %v", tt.sub, tt.super, got, tt.want)
		}
	}
}

// asctimeCases builds the experiment outcomes of the paper's running
// example: sizes ≥ 44 with read access succeed, NULL errors out, all
// smaller or inaccessible regions crash.
func asctimeCases(h *Hierarchy, sizes []int) []Case {
	var cases []Case
	get := func(name string) *Type {
		tp, ok := h.Lookup(name)
		if !ok {
			panic("missing " + name)
		}
		return tp
	}
	for _, s := range sizes {
		outcome := Crash
		if s >= 44 {
			outcome = Success
		}
		cases = append(cases,
			Case{Fund: get(NameROnlyFixed(s)), Outcome: outcome},
			Case{Fund: get(NameRWFixed(s)), Outcome: outcome},
			Case{Fund: get(NameWOnlyFixed(s)), Outcome: Crash},
		)
	}
	cases = append(cases,
		Case{Fund: get(TypeNull), Outcome: ErrorReturn},
		Case{Fund: get(TypeInvalid), Outcome: Crash},
	)
	return cases
}

func TestRobustTypeAsctime(t *testing.T) {
	sizes := []int{0, 8, 16, 24, 32, 40, 43, 44, 48, 152}
	h := BuildArrayHierarchy(sizes)
	rt, err := h.RobustType(asctimeCases(h, sizes), RobustOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// NULL returns an error, so under the atomic-function assumption the
	// robust type need not include it... but every supertype of
	// R_ARRAY[44] either includes NULL (no crash there) or a crashing
	// region. The paper's answer is R_ARRAY_NULL[44].
	if rt.Name() != NameRArrayNull(44) && rt.Name() != NameRArray(44) {
		t.Errorf("robust type = %s, want R_ARRAY_NULL[44] (or R_ARRAY[44])", rt)
	}
	// The conservative variant must include NULL, pinning the paper's
	// exact answer.
	rt, err = h.RobustType(asctimeCases(h, sizes), RobustOptions{Conservative: true})
	if err != nil {
		t.Fatal(err)
	}
	if rt.Name() != NameRArrayNull(44) {
		t.Errorf("conservative robust type = %s, want %s", rt, NameRArrayNull(44))
	}
}

func TestRobustTypeIsSafeWhenSafeExists(t *testing.T) {
	// If NULL also succeeds, R_ARRAY_NULL[44] is the safe type and the
	// robust computation must return it.
	sizes := []int{0, 40, 44, 48}
	h := BuildArrayHierarchy(sizes)
	cases := asctimeCases(h, sizes)
	for i := range cases {
		if cases[i].Outcome == ErrorReturn {
			cases[i].Outcome = Success
		}
	}
	rt, err := h.RobustType(cases, RobustOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rt.Name() != NameRArrayNull(44) {
		t.Errorf("robust type = %s, want %s", rt, NameRArrayNull(44))
	}
	if !h.IsSafe(rt, cases) {
		t.Error("robust type should be safe here")
	}
}

func TestRobustTypeNoCrashesGivesUnconstrained(t *testing.T) {
	// A function that never crashes (it just returns errors) must get
	// UNCONSTRAINED: there is no crash evidence to justify any check.
	sizes := []int{0, 44}
	h := BuildArrayHierarchy(sizes)
	var cases []Case
	for _, tp := range h.Types() {
		if tp.Fundamental() {
			cases = append(cases, Case{Fund: tp, Outcome: ErrorReturn})
		}
	}
	// One success so candidates exist below the top as well.
	cstr, _ := h.Lookup(NameROnlyFixed(44))
	cases = append(cases, Case{Fund: cstr, Outcome: Success})
	rt, err := h.RobustType(cases, RobustOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rt.Name() != TypeUnconstrained {
		t.Errorf("robust type = %s, want UNCONSTRAINED", rt)
	}
}

func TestNonNegativeExample(t *testing.T) {
	// Paper §4.2: a unary function that does not crash for non-negative
	// arguments. With disjoint fundamentals NEG/ZERO/POS the robust
	// type comes out as NONNEG even though the zero test also belongs
	// to the (overlapping) NONPOS.
	h := BuildIntHierarchy()
	get := func(n string) *Type { tp, _ := h.Lookup(n); return tp }
	cases := []Case{
		{Fund: get(TypeIntPos), Outcome: Success},
		{Fund: get(TypeIntZero), Outcome: Success},
		{Fund: get(TypeIntNeg), Outcome: Crash},
	}
	rt, err := h.RobustType(cases, RobustOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rt.Name() != TypeIntNonNeg {
		t.Errorf("robust type = %s, want %s", rt, TypeIntNonNeg)
	}
}

func TestFgetsSizeExample(t *testing.T) {
	// fgets hangs for size <= 0: only positive sizes succeed.
	h := BuildIntHierarchy()
	get := func(n string) *Type { tp, _ := h.Lookup(n); return tp }
	cases := []Case{
		{Fund: get(TypeIntPos), Outcome: Success},
		{Fund: get(TypeIntZero), Outcome: Crash},
		{Fund: get(TypeIntNeg), Outcome: Crash},
	}
	rt, err := h.RobustType(cases, RobustOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rt.Name() != TypeIntPositive {
		t.Errorf("robust type = %s, want %s", rt, TypeIntPositive)
	}
}

func TestRobustVectorTwoArguments(t *testing.T) {
	// A 2-ary function like strcpy(dst, src): dst must be writable,
	// src readable; crashes happen when either is bad, and the crash
	// evidence for one coordinate must not weaken the other.
	sizes := []int{0, 16}
	hd := BuildArrayHierarchy(sizes)
	hs := BuildArrayHierarchy(sizes)
	g := func(h *Hierarchy, n string) *Type { tp, _ := h.Lookup(n); return tp }

	cases := []VectorCase{
		{Funds: []*Type{g(hd, NameRWFixed(16)), g(hs, NameROnlyFixed(16))}, Outcome: Success},
		{Funds: []*Type{g(hd, NameWOnlyFixed(16)), g(hs, NameRWFixed(16))}, Outcome: Success},
		{Funds: []*Type{g(hd, TypeNull), g(hs, NameROnlyFixed(16))}, Outcome: Crash},
		{Funds: []*Type{g(hd, TypeInvalid), g(hs, NameROnlyFixed(16))}, Outcome: Crash},
		{Funds: []*Type{g(hd, NameROnlyFixed(16)), g(hs, NameROnlyFixed(16))}, Outcome: Crash},
		{Funds: []*Type{g(hd, NameRWFixed(16)), g(hs, TypeNull)}, Outcome: Crash},
		{Funds: []*Type{g(hd, NameRWFixed(16)), g(hs, TypeInvalid)}, Outcome: Crash},
		{Funds: []*Type{g(hd, NameRWFixed(16)), g(hs, NameWOnlyFixed(16))}, Outcome: Crash},
		{Funds: []*Type{g(hd, NameRWFixed(0)), g(hs, NameROnlyFixed(16))}, Outcome: Crash},
		{Funds: []*Type{g(hd, NameRWFixed(16)), g(hs, NameROnlyFixed(0))}, Outcome: Crash},
	}
	for i := range cases {
		cases[i].Explored = EveryArg
	}
	vec, err := RobustVector([]*Hierarchy{hd, hs}, cases, RobustOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if vec[0].Name() != NameWArray(16) {
		t.Errorf("dst robust type = %s, want %s", vec[0], NameWArray(16))
	}
	if vec[1].Name() != NameRArray(16) {
		t.Errorf("src robust type = %s, want %s", vec[1], NameRArray(16))
	}
	if s := FormatVector(vec); !strings.Contains(s, "W_ARRAY[16]") {
		t.Errorf("FormatVector = %s", s)
	}
}

func TestRobustVectorIgnoresForeignCrashes(t *testing.T) {
	// A crash whose OTHER coordinate is outside its robust type must
	// not be counted as evidence for this coordinate: here arg0=NULL
	// crashes regardless of arg1, and arg1 never causes crashes, so
	// arg1 must be UNCONSTRAINED.
	sizes := []int{0, 8}
	h0 := BuildArrayHierarchy(sizes)
	h1 := BuildArrayHierarchy(sizes)
	g := func(h *Hierarchy, n string) *Type { tp, _ := h.Lookup(n); return tp }
	cases := []VectorCase{
		{Funds: []*Type{g(h0, NameRWFixed(8)), g(h1, NameRWFixed(8))}, Outcome: Success},
		{Funds: []*Type{g(h0, NameRWFixed(8)), g(h1, TypeNull)}, Outcome: Success},
		{Funds: []*Type{g(h0, NameRWFixed(8)), g(h1, TypeInvalid)}, Outcome: Success},
		{Funds: []*Type{g(h0, NameRWFixed(8)), g(h1, NameROnlyFixed(8))}, Outcome: Success},
		{Funds: []*Type{g(h0, NameRWFixed(8)), g(h1, NameWOnlyFixed(8))}, Outcome: Success},
		{Funds: []*Type{g(h0, TypeNull), g(h1, NameRWFixed(8))}, Outcome: Crash},
		{Funds: []*Type{g(h0, TypeNull), g(h1, TypeNull)}, Outcome: Crash},
		{Funds: []*Type{g(h0, TypeInvalid), g(h1, NameRWFixed(8))}, Outcome: Crash},
		{Funds: []*Type{g(h0, NameROnlyFixed(8)), g(h1, NameRWFixed(8))}, Outcome: Crash},
		{Funds: []*Type{g(h0, NameWOnlyFixed(8)), g(h1, NameRWFixed(8))}, Outcome: Success},
		{Funds: []*Type{g(h0, NameRWFixed(0)), g(h1, NameRWFixed(8))}, Outcome: Crash},
	}
	for i := range cases {
		cases[i].Explored = EveryArg
	}
	vec, err := RobustVector([]*Hierarchy{h0, h1}, cases, RobustOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if vec[0].Name() != NameWArray(8) {
		t.Errorf("arg0 = %s, want W_ARRAY[8]", vec[0])
	}
	if vec[1].Name() != TypeUnconstrained {
		t.Errorf("arg1 = %s, want UNCONSTRAINED", vec[1])
	}
}

func TestFundamentalsOfUnified(t *testing.T) {
	h := BuildArrayHierarchy([]int{44})
	rn, _ := h.Lookup(NameRArrayNull(44))
	funds := h.Fundamentals(rn)
	names := make(map[string]bool)
	for _, f := range funds {
		names[f.Name()] = true
	}
	for _, want := range []string{NameROnlyFixed(44), NameRWFixed(44), TypeNull} {
		if !names[want] {
			t.Errorf("V(R_ARRAY_NULL[44]) missing %s: %v", want, funds)
		}
	}
	if names[NameWOnlyFixed(44)] || names[TypeInvalid] || names[NameROnlyFixed(0)] {
		t.Errorf("V(R_ARRAY_NULL[44]) too large: %v", funds)
	}
}

func TestContains(t *testing.T) {
	h := BuildArrayHierarchy([]int{8})
	rn, _ := h.Lookup(NameRArrayNull(8))
	null, _ := h.Lookup(TypeNull)
	inv, _ := h.Lookup(TypeInvalid)
	if !h.Contains(rn, null) {
		t.Error("NULL not in R_ARRAY_NULL[8]")
	}
	if h.Contains(rn, inv) {
		t.Error("INVALID in R_ARRAY_NULL[8]")
	}
}

func TestIsSafe(t *testing.T) {
	h := BuildIntHierarchy()
	g := func(n string) *Type { tp, _ := h.Lookup(n); return tp }
	cases := []Case{
		{Fund: g(TypeIntPos), Outcome: Success},
		{Fund: g(TypeIntZero), Outcome: ErrorReturn},
		{Fund: g(TypeIntNeg), Outcome: Crash},
	}
	if !h.IsSafe(g(TypeIntNonNeg), cases) {
		t.Error("NONNEG should be safe")
	}
	if h.IsSafe(g(TypeIntPositive), cases) {
		t.Error("POSITIVE excludes a non-crash case; not safe")
	}
	if h.IsSafe(g(TypeIntAny), cases) {
		t.Error("ANY contains a crash; not safe")
	}
}

func TestDirAndStringAndFuncTypes(t *testing.T) {
	h := NewHierarchy()
	AddArrayTypes(h, []int{16, 64})
	AddDirTypes(h, 64)
	AddCStringTypes(h, []int{16}, []int{0, 5, 300})
	AddFuncPtrTypes(h)
	AddIntTypes(h)
	if err := h.Finalize(); err != nil {
		t.Fatal(err)
	}
	g := func(n string) *Type {
		tp, ok := h.Lookup(n)
		if !ok {
			t.Fatalf("missing %s", n)
		}
		return tp
	}
	if !h.LE(g(TypeOpenDir), g(NameRWArray(64))) {
		t.Error("OPEN_DIR not within RW_ARRAY[64]")
	}
	if !h.LE(g(TypeCString), g(NameRArray(0))) {
		t.Error("CSTR not readable")
	}
	if !h.LE(g(NameUnterminated(16)), g(NameRArray(16))) {
		t.Error("UNTERM[16] not within R_ARRAY[16]")
	}
	if h.LE(g(TypeCString), g(NameRArray(16))) {
		t.Error("CSTR must not promise 16 readable bytes")
	}
	if !h.LE(g(TypeFuncPtr), g(TypeFuncPtrU)) {
		t.Error("FUNC_PTR not within VALID_FUNC")
	}
	if !h.LE(g(TypeFuncPtrU), g(TypeUnconstrained)) {
		t.Error("VALID_FUNC not within UNCONSTRAINED")
	}
}

func TestRobustTypeErrorsWithoutTop(t *testing.T) {
	h := NewHierarchy()
	a := h.Fundamental("A")
	b := h.Fundamental("B")
	u := h.Unified("U")
	h.Edge(a, u)
	if err := h.Finalize(); err != nil {
		t.Fatal(err)
	}
	_, err := h.RobustType([]Case{{Fund: b, Outcome: Success}}, RobustOptions{})
	if err == nil {
		t.Error("expected error when no unified type covers successes")
	}
}

func TestTypeAccessors(t *testing.T) {
	h := NewHierarchy()
	f := h.Fundamental("F")
	u := h.Unified("U")
	if !f.Fundamental() || u.Fundamental() {
		t.Error("Fundamental() wrong")
	}
	if f.Name() != "F" || f.String() != "F" {
		t.Error("Name/String wrong")
	}
	// Re-interning returns the same node.
	if h.Fundamental("F") != f {
		t.Error("interning broken")
	}
}
