package typesys

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// refOrder is the reference model for the bitset kernel: the n×n
// subtype matrix the package used to materialise, with the queries and
// the §4.3 selection computed from it exactly as before. It reads the
// hierarchy's edges but none of its value sets.
type refOrder struct {
	h  *Hierarchy
	le [][]bool // le[a][b] == a ≤ b
}

func newRefOrder(h *Hierarchy) (*refOrder, error) {
	n := len(h.types)
	for _, t := range h.types {
		for _, s := range t.supers {
			if s.fundamental {
				return nil, fmt.Errorf("%w: %s", ErrFundamentalSuper, s.name)
			}
		}
	}
	color := make([]int, n)
	var dfs func(t *Type) error
	dfs = func(t *Type) error {
		color[t.index] = 1
		for _, s := range t.supers {
			switch color[s.index] {
			case 1:
				return fmt.Errorf("%w: through %s", ErrCycle, s.name)
			case 0:
				if err := dfs(s); err != nil {
					return err
				}
			}
		}
		color[t.index] = 2
		return nil
	}
	for _, t := range h.types {
		if color[t.index] == 0 {
			if err := dfs(t); err != nil {
				return nil, err
			}
		}
	}
	// member[t][f]: fundamental f reaches t along edges.
	member := make([]map[*Type]bool, n)
	for i := range member {
		member[i] = map[*Type]bool{}
	}
	for _, f := range h.types {
		if !f.fundamental {
			continue
		}
		var mark func(t *Type)
		mark = func(t *Type) {
			if member[t.index][f] {
				return
			}
			member[t.index][f] = true
			for _, s := range t.supers {
				mark(s)
			}
		}
		mark(f)
	}
	r := &refOrder{h: h, le: make([][]bool, n)}
	for _, a := range h.types {
		r.le[a.index] = make([]bool, n)
		for _, b := range h.types {
			le := true
			for f := range member[a.index] {
				if !member[b.index][f] {
					le = false
					break
				}
			}
			if a.fundamental {
				le = le && member[b.index][a]
			}
			r.le[a.index][b.index] = le
		}
	}
	return r, nil
}

func (r *refOrder) LE(a, b *Type) bool { return r.le[a.index][b.index] }

func (r *refOrder) StrictSupertypes(t *Type) []*Type {
	var out []*Type
	for _, u := range r.h.types {
		if u != t && r.LE(t, u) && !r.LE(u, t) {
			out = append(out, u)
		}
	}
	return out
}

func (r *refOrder) Fundamentals(t *Type) []*Type {
	var out []*Type
	for _, u := range r.h.types {
		if u.fundamental && r.LE(u, t) {
			out = append(out, u)
		}
	}
	return out
}

func (r *refOrder) RobustType(cases []Case, opts RobustOptions) (*Type, error) {
	mustCover := func(c Case) bool {
		return c.Outcome == Success || opts.Conservative && c.Outcome == ErrorReturn
	}
	var candidates []*Type
	for _, t := range r.h.types {
		if t.fundamental {
			continue
		}
		ok := true
		for _, c := range cases {
			if mustCover(c) && !r.LE(c.Fund, t) {
				ok = false
				break
			}
		}
		if ok {
			candidates = append(candidates, t)
		}
	}
	if len(candidates) == 0 {
		return nil, errors.New("typesys: no unified type covers the success cases (missing UNCONSTRAINED?)")
	}
	crashIn := func(t *Type) bool {
		for _, c := range cases {
			if c.Outcome == Crash && r.LE(c.Fund, t) {
				return true
			}
		}
		return false
	}
	counts := make(map[*Type]int, len(candidates))
	for _, t := range candidates {
		counts[t] = len(r.Fundamentals(t))
	}
	sort.Slice(candidates, func(i, j int) bool {
		if counts[candidates[i]] != counts[candidates[j]] {
			return counts[candidates[i]] < counts[candidates[j]]
		}
		return candidates[i].name < candidates[j].name
	})
	var fallback *Type
	for _, t := range candidates {
		qualified := true
		for _, st := range r.StrictSupertypes(t) {
			if !crashIn(st) {
				qualified = false
				break
			}
		}
		if !qualified {
			continue
		}
		if !crashIn(t) {
			return t, nil
		}
		if fallback == nil {
			fallback = t
		}
	}
	if fallback != nil {
		return fallback, nil
	}
	return nil, errors.New("typesys: no robust type found")
}

// randomHierarchy builds a hierarchy from the real constructors over a
// seeded mix of the type families analysis.comparisonHierarchy
// combines: arrays at random sizes, then C strings, FILE and DIR
// streams, ints, descriptors, doubles and function pointers, each
// present or not. An optional unified type with an empty value set
// sits below UNCONSTRAINED: below every type, and the only one whose
// strict supertypes include fundamentals.
func randomHierarchy(rng *rand.Rand) *Hierarchy {
	const sizeofFILE, sizeofDIR = 152, 64
	h := NewHierarchy()
	sizes := make([]int, rng.Intn(12))
	for i := range sizes {
		sizes[i] = rng.Intn(200)
	}
	if rng.Intn(2) == 0 {
		sizes = append(sizes, sizeofFILE, sizeofDIR)
	}
	AddArrayTypes(h, sizes)
	if rng.Intn(2) == 0 {
		var unterm, lens []int
		for i := rng.Intn(4); i > 0; i-- {
			unterm = append(unterm, rng.Intn(64))
		}
		for i := rng.Intn(5); i > 0; i-- {
			lens = append(lens, rng.Intn(64))
		}
		AddCStringTypes(h, unterm, lens)
	}
	if rng.Intn(2) == 0 {
		AddFileTypes(h, sizeofFILE)
	}
	if rng.Intn(2) == 0 {
		AddDirTypes(h, sizeofDIR)
	}
	for _, add := range []func(*Hierarchy){AddIntTypes, AddFdTypes, AddDoubleTypes, AddFuncPtrTypes} {
		if rng.Intn(2) == 0 {
			add(h)
		}
	}
	if rng.Intn(3) == 0 {
		top, _ := h.Lookup(TypeUnconstrained)
		h.Edge(h.Unified("EMPTY"), top)
	}
	return h
}

// randomLabelling gives a random subset of funds one or two cases
// each, with random outcomes.
func randomLabelling(rng *rand.Rand, funds []*Type) []Case {
	var cases []Case
	for _, f := range funds {
		for k := rng.Intn(4) - 1; k > 0; k-- {
			cases = append(cases, Case{Fund: f, Outcome: CaseOutcome(rng.Intn(3) + 1)})
		}
	}
	rng.Shuffle(len(cases), func(i, j int) { cases[i], cases[j] = cases[j], cases[i] })
	return cases
}

// checkAgainstRef compares every query of h with the reference model.
func checkAgainstRef(t *testing.T, h *Hierarchy, label string) *refOrder {
	t.Helper()
	ref, err := newRefOrder(h)
	if err != nil {
		t.Fatalf("%s: reference: %v", label, err)
	}
	for _, a := range h.types {
		for _, b := range h.types {
			if got, want := h.LE(a, b), ref.LE(a, b); got != want {
				t.Fatalf("%s: LE(%s, %s) = %v, reference %v", label, a, b, got, want)
			}
		}
		if got, want := h.StrictSupertypes(a), ref.StrictSupertypes(a); !slices.Equal(got, want) {
			t.Fatalf("%s: StrictSupertypes(%s) = %v, reference %v", label, a, got, want)
		}
		if got, want := h.Fundamentals(a), ref.Fundamentals(a); !slices.Equal(got, want) {
			t.Fatalf("%s: Fundamentals(%s) = %v, reference %v", label, a, got, want)
		}
	}
	return ref
}

// TestHierarchyDifferential checks the bitset kernel against the
// reference matrix model: over seeded random hierarchies and
// labellings, on the structural errors, after an edge or a type added
// past Finalize (the lazy re-finalize), and on a case labelled with a
// unified type.
func TestHierarchyDifferential(t *testing.T) {
	t.Run("random", func(t *testing.T) {
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < 60; i++ {
			h := randomHierarchy(rng)
			label := fmt.Sprintf("hierarchy %d (%d types)", i, len(h.types))
			if err := h.Finalize(); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			ref := checkAgainstRef(t, h, label)
			var unified []*Type
			for _, u := range h.types {
				if !u.fundamental {
					unified = append(unified, u)
				}
			}
			for j := 0; j < 20; j++ {
				// Mostly label the fundamentals below one unified type,
				// so that a candidate exists; sometimes label them all.
				funds := h.funds
				if j%4 != 0 {
					funds = ref.Fundamentals(unified[rng.Intn(len(unified))])
				}
				cases := randomLabelling(rng, funds)
				for _, conservative := range []bool{false, true} {
					opts := RobustOptions{Conservative: conservative}
					got, gotErr := h.RobustType(cases, opts)
					want, wantErr := ref.RobustType(cases, opts)
					if got != want || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
						t.Fatalf("%s, labelling %d, %+v: RobustType = %v (%v), reference %v (%v)",
							label, j, opts, got, gotErr, want, wantErr)
					}
				}
			}
		}
	})

	t.Run("structure", func(t *testing.T) {
		h := BuildArrayHierarchy([]int{4, 44})
		fund, _ := h.Lookup(NameRWFixed(4))
		h.Edge(h.Unified("U"), fund)
		_, refErr := newRefOrder(h)
		if err := h.Finalize(); !errors.Is(err, ErrFundamentalSuper) || fmt.Sprint(err) != fmt.Sprint(refErr) {
			t.Errorf("fundamental supertype: %v, reference %v", err, refErr)
		}

		h = BuildArrayHierarchy([]int{4, 44})
		r0, _ := h.Lookup(NameRArray(0))
		r44, _ := h.Lookup(NameRArray(44))
		h.Edge(r0, r44)
		_, refErr = newRefOrder(h)
		if err := h.Finalize(); !errors.Is(err, ErrCycle) || fmt.Sprint(err) != fmt.Sprint(refErr) {
			t.Errorf("cycle: %v, reference %v", err, refErr)
		}

		// An edge after Finalize: the next query sees it without an
		// explicit Finalize.
		h = BuildArrayHierarchy([]int{4, 44})
		inv, _ := h.Lookup(TypeInvalid)
		w44, _ := h.Lookup(NameWArrayNull(44))
		if h.LE(inv, w44) {
			t.Fatal("INVALID ≤ W_ARRAY_NULL[44] before the edge")
		}
		h.Edge(inv, w44)
		if !h.LE(inv, w44) {
			t.Error("edge added after Finalize not seen by LE")
		}
		checkAgainstRef(t, h, "edge after Finalize")
		// So does a fundamental declared after Finalize, which widens
		// every value set by a bit.
		h.Edge(h.Fundamental("EXTRA"), w44)
		checkAgainstRef(t, h, "fundamental after Finalize")

		if _, err := h.RobustType([]Case{{Fund: w44, Outcome: Crash}}, RobustOptions{}); !errors.Is(err, ErrUnifiedCase) {
			t.Errorf("unified case label: err = %v, want ErrUnifiedCase", err)
		}
	})
}
