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
	h.groupEdges()
	for _, t := range h.types {
		for _, s := range h.supersOf(t) {
			if s.fundamental {
				return nil, fmt.Errorf("%w: %s", ErrFundamentalSuper, s.name)
			}
		}
	}
	color := make([]int, n)
	var dfs func(t *Type) error
	dfs = func(t *Type) error {
		color[t.index] = 1
		for _, s := range h.supersOf(t) {
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
			for _, s := range h.supersOf(t) {
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
// unified type. It checks the slab-built constructors against the
// reference builder over composite hierarchies that outgrow their
// reservations, and Lookup over every type name and malformed ones.
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

	// Composite hierarchies, shaped like the comparison hierarchy of
	// package analysis: the C-string, FILE and DIR builders declare
	// types past the array builder's reservation and add edges into its
	// rows (NULL, the rows at the FILE and DIR sizes), and a final edge
	// from every type to a new top comes after the hierarchy was
	// grouped once. Declarations, ordinals and every type's supertypes,
	// in recorded order, must match the reference builder.
	t.Run("composite", func(t *testing.T) {
		const sizeofFILE, sizeofDIR = 152, 64
		rng := rand.New(rand.NewSource(2))
		for i := 0; i < 40; i++ {
			sizes := []int{sizeofFILE, sizeofDIR}
			for k := rng.Intn(12); k > 0; k-- {
				sizes = append(sizes, rng.Intn(200))
			}
			var unterm, lens []int
			for k := rng.Intn(4); k > 0; k-- {
				unterm = append(unterm, rng.Intn(64))
			}
			for k := rng.Intn(6); k > 0; k-- {
				lens = append(lens, rng.Intn(64)-1)
			}
			h, ref := NewHierarchy(), newRefBuilder()
			AddArrayTypes(h, sizes)
			ref.arrays(sizes)
			AddCStringTypes(h, unterm, lens)
			ref.cstrings(unterm, lens)
			AddFileTypes(h, sizeofFILE)
			ref.files(sizeofFILE)
			AddDirTypes(h, sizeofDIR)
			ref.dirs(sizeofDIR)
			label := fmt.Sprintf("composite %d (%d types)", i, len(h.types))
			checkAgainstBuilder(t, h, ref, label)

			wide := h.Unified("WIDE")
			ref.decl("WIDE", false)
			for _, tp := range h.Types() {
				if tp != wide {
					h.Edge(tp, wide)
					ref.edge(tp.Name(), "WIDE")
				}
			}
			checkAgainstBuilder(t, h, ref, label+" + WIDE")
			if err := h.Finalize(); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			checkAgainstRef(t, h, label+" + WIDE")
		}
	})

	// Lookup finds every type by its name, and misses names of an
	// absent row and malformed labels.
	t.Run("lookup", func(t *testing.T) {
		h := NewHierarchy()
		AddArrayTypes(h, []int{4, 16, 44, 64, 152})
		AddCStringTypes(h, []int{16}, []int{0, 5, 43})
		AddFileTypes(h, 152)
		AddDirTypes(h, 64)
		AddIntTypes(h)
		AddFdTypes(h)
		for _, tp := range h.Types() {
			name := string([]byte(tp.Name()))
			if got, ok := h.Lookup(name); !ok || got != tp {
				t.Errorf("Lookup(%q) = %v, %v; want the declared type", name, got, ok)
			}
		}
		for _, name := range []string{NameRArray(7), "R_ARRAY[", "R_ARRAY[-1]", "UNTERM[16]x"} {
			if got, ok := h.Lookup(name); ok {
				t.Errorf("Lookup(%q) = %v, want a miss", name, got)
			}
		}
	})
}

// refBuilder is the reference model of the constructors: the Figure
// 3/4 declarations and edges made one type at a time, by name, each
// type's supertypes in a slice of its own, as the package built them
// before types came from slabs and edges from one list.
type refBuilder struct {
	decls  []string
	fund   map[string]bool
	supers map[string][]string
	sizes  []int
}

func newRefBuilder() *refBuilder {
	return &refBuilder{fund: map[string]bool{}, supers: map[string][]string{}}
}

func (r *refBuilder) decl(name string, fund bool) string {
	if _, ok := r.fund[name]; !ok {
		r.decls = append(r.decls, name)
		r.fund[name] = fund
	}
	return name
}

func (r *refBuilder) edge(sub, super string) { r.supers[sub] = append(r.supers[sub], super) }

func (r *refBuilder) has(name string) bool { _, ok := r.fund[name]; return ok }

func (r *refBuilder) arrays(sizes []int) {
	ss := normSizes(sizes)
	r.sizes = normSizes(append(r.sizes, ss...))
	null, inv, top := r.decl(TypeNull, true), r.decl(TypeInvalid, true), r.decl(TypeUnconstrained, false)
	r.edge(inv, top)
	type row struct{ ro, rw, wo, ar, arw, aw, rn, rwn, wn string }
	rows := make([]row, len(ss))
	for i, s := range ss {
		rows[i] = row{
			r.decl(NameROnlyFixed(s), true), r.decl(NameRWFixed(s), true), r.decl(NameWOnlyFixed(s), true),
			r.decl(NameRArray(s), false), r.decl(NameRWArray(s), false), r.decl(NameWArray(s), false),
			r.decl(NameRArrayNull(s), false), r.decl(NameRWArrayNull(s), false), r.decl(NameWArrayNull(s), false),
		}
	}
	for i, w := range rows {
		for _, e := range [][2]string{
			{w.ro, w.ar}, {w.rw, w.arw}, {w.wo, w.aw}, {w.arw, w.ar}, {w.arw, w.aw},
			{w.ar, w.rn}, {w.arw, w.rwn}, {w.aw, w.wn}, {w.rwn, w.rn}, {w.rwn, w.wn},
		} {
			r.edge(e[0], e[1])
		}
		if i > 0 {
			p := rows[i-1]
			for _, e := range [][2]string{{w.ar, p.ar}, {w.arw, p.arw}, {w.aw, p.aw}, {w.rn, p.rn}, {w.rwn, p.rwn}, {w.wn, p.wn}} {
				r.edge(e[0], e[1])
			}
		}
	}
	last := rows[len(rows)-1]
	r.edge(null, last.rn)
	r.edge(null, last.rwn)
	r.edge(null, last.wn)
	r.edge(rows[0].rn, top)
	r.edge(rows[0].wn, top)
}

func (r *refBuilder) cstrings(untermSizes, strLens []int) {
	cstr, wstr := r.decl(TypeCString, false), r.decl(TypeCStringW, false)
	cn, wn := r.decl(TypeCStringNull, false), r.decl(TypeCStringWNull, false)
	null := r.decl(TypeNull, true)
	for _, e := range [][2]string{{wstr, cstr}, {cstr, cn}, {wstr, wn}, {wn, cn}, {null, cn}, {null, wn}} {
		r.edge(e[0], e[1])
	}
	if r.has(NameRArrayNull(0)) {
		r.edge(cn, NameRArrayNull(0))
	}
	seen := map[int]bool{}
	for _, l := range strLens {
		if l < 0 || seen[l] {
			continue
		}
		seen[l] = true
		ro, rw := r.decl(NameCStringRO(l), true), r.decl(NameCStringRW(l), true)
		r.edge(ro, cstr)
		r.edge(rw, wstr)
		floor := -1
		for _, s := range r.sizes {
			if s <= l+1 {
				floor = s
			}
		}
		if floor >= 0 {
			if r.has(NameRArray(floor)) {
				r.edge(ro, NameRArray(floor))
			}
			if r.has(NameRWArray(floor)) {
				r.edge(rw, NameRWArray(floor))
			}
		}
	}
	for _, s := range normSizes(untermSizes) {
		ut := r.decl(NameUnterminated(s), true)
		if r.has(NameRArray(s)) {
			r.edge(ut, NameRArray(s))
		}
	}
}

func (r *refBuilder) files(sizeofFILE int) {
	ro, rw, wo := r.decl(TypeROnlyFile, true), r.decl(TypeRWFile, true), r.decl(TypeWOnlyFile, true)
	rf, wf := r.decl(TypeRFile, false), r.decl(TypeWFile, false)
	open, openNull := r.decl(TypeOpenFile, false), r.decl(TypeOpenFileNull, false)
	null := r.decl(TypeNull, true)
	for _, e := range [][2]string{{ro, rf}, {rw, rf}, {rw, wf}, {wo, wf}, {rf, open}, {wf, open}, {open, openNull}, {null, openNull}} {
		r.edge(e[0], e[1])
	}
	if r.has(NameRWArray(sizeofFILE)) {
		r.edge(open, NameRWArray(sizeofFILE))
	}
	if r.has(NameRWArrayNull(sizeofFILE)) {
		r.edge(openNull, NameRWArrayNull(sizeofFILE))
	}
}

func (r *refBuilder) dirs(sizeofDIR int) {
	f, u, un := r.decl(TypeOpenDir, true), r.decl(TypeOpenDirU, false), r.decl(TypeOpenDirNull, false)
	null := r.decl(TypeNull, true)
	r.edge(f, u)
	r.edge(u, un)
	r.edge(null, un)
	if r.has(NameRWArray(sizeofDIR)) {
		r.edge(u, NameRWArray(sizeofDIR))
	}
	if r.has(NameRWArrayNull(sizeofDIR)) {
		r.edge(un, NameRWArrayNull(sizeofDIR))
	}
}

// checkAgainstBuilder compares h's declarations, fundamental ordinals
// and every type's direct supertypes with the reference builder's.
func checkAgainstBuilder(t *testing.T, h *Hierarchy, r *refBuilder, label string) {
	t.Helper()
	h.groupEdges()
	ts := h.Types()
	if len(ts) != len(r.decls) {
		t.Fatalf("%s: %d types, reference %d", label, len(ts), len(r.decls))
	}
	bit := 0
	for i, tp := range ts {
		name := r.decls[i]
		if tp.Name() != name || tp.Fundamental() != r.fund[name] {
			t.Fatalf("%s: type %d is %s (fundamental %v), reference %s (%v)", label, i, tp, tp.Fundamental(), name, r.fund[name])
		}
		if tp.Fundamental() {
			if tp.bit != bit {
				t.Fatalf("%s: %s has ordinal %d, reference %d", label, name, tp.bit, bit)
			}
			bit++
		}
		supers := make([]string, len(h.supersOf(tp)))
		for k, s := range h.supersOf(tp) {
			supers[k] = s.Name()
		}
		if !slices.Equal(supers, r.supers[name]) {
			t.Fatalf("%s: %s ≤ %v, reference %v", label, name, supers, r.supers[name])
		}
	}
}
