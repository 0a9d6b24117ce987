// Package typesys implements the extensible type system of paper §4.2
// and the robust argument type selection of §4.3.
//
// A Hierarchy is a partially ordered set (T, ≤) of types. Fundamental
// types have pairwise-disjoint value sets and are produced by test-case
// generators; unified types union the value sets of their subtypes and
// are what robustness wrappers can check. A type T1 is a subtype of T2
// (T1 ≤ T2) iff V(T1) ⊆ V(T2). Because fundamentals are disjoint and
// never supertypes, the value set of any type is identified by the set
// of fundamental types below it — which is how membership of a test
// case (labelled with its fundamental type) in V(T) is decided.
package typesys

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"strings"
)

// Type is a node of a hierarchy. Types are interned per hierarchy:
// pointer identity is meaningful within one Hierarchy.
type Type struct {
	name        string
	fundamental bool
	index       int
	// bit is the fundamental's ordinal among the hierarchy's
	// fundamentals (its bit in every value set); -1 for unified types.
	bit int
}

// Name returns the type's name, e.g. "R_ARRAY_NULL[44]".
func (t *Type) Name() string { return t.name }

// Fundamental reports whether the type is fundamental (a generator
// output type) rather than unified (a checkable union).
func (t *Type) Fundamental() bool { return t.fundamental }

func (t *Type) String() string { return t.name }

// Hierarchy is a mutable poset of types. Build it with Fundamental,
// Unified and Edge, then call Finalize before queries.
type Hierarchy struct {
	types  []*Type
	funds  []*Type // fundamentals by ordinal (Type.bit)
	byName map[string]*Type
	// arraySizes are the normalised sizes AddArrayTypes instantiated,
	// ascending: the rows of the Figure 3 array types.
	arraySizes []int

	// slab is the unused tail of the current type slab: intern carves
	// each Type from it.
	slab []Type
	// edges are the direct edges sub ≤ super in the order Edge
	// recorded them. groupEdges indexes them by subtype: the direct
	// supertypes of the type with index i are supers[off[i]:off[i+1]],
	// in recorded order.
	edges  []edge
	off    []int32
	supers []*Type

	// computed by Finalize: V(t) is sets[t.index*words:][:words], a
	// bitset over fundamental ordinals. The value sets are the order;
	// no relation is materialised.
	words     int
	sets      []uint64
	finalized bool
}

// edge is one direct edge sub ≤ super.
type edge struct{ sub, super *Type }

// NewHierarchy returns an empty hierarchy.
func NewHierarchy() *Hierarchy { return &Hierarchy{} }

// typeChunk is the slab size for types declared without a reservation.
const typeChunk = 16

// reserve makes room for types more types, funds of them fundamental,
// and about two edges per type (a Figure 3 row has 16 over 9 types):
// the builders whose rows grow with their input reserve before they
// intern, so a hierarchy costs a constant number of allocations
// whatever its size. The name index is presized on first use.
func (h *Hierarchy) reserve(types, funds int) {
	if len(h.slab) < types {
		h.slab = make([]Type, types)
	}
	h.types = slices.Grow(h.types, types)
	h.funds = slices.Grow(h.funds, funds)
	h.edges = slices.Grow(h.edges, 2*types)
	if h.byName == nil {
		h.byName = make(map[string]*Type, types)
	}
}

func (h *Hierarchy) intern(name string, fundamental bool) *Type {
	if t, ok := h.byName[name]; ok {
		if t.fundamental != fundamental {
			panic(fmt.Sprintf("typesys: %s redeclared with different kind", name))
		}
		return t
	}
	if len(h.slab) == 0 {
		h.reserve(typeChunk, 0)
	}
	t := &h.slab[0]
	h.slab = h.slab[1:]
	*t = Type{name: name, fundamental: fundamental, index: len(h.types), bit: -1}
	if fundamental {
		t.bit = len(h.funds)
		h.funds = append(h.funds, t)
	}
	h.types = append(h.types, t)
	h.byName[name] = t
	h.finalized = false
	return t
}

// Fundamental declares (or returns) a fundamental type.
func (h *Hierarchy) Fundamental(name string) *Type { return h.intern(name, true) }

// Unified declares (or returns) a unified type.
func (h *Hierarchy) Unified(name string) *Type { return h.intern(name, false) }

// Edge records sub ≤ super.
func (h *Hierarchy) Edge(sub, super *Type) {
	h.edges = append(h.edges, edge{sub, super})
	h.finalized = false
}

// groupEdges indexes the recorded edges by subtype (a counting sort
// that keeps each type's in recorded order) unless no type or edge was
// added since the last time.
func (h *Hierarchy) groupEdges() {
	n := len(h.types)
	if len(h.off) == n+1 && int(h.off[n]) == len(h.edges) {
		return
	}
	off := make([]int32, n+1)
	for _, e := range h.edges {
		off[e.sub.index+1]++
	}
	for i := 1; i <= n; i++ {
		off[i] += off[i-1]
	}
	// off[i] is where type i's supertypes start; placing each edge
	// advances it to where they end, which is where type i+1's start.
	supers := make([]*Type, len(h.edges))
	for _, e := range h.edges {
		supers[off[e.sub.index]] = e.super
		off[e.sub.index]++
	}
	copy(off[1:], off[:n])
	off[0] = 0
	h.off, h.supers = off, supers
}

// supersOf returns t's direct supertypes in recorded order; the edges
// must be grouped.
func (h *Hierarchy) supersOf(t *Type) []*Type { return h.supers[h.off[t.index]:h.off[t.index+1]] }

// Lookup finds a type by name.
func (h *Hierarchy) Lookup(name string) (*Type, bool) {
	t, ok := h.byName[name]
	return t, ok
}

// Types returns all types in declaration order.
func (h *Hierarchy) Types() []*Type { return append([]*Type(nil), h.types...) }

// Errors from Finalize and RobustType.
var (
	ErrCycle            = errors.New("typesys: hierarchy contains a cycle")
	ErrFundamentalSuper = errors.New("typesys: a fundamental type is a supertype")
	ErrUnifiedCase      = errors.New("typesys: a case is labelled with a unified type")
)

// DFS colours for Finalize's cycle detection.
const (
	white uint8 = iota
	grey
	black
)

// Finalize checks the §4.2 structural invariants and computes every
// type's value set. Edges declare which types a fundamental's values
// belong to (transitively); the order itself is semantic: T1 ≤ T2 iff
// V(T1) ⊆ V(T2), each value set being the fundamentals with an edge
// path to the type. This captures relations the edges only imply — a
// writable string is a writable array even if no edge says so, as long
// as each writable-string fundamental reaches the array types.
//
// The value sets are bitsets over fundamental ordinals in one flat
// slice, filled in a single pass over the edge DFS's post-order, whose
// reverse visits every type before its supertypes: each set, once
// complete, is OR-ed into its direct supers. Finalize allocates the
// same three slices whatever the hierarchy's size (and the two of the
// edge index after types or edges were added), and every query after
// it is word operations on these sets.
func (h *Hierarchy) Finalize() error {
	h.groupEdges()
	// A fundamental type is never a supertype.
	for _, t := range h.types {
		for _, s := range h.supersOf(t) {
			if s.fundamental {
				return fmt.Errorf("%w: %s", ErrFundamentalSuper, s.name)
			}
		}
	}
	// Cycle detection over the edge graph (DFS colouring), recording
	// the post-order.
	n := len(h.types)
	color := make([]uint8, n)
	order := make([]*Type, 0, n)
	for _, t := range h.types {
		if color[t.index] == white {
			if err := h.visit(t, color, &order); err != nil {
				return err
			}
		}
	}

	words := (len(h.funds) + 63) / 64
	sets := make([]uint64, n*words)
	for _, f := range h.funds {
		sets[f.index*words+f.bit/64] |= 1 << (f.bit % 64)
	}
	for i := len(order) - 1; i >= 0; i-- {
		t := order[i]
		v := sets[t.index*words:][:words]
		for _, s := range h.supersOf(t) {
			sv := sets[s.index*words:][:words]
			for k := range v {
				sv[k] |= v[k]
			}
		}
	}
	h.words, h.sets = words, sets
	h.finalized = true
	return nil
}

// visit is the DFS of Finalize: it appends t to order after all its
// supertypes, or reports the cycle a grey supertype closes.
func (h *Hierarchy) visit(t *Type, color []uint8, order *[]*Type) error {
	color[t.index] = grey
	for _, s := range h.supersOf(t) {
		switch color[s.index] {
		case grey:
			return fmt.Errorf("%w: through %s", ErrCycle, s.name)
		case white:
			if err := h.visit(s, color, order); err != nil {
				return err
			}
		}
	}
	color[t.index] = black
	*order = append(*order, t)
	return nil
}

func (h *Hierarchy) mustFinal() {
	if !h.finalized {
		if err := h.Finalize(); err != nil {
			panic(err)
		}
	}
}

// set returns V(t) as its bitset words.
func (h *Hierarchy) set(t *Type) []uint64 { return h.sets[t.index*h.words:][:h.words] }

// subset reports a ⊆ b for two value sets.
func subset(a, b []uint64) bool {
	for k := range a {
		if a[k]&^b[k] != 0 {
			return false
		}
	}
	return true
}

// strictSubset reports a ⊊ b for two value sets.
func strictSubset(a, b []uint64) bool { return subset(a, b) && !slices.Equal(a, b) }

// meets reports a ∩ b ≠ ∅ for two value sets.
func meets(a, b []uint64) bool {
	for k := range a {
		if a[k]&b[k] != 0 {
			return true
		}
	}
	return false
}

// size is |V| for one value set.
func size(v []uint64) int {
	c := 0
	for _, w := range v {
		c += bits.OnesCount64(w)
	}
	return c
}

// LE reports a ≤ b, i.e. V(a) ⊆ V(b). A fundamental's value set is
// exactly itself, so for a fundamental a this is membership of a in
// V(b).
func (h *Hierarchy) LE(a, b *Type) bool {
	h.mustFinal()
	return subset(h.set(a), h.set(b))
}

// StrictSupertypes returns all types whose value set strictly contains
// t's.
func (h *Hierarchy) StrictSupertypes(t *Type) []*Type {
	h.mustFinal()
	v := h.set(t)
	var out []*Type
	for _, u := range h.types {
		if strictSubset(v, h.set(u)) {
			out = append(out, u)
		}
	}
	return out
}

// Fundamentals returns the fundamental types whose value sets compose
// V(t) — t itself if fundamental — in declaration order.
func (h *Hierarchy) Fundamentals(t *Type) []*Type {
	h.mustFinal()
	var out []*Type
	for k, w := range h.set(t) {
		for ; w != 0; w &= w - 1 {
			out = append(out, h.funds[k*64+bits.TrailingZeros64(w)])
		}
	}
	return out
}

// Contains reports whether a test case labelled with fundamental type
// fund belongs to V(t).
func (h *Hierarchy) Contains(t, fund *Type) bool { return h.LE(fund, t) }

// CaseOutcome classifies one fault-injection experiment for the robust
// type computation.
type CaseOutcome uint8

// Case outcomes. Success means the function returned without an error
// indication; ErrorReturn means it returned its error code; Crash means
// segfault, hang or abort.
const (
	Success CaseOutcome = iota + 1
	ErrorReturn
	Crash
)

// Case is one labelled experiment for a single argument position.
// Fund is the fundamental type the test case was generated from;
// RobustType rejects a unified label with ErrUnifiedCase.
type Case struct {
	Fund    *Type
	Outcome CaseOutcome
}

// candidate is a unified type covering every required case, with the
// size of its value set.
type candidate struct {
	t    *Type
	size int
}

// strongerFirst orders candidates strongest-first: a stronger type has
// a smaller value set (fewer fundamentals); ties break by name for
// determinism.
func strongerFirst(cs []candidate) {
	slices.SortFunc(cs, func(a, b candidate) int {
		if a.size != b.size {
			return a.size - b.size
		}
		return strings.Compare(a.t.name, b.t.name)
	})
}

// RobustOptions tunes the selection algorithm.
type RobustOptions struct {
	// Conservative makes error returns count as successes: the robust
	// type must then cover every test case for which the function
	// *returned* at all (paper §4.3's stricter variant for functions
	// that may not be atomic).
	Conservative bool
}

// RobustType computes the robust argument type for the labelled cases
// per §4.3: a type T such that every success case is in V(T) and every
// strict supertype of T contains at least one crash case. The second
// condition justifies the wrapper rejecting everything outside V(T):
// any weakening admits a known crash. When no crash evidence justifies
// a strong type (e.g. a function that merely returns errors), the
// condition forces weakening — in the limit to UNCONSTRAINED, which
// qualifies vacuously, so a result always exists. Among qualified
// types, the strongest is returned; when a safe type exists, that is
// the safe type.
func (h *Hierarchy) RobustType(cases []Case, opts RobustOptions) (*Type, error) {
	h.mustFinal()
	// Fold the cases into two value sets: need, the cases every
	// candidate must cover, and crash, the crash cases. A type then
	// covers the required cases iff need ⊆ V(T), and contains a crash
	// iff V(T) ∩ crash ≠ ∅.
	masks := make([]uint64, 2*h.words)
	need, crash := masks[:h.words], masks[h.words:]
	for _, c := range cases {
		f := c.Fund
		if !f.fundamental {
			return nil, fmt.Errorf("%w: %s", ErrUnifiedCase, f.name)
		}
		switch {
		case c.Outcome == Crash:
			crash[f.bit/64] |= 1 << (f.bit % 64)
		case c.Outcome == Success, opts.Conservative && c.Outcome == ErrorReturn:
			need[f.bit/64] |= 1 << (f.bit % 64)
		}
	}

	// Candidates: unified types (robust types are checkable) covering
	// all required cases.
	var candidates []candidate
	for _, t := range h.types {
		if v := h.set(t); !t.fundamental && subset(need, v) {
			candidates = append(candidates, candidate{t, size(v)})
		}
	}
	if len(candidates) == 0 {
		return nil, errors.New("typesys: no unified type covers the success cases (missing UNCONSTRAINED?)")
	}

	// Among candidates, qualified types are those whose every strict
	// supertype contains a crash. Following the paper's guarantee that
	// the computed robust type is safe whenever a safe type exists, a
	// qualified candidate whose own value set contains no crash case is
	// preferred; only if none exists does the strongest qualified
	// candidate win regardless of admitted crashes (robust, not safe).
	// A candidate containing a crash qualifies outright: every superset
	// of its value set contains that crash too.
	strongerFirst(candidates)
	var fallback *Type
	for _, c := range candidates {
		v := h.set(c.t)
		if meets(v, crash) {
			if fallback == nil {
				fallback = c.t
			}
			continue
		}
		if h.crashAbove(v, crash) {
			return c.t, nil
		}
	}
	if fallback != nil {
		return fallback, nil
	}
	// Unreachable with a proper top element, but fail loudly.
	return nil, errors.New("typesys: no robust type found")
}

// crashAbove reports whether every type whose value set strictly
// contains v meets crash.
func (h *Hierarchy) crashAbove(v, crash []uint64) bool {
	for _, u := range h.types {
		if uv := h.set(u); !meets(uv, crash) && strictSubset(v, uv) {
			return false
		}
	}
	return true
}

// IsSafe reports whether t is a *safe* argument type for the cases:
// every non-crash case is in V(T) and no crash case is.
func (h *Hierarchy) IsSafe(t *Type, cases []Case) bool {
	for _, c := range cases {
		in := h.Contains(t, c.Fund)
		if c.Outcome == Crash && in {
			return false
		}
		if c.Outcome != Crash && !in {
			return false
		}
	}
	return true
}

// EveryArg is the VectorCase.Explored value that makes a non-crash
// outcome coverage evidence for every coordinate.
const EveryArg = -2

// VectorCase is one experiment of an n-ary function: the fundamental
// type of each argument plus the joint outcome.
type VectorCase struct {
	Funds   []*Type
	Outcome CaseOutcome
	// Explored is the argument whose exploration produced the case. A
	// non-crash outcome is coverage evidence for that coordinate only,
	// where the sibling arguments held benign defaults; EveryArg makes
	// it evidence for all coordinates, and any other value outside
	// [0, n) for none. Crash evidence is never restricted by Explored.
	Explored int
}

// RobustVector computes the robust type vector for an n-ary function
// (paper §4.3, "Multiple Arguments"). hier[i] is argument i's
// hierarchy. The computation iterates per-coordinate robust selection
// to a fixpoint: the crash evidence admitted for coordinate i is
// restricted to crash vectors whose other coordinates lie inside the
// current robust types, which is exactly the supertype-vector condition.
func RobustVector(hier []*Hierarchy, cases []VectorCase, opts RobustOptions) ([]*Type, error) {
	n := len(hier)
	result := make([]*Type, n)
	proj := make([]Case, 0, len(cases))
	// project runs the selection for coordinate i over the cases that
	// are evidence for it; with filterCrash, crash evidence only counts
	// if the other coordinates are within the current robust vector.
	project := func(i int, filterCrash bool) (*Type, error) {
		proj = proj[:0]
		for _, vc := range cases {
			if vc.Outcome != Crash {
				if vc.Explored != i && vc.Explored != EveryArg {
					continue
				}
			} else if filterCrash && !inVector(hier, result, vc.Funds, i) {
				continue // not evidence against weakening coord i
			}
			proj = append(proj, Case{Fund: vc.Funds[i], Outcome: vc.Outcome})
		}
		t, err := hier[i].RobustType(proj, opts)
		if err != nil {
			return nil, fmt.Errorf("argument %d: %w", i, err)
		}
		return t, nil
	}

	// Initial pass: per-argument robust types using all crash evidence.
	for i := 0; i < n; i++ {
		t, err := project(i, false)
		if err != nil {
			return nil, err
		}
		result[i] = t
	}
	// Refine with the supertype-vector condition.
	for iter := 0; iter < 5; iter++ {
		changed := false
		for i := 0; i < n; i++ {
			t, err := project(i, true)
			if err != nil {
				return nil, err
			}
			if t != result[i] {
				result[i] = t
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return result, nil
}

// inVector reports whether every coordinate of funds except skip lies
// inside the robust vector.
func inVector(hier []*Hierarchy, vec, funds []*Type, skip int) bool {
	for j, f := range funds {
		if j != skip && !hier[j].Contains(vec[j], f) {
			return false
		}
	}
	return true
}

// FormatVector renders a type vector for logs and declarations.
func FormatVector(ts []*Type) string {
	names := make([]string, len(ts))
	for i, t := range ts {
		names[i] = t.Name()
	}
	return "(" + strings.Join(names, ", ") + ")"
}
