package typesys

import "testing"

// asctimeSizes are the sizes the asctime campaign probes; largeSizes
// give a 642-type array hierarchy, the size of the largest one a cold
// 86-function campaign builds.
var (
	asctimeSizes = []int{0, 8, 16, 24, 32, 40, 43, 44, 48, 152}
	largeSizes   = func() []int {
		s := make([]int, 70)
		for i := range s {
			s[i] = 4 * (i + 1)
		}
		return s
	}()
)

// thresholdCases labels an array hierarchy like asctimeCases, with the
// success threshold at the median size.
func thresholdCases(h *Hierarchy, sizes []int) []Case {
	get := func(name string) *Type {
		tp, ok := h.Lookup(name)
		if !ok {
			panic("missing " + name)
		}
		return tp
	}
	min := sizes[len(sizes)/2]
	var cases []Case
	for _, s := range sizes {
		outcome := Crash
		if s >= min {
			outcome = Success
		}
		cases = append(cases,
			Case{Fund: get(NameROnlyFixed(s)), Outcome: outcome},
			Case{Fund: get(NameRWFixed(s)), Outcome: outcome},
			Case{Fund: get(NameWOnlyFixed(s)), Outcome: Crash},
		)
	}
	return append(cases,
		Case{Fund: get(TypeNull), Outcome: ErrorReturn},
		Case{Fund: get(TypeInvalid), Outcome: Crash},
	)
}

var benchHierarchies = []struct {
	name  string
	sizes []int
}{
	{"asctime", asctimeSizes},
	{"642types", largeSizes},
}

// BenchmarkBuildArrayHierarchy measures construction and Finalize of
// the Figure 3 hierarchy.
func BenchmarkBuildArrayHierarchy(b *testing.B) {
	for _, bh := range benchHierarchies {
		b.Run(bh.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				BuildArrayHierarchy(bh.sizes)
			}
		})
	}
}

// BenchmarkRobustType measures the §4.3 selection over a finalized
// hierarchy.
func BenchmarkRobustType(b *testing.B) {
	for _, bh := range benchHierarchies {
		b.Run(bh.name, func(b *testing.B) {
			h := BuildArrayHierarchy(bh.sizes)
			cases := thresholdCases(h, normSizes(bh.sizes))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := h.RobustType(cases, RobustOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestKernelAllocations pins the kernel's allocations: LE and Contains
// allocate nothing, Finalize allocates the same three slices whatever
// the hierarchy's size, and BuildArrayHierarchy a bounded number of
// slabs, names and index tables whatever its size.
func TestKernelAllocations(t *testing.T) {
	small := BuildArrayHierarchy(asctimeSizes)
	large := BuildArrayHierarchy(largeSizes)
	if n := len(large.types); n != 642 {
		t.Fatalf("large hierarchy has %d types, want 642", n)
	}
	rn, _ := large.Lookup(NameRArrayNull(44))
	null, _ := large.Lookup(TypeNull)
	if a := testing.AllocsPerRun(100, func() {
		large.LE(rn, null)
		large.Contains(rn, null)
	}); a != 0 {
		t.Errorf("LE+Contains allocate %v times, want 0", a)
	}
	finalize := func(h *Hierarchy) float64 {
		return testing.AllocsPerRun(20, func() {
			if err := h.Finalize(); err != nil {
				t.Fatal(err)
			}
		})
	}
	if s, l := finalize(small), finalize(large); s != 3 || l != 3 {
		t.Errorf("Finalize allocates %v times over %d types and %v over %d; want 3 (colours, post-order, value sets)",
			s, len(small.types), l, len(large.types))
	}
	for _, bh := range benchHierarchies {
		if a := testing.AllocsPerRun(20, func() { BuildArrayHierarchy(bh.sizes) }); a > 32 {
			t.Errorf("BuildArrayHierarchy(%s) allocates %v times, want at most 32", bh.name, a)
		}
	}
}
