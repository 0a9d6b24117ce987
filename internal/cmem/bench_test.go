package cmem

import "testing"

// benchTemplate builds an address space shaped like an injector
// template: the mapped stack, a handful of heap allocations, and a few
// mmap regions with mixed protections — a few dozen pages, matching
// what every campaign experiment forks.
func benchTemplate(b *testing.B) *Memory {
	b.Helper()
	m := New()
	for i := 0; i < 6; i++ {
		p, err := m.Malloc(2*PageSize + i)
		if err != nil {
			b.Fatal(err)
		}
		if f := m.WriteCString(p, "payload"); f != nil {
			b.Fatal(f)
		}
	}
	for _, prot := range []Prot{ProtRW, ProtRead, ProtWrite, ProtNone} {
		if _, err := m.MmapRegion(2*PageSize, prot); err != nil {
			b.Fatal(err)
		}
	}
	return m
}

// BenchmarkForkEager measures the pre-COW fork: a deep copy of every
// mapped page.
func BenchmarkForkEager(b *testing.B) {
	m := benchTemplate(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := m.CloneEager()
		c.Release()
	}
}

// BenchmarkForkCOW measures the lazy fork alone: page-table copy plus
// refcounts, no page data touched.
func BenchmarkForkCOW(b *testing.B) {
	m := benchTemplate(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := m.Clone()
		c.Release()
	}
}

// BenchmarkForkCOWDiverge is the realistic campaign shape: fork, then
// write a few bytes (forcing one copy-on-write page copy) before the
// child is discarded.
func BenchmarkForkCOWDiverge(b *testing.B) {
	m := benchTemplate(b)
	p, err := m.Malloc(64)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := m.Clone()
		if f := c.StoreByte(p, byte(i)); f != nil {
			b.Fatal(f)
		}
		c.Release()
	}
}

// BenchmarkByteScanForked is the page cache's fast path: a forked
// Memory walked byte by byte across two pages, loading each byte and
// storing it back incremented — the access shape of a string check or a
// stdio buffer fill inside one experiment. The first pass copies both
// pages on write; every later access is a cache hit on a private page.
func BenchmarkByteScanForked(b *testing.B) {
	m := benchTemplate(b)
	p, err := m.Malloc(2 * PageSize)
	if err != nil {
		b.Fatal(err)
	}
	m.Freeze()
	c := m.Clone()
	defer c.Release()
	b.ReportAllocs()
	b.SetBytes(2 * PageSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for a := p; a < p+2*PageSize; a++ {
			v, f := c.LoadByte(a)
			if f != nil {
				b.Fatal(f)
			}
			if f := c.StoreByte(a, v+1); f != nil {
				b.Fatal(f)
			}
		}
	}
}
