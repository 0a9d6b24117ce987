package cmem

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// dumpState renders every observable byte of a Memory: page table
// (base, protection, contents hash), region cursors, heap table and
// index, and stack bookkeeping. Page refcounts are deliberately
// excluded — they are sharing metadata, not simulated-machine state,
// and forking changes them without changing what the machine can
// observe.
func dumpState(m *Memory) string {
	var b strings.Builder
	merged := make(map[Addr]*page)
	m.forEachPage(func(base Addr, pg *page) { merged[base] = pg })
	bases := make([]Addr, 0, len(merged))
	for base := range merged {
		bases = append(bases, base)
	}
	sort.Slice(bases, func(i, j int) bool { return bases[i] < bases[j] })
	for _, base := range bases {
		pg := merged[base]
		h := fnv.New64a()
		h.Write(pg.data[:])
		fmt.Fprintf(&b, "page %#x %s %#x\n", uint64(base), pg.prot, h.Sum64())
	}
	fmt.Fprintf(&b, "cursors heap=%#x mmap=%#x\n", uint64(m.heapCursor), uint64(m.mmapCursor))
	fmt.Fprintf(&b, "heap sorted=%v allocs=", m.heap.sorted)
	abases := make([]Addr, 0, len(m.heap.allocs))
	for a := range m.heap.allocs {
		abases = append(abases, a)
	}
	sort.Slice(abases, func(i, j int) bool { return abases[i] < abases[j] })
	for _, a := range abases {
		fmt.Fprintf(&b, "%#x:%d ", uint64(a), m.heap.allocs[a])
	}
	fmt.Fprintf(&b, "\nstack low=%#x sp=%#x frames=%v\n", uint64(m.stack.low), uint64(m.stack.sp), m.stack.frames)
	return b.String()
}

// requirePure runs reads against m and fails the test if any of them
// changed the dumped state — the frozen-snapshot invariant every read
// path must uphold for copy-on-write forking to be sound.
func requirePure(t *testing.T, m *Memory, name string, reads func()) {
	t.Helper()
	before := dumpState(m)
	reads()
	if after := dumpState(m); after != before {
		t.Errorf("%s mutated memory state:\nbefore:\n%s\nafter:\n%s", name, before, after)
	}
}

// TestReadPathsLeaveSnapshotFrozen drives every read accessor —
// including the faulting variants — against a richly populated address
// space and asserts the deep state dump is bit-identical afterwards.
// Before COW, CString and AllocAt both wrote state on the read path
// (a single-entry page cache and a lazy index rebuild); this test pins
// the bug class shut.
func TestReadPathsLeaveSnapshotFrozen(t *testing.T) {
	m := New()
	heapA, err := m.Malloc(100)
	if err != nil {
		t.Fatal(err)
	}
	heapB, err := m.Malloc(3*PageSize + 17)
	if err != nil {
		t.Fatal(err)
	}
	if f := m.WriteCString(heapA, "hello"); f != nil {
		t.Fatal(f)
	}
	ro, err := m.MmapRegion(PageSize, ProtRead)
	if err != nil {
		t.Fatal(err)
	}
	wo, err := m.MmapRegion(PageSize, ProtWrite)
	if err != nil {
		t.Fatal(err)
	}
	guard, err := m.MmapRegion(PageSize, ProtNone)
	if err != nil {
		t.Fatal(err)
	}
	// An unterminated string region: CString must scan to the guard gap
	// and fault, without caching or otherwise recording its progress.
	unterm, err := m.MmapRegion(16, ProtRW)
	if err != nil {
		t.Fatal(err)
	}
	fill := make([]byte, PageSize)
	for i := range fill {
		fill[i] = 'x'
	}
	if f := m.Write(unterm, fill); f != nil {
		t.Fatal(f)
	}
	m.Stack().PushFrame(64)
	local := m.Stack().Alloca(32)

	requirePure(t, m, "reads", func() {
		m.Read(heapA, 6)
		m.Read(heapB, 2*PageSize) // page-spanning
		m.Read(guard, 1)          // mapped-protected fault
		m.Read(heapB+Addr(4*PageSize), 8)
		m.LoadByte(heapA)
		m.LoadByte(wo) // write-only read fault
		m.LoadByte(0)  // unmapped fault
		m.CString(heapA)
		m.CString(unterm) // unterminated: scans a full page, faults at guard
		m.CString(wo)
		m.CString(0xdead_0000)
		m.ReadU16(heapA)
		m.ReadU32(heapA)
		m.ReadU64(heapB)
		m.ProtAt(ro)
		m.ProtAt(0x42)
		m.AllocAt(heapA + 50)
		m.AllocAt(ro) // miss: mmap region, not heap
		m.AllocAt(heapB + Addr(10*PageSize))
		m.IsAllocBase(heapA)
		m.IsAllocBase(heapA + 1)
		m.LiveAllocs()
		m.Stack().Contains(local)
		m.Stack().FrameLimit(local)
		m.Stack().FrameLimit(heapA)
		m.Stack().Depth()
	})

	// Clone must also leave the parent's observable state frozen (it
	// bumps refcounts only), and the child must start as a perfect copy.
	before := dumpState(m)
	c := m.Clone()
	if after := dumpState(m); after != before {
		t.Errorf("Clone mutated parent state:\nbefore:\n%s\nafter:\n%s", before, after)
	}
	if cd := dumpState(c); cd != before {
		t.Errorf("fork is not a perfect copy:\nparent:\n%s\nchild:\n%s", before, cd)
	}
	c.Release()
}

// TestCStringScanCap pins the pathological-string cap: a readable
// unterminated run longer than maxCString faults at exactly the
// megabyte mark, as the historical byte-at-a-time scan did.
func TestCStringScanCap(t *testing.T) {
	m := New()
	n := maxCString + PageSize
	base, err := m.MmapRegion(n, ProtRW)
	if err != nil {
		t.Fatal(err)
	}
	chunk := make([]byte, PageSize)
	for i := range chunk {
		chunk[i] = 'a'
	}
	for off := 0; off < n; off += PageSize {
		if f := m.Write(base+Addr(off), chunk); f != nil {
			t.Fatal(f)
		}
	}
	_, f := m.CString(base)
	if f == nil {
		t.Fatal("unterminated megabyte string did not fault")
	}
	want := Fault{Addr: base + maxCString, Access: AccessRead, Mapped: true}
	if *f != want {
		t.Errorf("cap fault = %+v, want %+v", *f, want)
	}
}

// memPair drives a COW memory and an eager-clone memory through the
// same operations; the two must stay observationally identical.
type memPair struct{ cow, eager *Memory }

func sameFault(a, b *Fault) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	return a == nil || *a == *b
}

// TestDifferentialCOWvsEager is the randomized property test for the
// tentpole: starting from one pair, a random walk of maps, protects,
// reads, writes, heap traffic, forks and releases must produce
// byte-identical observations — data, errors, and exact fault
// addresses and access kinds — whether forks are copy-on-write or
// eager deep copies. Any divergence is a COW aliasing bug. The walk
// meets zero pages on templates and forks alike: maps over mapped and
// unmapped pages, protection changes of regions nothing wrote, Zero
// and filled mappings (MmapFlush); once it ends no zero page may hold
// a byte or sit in the page pool.
func TestDifferentialCOWvsEager(t *testing.T) {
	prots := []Prot{ProtNone, ProtRead, ProtWrite, ProtRW}
	for seed := int64(1); seed <= 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			pairs := []*memPair{{cow: New(), eager: New()}}
			// Interesting bases; offsets around them reach region
			// interiors, page spans, guard gaps and wild addresses.
			addrs := []Addr{stackTop - Addr(stackSize), heapBase, mmapBase}
			randAddr := func() Addr {
				base := addrs[rng.Intn(len(addrs))]
				return base + Addr(rng.Intn(5*PageSize)) - PageSize
			}

			const steps = 3000
			for step := 0; step < steps; step++ {
				p := pairs[rng.Intn(len(pairs))]
				op := rng.Intn(20)
				switch {
				case op == 0: // mmap a fresh region
					n := rng.Intn(3*PageSize) + 1
					prot := prots[rng.Intn(len(prots))]
					a1, e1 := p.cow.MmapRegion(n, prot)
					a2, e2 := p.eager.MmapRegion(n, prot)
					if a1 != a2 || (e1 == nil) != (e2 == nil) {
						t.Fatalf("step %d: MmapRegion diverged: %#x,%v vs %#x,%v", step, a1, e1, a2, e2)
					}
					addrs = append(addrs, a1)
				case op == 1: // malloc
					n := rng.Intn(2 * PageSize)
					a1, e1 := p.cow.Malloc(n)
					a2, e2 := p.eager.Malloc(n)
					if a1 != a2 || (e1 == nil) != (e2 == nil) {
						t.Fatalf("step %d: Malloc diverged", step)
					}
					addrs = append(addrs, a1)
				case op == 2: // free
					a := randAddr()
					if p.cow.Free(a) != p.eager.Free(a) {
						t.Fatalf("step %d: Free(%#x) diverged", step, a)
					}
				case op == 3: // realloc
					a := randAddr()
					n := rng.Intn(PageSize)
					a1, e1 := p.cow.Realloc(a, n)
					a2, e2 := p.eager.Realloc(a, n)
					if a1 != a2 || (e1 == nil) != (e2 == nil) {
						t.Fatalf("step %d: Realloc diverged", step)
					}
					if e1 == nil {
						addrs = append(addrs, a1)
					}
				case op == 4: // map over an arbitrary range
					a, n := randAddr(), rng.Intn(2*PageSize)+1
					prot := prots[rng.Intn(len(prots))]
					p.cow.Map(a, n, prot)
					p.eager.Map(a, n, prot)
				case op == 5: // unmap
					a, n := randAddr(), rng.Intn(2*PageSize)+1
					p.cow.Unmap(a, n)
					p.eager.Unmap(a, n)
				case op == 6: // protect
					a, n := randAddr(), rng.Intn(2*PageSize)+1
					prot := prots[rng.Intn(len(prots))]
					p.cow.Protect(a, n, prot)
					p.eager.Protect(a, n, prot)
				case op == 7: // write random data (possibly page-spanning)
					a := randAddr()
					data := make([]byte, rng.Intn(PageSize+100)+1)
					rng.Read(data)
					if f1, f2 := p.cow.Write(a, data), p.eager.Write(a, data); !sameFault(f1, f2) {
						t.Fatalf("step %d: Write(%#x) faults diverged: %v vs %v", step, a, f1, f2)
					}
				case op == 8: // read and compare contents + fault identity
					a, n := randAddr(), rng.Intn(PageSize+100)+1
					b1, f1 := p.cow.Read(a, n)
					b2, f2 := p.eager.Read(a, n)
					if !sameFault(f1, f2) || string(b1) != string(b2) {
						t.Fatalf("step %d: Read(%#x,%d) diverged: %v vs %v", step, a, n, f1, f2)
					}
				case op == 9: // single-byte store/load
					a := randAddr()
					v := byte(rng.Intn(256))
					if f1, f2 := p.cow.StoreByte(a, v), p.eager.StoreByte(a, v); !sameFault(f1, f2) {
						t.Fatalf("step %d: StoreByte faults diverged", step)
					}
					v1, f1 := p.cow.LoadByte(a)
					v2, f2 := p.eager.LoadByte(a)
					if v1 != v2 || !sameFault(f1, f2) {
						t.Fatalf("step %d: LoadByte diverged", step)
					}
				case op == 10: // C string scan, including faulting scans
					a := randAddr()
					s1, f1 := p.cow.CString(a)
					s2, f2 := p.eager.CString(a)
					if s1 != s2 || !sameFault(f1, f2) {
						t.Fatalf("step %d: CString(%#x) diverged: %q,%v vs %q,%v", step, a, s1, f1, s2, f2)
					}
				case op == 11: // write a C string
					a := randAddr()
					s := fmt.Sprintf("s%d", rng.Intn(1000))
					if f1, f2 := p.cow.WriteCString(a, s), p.eager.WriteCString(a, s); !sameFault(f1, f2) {
						t.Fatalf("step %d: WriteCString faults diverged", step)
					}
				case op == 12: // heap/protection introspection
					a := randAddr()
					i1, ok1 := p.cow.AllocAt(a)
					i2, ok2 := p.eager.AllocAt(a)
					if i1 != i2 || ok1 != ok2 {
						t.Fatalf("step %d: AllocAt(%#x) diverged: %+v,%v vs %+v,%v", step, a, i1, ok1, i2, ok2)
					}
					pr1, m1 := p.cow.ProtAt(a)
					pr2, m2 := p.eager.ProtAt(a)
					if pr1 != pr2 || m1 != m2 {
						t.Fatalf("step %d: ProtAt diverged", step)
					}
					if p.cow.IsAllocBase(a) != p.eager.IsAllocBase(a) || p.cow.LiveAllocs() != p.eager.LiveAllocs() {
						t.Fatalf("step %d: heap introspection diverged", step)
					}
				case op == 13: // wide multi-byte reads
					a := randAddr()
					u1, f1 := p.cow.ReadU64(a)
					u2, f2 := p.eager.ReadU64(a)
					if u1 != u2 || !sameFault(f1, f2) {
						t.Fatalf("step %d: ReadU64 diverged", step)
					}
				case op == 14 && len(pairs) < 6: // fork: COW vs eager
					pairs = append(pairs, &memPair{cow: p.cow.Clone(), eager: p.eager.CloneEager()})
				case op == 15 && len(pairs) > 1: // retire a pair
					i := rng.Intn(len(pairs))
					pairs[i].cow.Release()
					pairs[i].eager.Release()
					pairs = append(pairs[:i], pairs[i+1:]...)
				case op == 16: // reset pages to zeros, whatever they hold
					a, n := randAddr(), rng.Intn(3*PageSize)+1
					p.cow.Zero(a, n)
					p.eager.Zero(a, n)
				case op == 17: // a filled mapping, possibly empty
					data := make([]byte, rng.Intn(3*PageSize))
					rng.Read(data)
					prot := prots[rng.Intn(len(prots))]
					a1, e1 := p.cow.MmapFlush(data, prot)
					a2, e2 := p.eager.MmapFlush(data, prot)
					if a1 != a2 || (e1 == nil) != (e2 == nil) {
						t.Fatalf("step %d: MmapFlush diverged: %#x,%v vs %#x,%v", step, a1, e1, a2, e2)
					}
					addrs = append(addrs, a1)
				case op == 18: // protect part of a region nothing wrote yet
					n, mprot := rng.Intn(3*PageSize)+1, prots[rng.Intn(len(prots))]
					a1, _ := p.cow.MmapRegion(n, mprot)
					a2, _ := p.eager.MmapRegion(n, mprot)
					if a1 != a2 {
						t.Fatalf("step %d: MmapRegion diverged: %#x vs %#x", step, a1, a2)
					}
					at, prot := a1+Addr(rng.Intn(n)), prots[rng.Intn(len(prots))]
					p.cow.Protect(at, n, prot)
					p.eager.Protect(at, n, prot)
					addrs = append(addrs, a1)
				case op == 19: // remap a region over its mapped pages and the gaps
					a := addrs[rng.Intn(len(addrs))] + Addr(rng.Intn(2*PageSize)) - PageSize
					n, prot := rng.Intn(4*PageSize)+1, prots[rng.Intn(len(prots))]
					p.cow.Map(a, n, prot)
					p.eager.Map(a, n, prot)
				}
			}

			// Final deep comparison: after the walk, every surviving
			// COW memory must dump identically to its eager twin.
			for i, p := range pairs {
				if d1, d2 := dumpState(p.cow), dumpState(p.eager); d1 != d2 {
					t.Errorf("pair %d final state diverged:\ncow:\n%s\neager:\n%s", i, d1, d2)
				}
				p.cow.Release()
				p.eager.Release()
			}
			requireZeroPages(t)
		})
	}
}
