package cmem

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// refPage is one page of the reference model.
type refPage struct {
	prot Prot
	data [PageSize]byte
}

// refMem is the page cache's oracle: a flat map from page base to page,
// with no layers, no sharing and no cache — each operation written
// straight from its documented semantics. The region cursors and the
// heap table follow Memory's layout rules so both can be dumped in
// dumpState's format.
type refMem struct {
	pages      map[Addr]*refPage
	heapCursor Addr
	mmapCursor Addr
	allocs     map[Addr]int
	released   bool
}

func newRef() *refMem {
	r := &refMem{pages: map[Addr]*refPage{}, heapCursor: heapBase, mmapCursor: mmapBase, allocs: map[Addr]int{}}
	r.mapRange(stackTop-Addr(stackSize), stackSize, ProtRW)
	return r
}

func (r *refMem) clone() *refMem {
	c := &refMem{pages: map[Addr]*refPage{}, heapCursor: r.heapCursor, mmapCursor: r.mmapCursor, allocs: map[Addr]int{}}
	for base, pg := range r.pages {
		cp := *pg
		c.pages[base] = &cp
	}
	for a, n := range r.allocs {
		c.allocs[a] = n
	}
	return c
}

// eachPage calls fn for every page base overlapping [addr, addr+n).
func eachPage(addr Addr, n int, fn func(base Addr)) {
	if n <= 0 {
		return
	}
	last := (addr + Addr(n) - 1).PageBase()
	for base := addr.PageBase(); ; base += PageSize {
		fn(base)
		if base == last {
			return
		}
	}
}

func (r *refMem) mapRange(addr Addr, n int, prot Prot) {
	eachPage(addr, n, func(base Addr) {
		if pg := r.pages[base]; pg != nil {
			pg.prot = prot
		} else {
			r.pages[base] = &refPage{prot: prot}
		}
	})
}

func (r *refMem) unmap(addr Addr, n int) {
	eachPage(addr, n, func(base Addr) { delete(r.pages, base) })
}

func (r *refMem) protect(addr Addr, n int, prot Prot) {
	eachPage(addr, n, func(base Addr) {
		if pg := r.pages[base]; pg != nil {
			pg.prot = prot
		}
	})
}

// fault reports the first inaccessible byte of [addr, addr+n), the way
// the documented contract states it: at the start of the first bad
// page, or at addr when that page is the first.
func (r *refMem) fault(addr Addr, n int, access Access) *Fault {
	var f *Fault
	eachPage(addr, n, func(base Addr) {
		if f != nil {
			return
		}
		at := base
		if at < addr {
			at = addr
		}
		pg := r.pages[base]
		need := ProtRead
		if access == AccessWrite {
			need = ProtWrite
		}
		switch {
		case pg == nil:
			f = &Fault{Addr: at, Access: access}
		case pg.prot&need == 0:
			f = &Fault{Addr: at, Access: access, Mapped: true}
		}
	})
	return f
}

func (r *refMem) read(addr Addr, n int) ([]byte, *Fault) {
	if f := r.fault(addr, n, AccessRead); f != nil {
		return nil, f
	}
	out := make([]byte, n)
	for i := range out {
		a := addr + Addr(i)
		out[i] = r.pages[a.PageBase()].data[a&(PageSize-1)]
	}
	return out, nil
}

func (r *refMem) write(addr Addr, data []byte) *Fault {
	if f := r.fault(addr, len(data), AccessWrite); f != nil {
		return f
	}
	for i, b := range data {
		a := addr + Addr(i)
		r.pages[a.PageBase()].data[a&(PageSize-1)] = b
	}
	return nil
}

func (r *refMem) cstring(addr Addr) (string, *Fault) {
	var b []byte
	for a := addr; ; a++ {
		if f := r.fault(a, 1, AccessRead); f != nil {
			return "", f
		}
		c := r.pages[a.PageBase()].data[a&(PageSize-1)]
		if c == 0 {
			return string(b), nil
		}
		b = append(b, c)
	}
}

func (r *refMem) malloc(size int) Addr {
	n := size
	if n == 0 {
		n = 1
	}
	pages := (n + PageSize - 1) / PageSize
	base := r.heapCursor + PageSize
	r.mapRange(base, pages*PageSize, ProtRW)
	r.heapCursor = base + Addr(pages*PageSize) + PageSize
	r.allocs[base] = size
	return base
}

func (r *refMem) free(addr Addr) bool {
	size, ok := r.allocs[addr]
	if !ok {
		return false
	}
	if size == 0 {
		size = 1
	}
	r.unmap(addr, size)
	delete(r.allocs, addr)
	return true
}

func (r *refMem) mmap(n int, prot Prot) Addr {
	pages := (n + PageSize - 1) / PageSize
	if pages == 0 {
		pages = 1
	}
	base := r.mmapCursor + PageSize
	r.mapRange(base, pages*PageSize, prot)
	r.mmapCursor = base + Addr(pages*PageSize) + PageSize
	return base
}

// zero clears every mapped page overlapping [addr, addr+n).
func (r *refMem) zero(addr Addr, n int) {
	eachPage(addr, n, func(base Addr) {
		if pg := r.pages[base]; pg != nil {
			pg.data = [PageSize]byte{}
		}
	})
}

// mmapFlush is MmapFlush as its contract states it: the pages mapped
// read-write, data written flush against the trailing guard gap, the
// pages protected to prot; empty data maps one page of prot.
func (r *refMem) mmapFlush(data []byte, prot Prot) Addr {
	if len(data) == 0 {
		return r.mmap(0, prot) + PageSize
	}
	base := r.mmap(len(data), ProtRW)
	n := (len(data) + PageSize - 1) / PageSize * PageSize
	start := base + Addr(n-len(data))
	r.write(start, data)
	r.protect(base, n, prot)
	return start
}

// dump renders the model in dumpState's format; a model never pushes
// stack frames.
func (r *refMem) dump() string {
	var b strings.Builder
	bases := make([]Addr, 0, len(r.pages))
	for base := range r.pages {
		bases = append(bases, base)
	}
	sort.Slice(bases, func(i, j int) bool { return bases[i] < bases[j] })
	for _, base := range bases {
		h := fnv.New64a()
		h.Write(r.pages[base].data[:])
		fmt.Fprintf(&b, "page %#x %s %#x\n", uint64(base), r.pages[base].prot, h.Sum64())
	}
	fmt.Fprintf(&b, "cursors heap=%#x mmap=%#x\n", uint64(r.heapCursor), uint64(r.mmapCursor))
	sorted := make([]Addr, 0, len(r.allocs))
	for a := range r.allocs {
		sorted = append(sorted, a)
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	fmt.Fprintf(&b, "heap sorted=%v allocs=", sorted)
	for _, a := range sorted {
		fmt.Fprintf(&b, "%#x:%d ", uint64(a), r.allocs[a])
	}
	fmt.Fprintf(&b, "\nstack low=%#x sp=%#x frames=%v\n", uint64(stackTop-Addr(stackSize)), uint64(stackTop), []Frame(nil))
	return b.String()
}

// checkTLB asserts the cache invariant: every cached entry names the
// page a full walk finds and carries the walk's owned bit, and a
// Memory that may not write its cache holds no entries at all. It
// returns the number of live entries.
func checkTLB(t *testing.T, m *Memory, step int) int {
	t.Helper()
	live := 0
	for i, e := range m.tlb {
		if e.pg == nil {
			continue
		}
		live++
		if !m.tlbOn {
			t.Fatalf("step %d: cache-disabled Memory holds entry %d", step, i)
		}
		base := e.tag &^ tlbOwned
		if m.slot(base) != &m.tlb[i] {
			t.Fatalf("step %d: entry %d holds %#x, which maps to another slot", step, i, base)
		}
		pg, owned := m.walk(base)
		if pg != e.pg || owned != (e.tag&tlbOwned != 0) {
			t.Fatalf("step %d: stale entry for %#x: cached (%p, owned=%v), walk (%p, owned=%v)",
				step, base, e.pg, e.tag&tlbOwned != 0, pg, owned)
		}
	}
	return live
}

// cachePair drives a real Memory and its reference model together.
type cachePair struct {
	m   *Memory
	ref *refMem
}

// TestPageCacheDifferential runs seeded random sequences of every
// operation that reads or rewrites the page table — Map, Unmap,
// Protect, loads, stores, Read, Write, fixed-width and C-string
// accesses, Malloc, Free, Clone, Freeze, Release, Zero and MmapFlush —
// on real Memories
// and on the flat-map model. Every returned byte and every *Fault must
// match, the cache must agree with a full page-table walk after every
// step, and the surviving Memories must dump exactly like their
// models. Addresses cluster on a few hot pages, including pages that
// alias one cache slot, so the cache hits, misses and evicts.
func TestPageCacheDifferential(t *testing.T) {
	prots := []Prot{ProtNone, ProtRead, ProtWrite, ProtRW}
	for seed := int64(1); seed <= 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			pairs := []*cachePair{{m: New(), ref: newRef()}}
			// Region bases plus pages tlbSize pages apart, which share
			// a slot with the base they are derived from.
			addrs := []Addr{stackTop - Addr(stackSize), heapBase, mmapBase, heapBase + tlbSize*PageSize}
			var recent []Addr
			randAddr := func() Addr {
				if len(recent) > 0 && rng.Intn(2) == 0 {
					return recent[rng.Intn(len(recent))] + Addr(rng.Intn(64)) - 32
				}
				base := addrs[rng.Intn(len(addrs))]
				if rng.Intn(4) == 0 {
					base += tlbSize * PageSize * Addr(rng.Intn(3))
				}
				a := base + Addr(rng.Intn(3*PageSize)) - PageSize
				if recent = append(recent, a); len(recent) > 6 {
					recent = recent[1:]
				}
				return a
			}
			same := func(step int, what string, b1, b2 []byte, f1, f2 *Fault) {
				t.Helper()
				if !sameFault(f1, f2) || string(b1) != string(b2) {
					t.Fatalf("step %d: %s diverged: %v / %v (bytes equal: %v)", step, what, f1, f2, string(b1) == string(b2))
				}
			}
			sawCached, sawRecycled := false, false

			const steps = 4000
			for step := 0; step < steps; step++ {
				pi := rng.Intn(len(pairs))
				p := pairs[pi]
				m, ref := p.m, p.ref
				switch op := rng.Intn(22); op {
				case 0: // map over an arbitrary range
					a, n, prot := randAddr(), rng.Intn(2*PageSize)+1, prots[rng.Intn(len(prots))]
					m.Map(a, n, prot)
					ref.mapRange(a, n, prot)
				case 1: // unmap
					a, n := randAddr(), rng.Intn(2*PageSize)+1
					m.Unmap(a, n)
					ref.unmap(a, n)
				case 2: // protect
					a, n, prot := randAddr(), rng.Intn(2*PageSize)+1, prots[rng.Intn(len(prots))]
					m.Protect(a, n, prot)
					ref.protect(a, n, prot)
				case 3, 4: // byte load
					a := randAddr()
					v1, f1 := m.LoadByte(a)
					b2, f2 := ref.read(a, 1)
					var v2 byte
					if f2 == nil {
						v2 = b2[0]
					}
					same(step, fmt.Sprintf("LoadByte(%#x)", a), []byte{v1}, []byte{v2}, f1, f2)
				case 5, 6: // byte store
					a, v := randAddr(), byte(rng.Intn(256))
					same(step, fmt.Sprintf("StoreByte(%#x)", a), nil, nil, m.StoreByte(a, v), ref.write(a, []byte{v}))
				case 7: // read, possibly spanning pages
					a, n := randAddr(), rng.Intn(PageSize+64)
					b1, f1 := m.Read(a, n)
					b2, f2 := ref.read(a, n)
					same(step, fmt.Sprintf("Read(%#x,%d)", a, n), b1, b2, f1, f2)
				case 8: // write, possibly spanning pages
					a := randAddr()
					data := make([]byte, rng.Intn(PageSize+64))
					rng.Read(data)
					same(step, fmt.Sprintf("Write(%#x,%d)", a, len(data)), nil, nil, m.Write(a, data), ref.write(a, data))
				case 9: // fixed-width loads, straddling near page ends
					a := randAddr()
					if rng.Intn(2) == 0 {
						a = a.PageBase() + PageSize - Addr(rng.Intn(9))
					}
					u16, f16 := m.ReadU16(a)
					b, f := ref.read(a, 2)
					same(step, fmt.Sprintf("ReadU16(%#x)", a), leBytes(uint64(u16), 2, f16), b, f16, f)
					u32, f32 := m.ReadU32(a)
					b, f = ref.read(a, 4)
					same(step, fmt.Sprintf("ReadU32(%#x)", a), leBytes(uint64(u32), 4, f32), b, f32, f)
					u64, f64 := m.ReadU64(a)
					b, f = ref.read(a, 8)
					same(step, fmt.Sprintf("ReadU64(%#x)", a), leBytes(u64, 8, f64), b, f64, f)
				case 10: // fixed-width stores, straddling near page ends
					a, v := randAddr(), rng.Uint64()
					if rng.Intn(2) == 0 {
						a = a.PageBase() + PageSize - Addr(rng.Intn(9))
					}
					var f1, f2 *Fault
					switch rng.Intn(3) {
					case 0:
						f1, f2 = m.WriteU16(a, uint16(v)), ref.write(a, leBytes(v, 2, nil))
					case 1:
						f1, f2 = m.WriteU32(a, uint32(v)), ref.write(a, leBytes(v, 4, nil))
					default:
						f1, f2 = m.WriteU64(a, v), ref.write(a, leBytes(v, 8, nil))
					}
					same(step, fmt.Sprintf("WriteU*(%#x)", a), nil, nil, f1, f2)
				case 11: // C strings
					a := randAddr()
					if rng.Intn(2) == 0 {
						s := fmt.Sprintf("s%d", rng.Intn(1000))
						same(step, fmt.Sprintf("WriteCString(%#x)", a), nil, nil,
							m.WriteCString(a, s), ref.write(a, append([]byte(s), 0)))
					}
					s1, f1 := m.CString(a)
					s2, f2 := ref.cstring(a)
					same(step, fmt.Sprintf("CString(%#x)", a), []byte(s1), []byte(s2), f1, f2)
				case 12: // protection query
					a := randAddr()
					pr, mapped := m.ProtAt(a)
					rp := ref.pages[a.PageBase()]
					if mapped != (rp != nil) || (rp != nil && pr != rp.prot) {
						t.Fatalf("step %d: ProtAt(%#x) = %v,%v; model %v", step, a, pr, mapped, rp)
					}
				case 13: // malloc
					n := rng.Intn(2 * PageSize)
					a1, err := m.Malloc(n)
					if err != nil {
						t.Fatal(err)
					}
					if a2 := ref.malloc(n); a1 != a2 {
						t.Fatalf("step %d: Malloc = %#x, model %#x", step, a1, a2)
					}
					addrs = append(addrs, a1)
				case 14: // free: a live block or a wild address
					a := randAddr()
					if rng.Intn(2) == 0 && len(ref.allocs) > 0 {
						for b := range ref.allocs {
							a = b
							break
						}
					}
					if m.Free(a) != ref.free(a) {
						t.Fatalf("step %d: Free(%#x) diverged", step, a)
					}
				case 15: // mmap a fresh region
					n, prot := rng.Intn(3*PageSize)+1, prots[rng.Intn(len(prots))]
					a1, err := m.MmapRegion(n, prot)
					if err != nil {
						t.Fatal(err)
					}
					if a2 := ref.mmap(n, prot); a1 != a2 {
						t.Fatalf("step %d: MmapRegion = %#x, model %#x", step, a1, a2)
					}
					addrs = append(addrs, a1)
				case 16: // freeze: turns the cache off for good
					m.Freeze()
					if m.tlbOn {
						t.Fatalf("step %d: Freeze left the cache on", step)
					}
				case 17: // fork; the parent is frozen by the clone
					if len(pairs) < 6 {
						pairs = append(pairs, &cachePair{m: m.Clone(), ref: ref.clone()})
						if m.tlbOn {
							t.Fatalf("step %d: a cloned Memory still writes its cache", step)
						}
						if len(pairs) < 6 && rng.Intn(2) == 0 {
							// A second child cloned into a recycled Memory
							// must be indistinguishable from a fresh clone,
							// here and for the rest of the walk.
							recycled, fresh := recycledClone(t, m, rng)
							if !reflect.DeepEqual(recycled, fresh) {
								t.Fatalf("step %d: a clone into a recycled Memory differs from a fresh clone", step)
							}
							fresh.Release()
							pairs = append(pairs, &cachePair{m: recycled, ref: ref.clone()})
							sawRecycled = true
						}
					}
				case 18, 19: // release a pair: its cached pages must fault
					if len(pairs) < 2 {
						continue
					}
					var probe []Addr
					for _, e := range m.tlb {
						if e.pg != nil {
							probe = append(probe, e.tag&^tlbOwned)
						}
					}
					m.Release()
					for _, a := range probe {
						want := &Fault{Addr: a, Access: AccessRead}
						if _, f := m.LoadByte(a); !sameFault(f, want) {
							t.Fatalf("step %d: LoadByte(%#x) after Release = %v, want unmapped fault", step, a, f)
						}
					}
					checkTLB(t, m, step)
					pairs = append(pairs[:pi], pairs[pi+1:]...)
					continue
				case 20: // reset pages to zeros
					a, n := randAddr(), rng.Intn(3*PageSize)+1
					m.Zero(a, n)
					ref.zero(a, n)
				case 21: // a filled mapping
					data := make([]byte, rng.Intn(3*PageSize))
					rng.Read(data)
					prot := prots[rng.Intn(len(prots))]
					a1, err := m.MmapFlush(data, prot)
					if err != nil {
						t.Fatal(err)
					}
					if a2 := ref.mmapFlush(data, prot); a1 != a2 {
						t.Fatalf("step %d: MmapFlush = %#x, model %#x", step, a1, a2)
					}
					addrs = append(addrs, a1)
				}
				if checkTLB(t, m, step) > 0 {
					sawCached = true
				}
			}
			if !sawCached {
				t.Fatal("the walk never populated a page cache; the differential proved nothing")
			}
			if !sawRecycled {
				t.Fatal("the walk never cloned into a recycled Memory")
			}
			for i, p := range pairs {
				checkTLB(t, p.m, steps)
				if got, want := dumpState(p.m), p.ref.dump(); got != want {
					t.Errorf("pair %d final state diverged:\nmemory:\n%s\nmodel:\n%s", i, got, want)
				}
			}
		})
	}
}

// recycledClone clones m twice: once into a Memory that lived a full
// life first — pages mapped, written and cached, heap and stack used,
// a trace attached — and was released, and once into a newly allocated
// Memory.
func recycledClone(t *testing.T, m *Memory, rng *rand.Rand) (recycled, fresh *Memory) {
	t.Helper()
	d := m.Clone()
	for i := 0; i < 1+rng.Intn(4); i++ {
		a, err := d.Malloc(rng.Intn(3 * PageSize))
		if err != nil {
			t.Fatal(err)
		}
		d.StoreByte(a, byte(rng.Intn(256)))
		d.LoadByte(a)
	}
	if _, err := d.MmapRegion(PageSize, ProtRead); err != nil {
		t.Fatal(err)
	}
	d.Stack().PushFrame(64)
	d.TraceID, d.SpanID = rng.Uint64(), rng.Uint64()
	d.Release()
	if recycled = m.Clone(); recycled != d {
		t.Fatal("Clone did not reuse the Memory released just before it")
	}
	for mems.Get() != nil {
	}
	return recycled, m.Clone()
}

// leBytes renders v's low n bytes little-endian, or nil when the load
// faulted (the model returns no bytes then either).
func leBytes(v uint64, n int, f *Fault) []byte {
	if f != nil {
		return nil
	}
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(v >> (8 * i))
	}
	return b
}

// TestReleasedMemoryFaultsThroughCache pins the Release half of the
// cache contract: a page the cache holds, owned or still shared with a
// template, must fault as unmapped once the Memory is released, and
// Release must drop every cached page reference so none stays
// reachable from a dead Memory.
func TestReleasedMemoryFaultsThroughCache(t *testing.T) {
	tpl := New()
	shared, err := tpl.Malloc(64)
	if err != nil {
		t.Fatal(err)
	}
	tpl.Freeze()
	m := tpl.Clone()
	own, err := m.Malloc(64)
	if err != nil {
		t.Fatal(err)
	}
	if f := m.StoreByte(own, 1); f != nil {
		t.Fatal(f)
	}
	if _, f := m.LoadByte(shared); f != nil {
		t.Fatal(f)
	}
	if !m.cached(own.PageBase(), m.lookup(own.PageBase())) || !m.cached(shared.PageBase(), m.lookup(shared.PageBase())) {
		t.Fatal("accessed pages are not cached; the test would prove nothing")
	}
	m.Release()
	for _, e := range m.tlb {
		if e.pg != nil {
			t.Fatalf("Release left page %#x in the cache", e.tag&^tlbOwned)
		}
	}
	for _, a := range []Addr{own, shared} {
		want := &Fault{Addr: a, Access: AccessRead}
		if _, f := m.LoadByte(a); !sameFault(f, want) {
			t.Errorf("LoadByte(%#x) after Release = %v, want %v", a, f, want)
		}
		if _, f := m.ReadU64(a); !sameFault(f, want) {
			t.Errorf("ReadU64(%#x) after Release = %v, want %v", a, f, want)
		}
		wantW := &Fault{Addr: a, Access: AccessWrite}
		if f := m.StoreByte(a, 2); !sameFault(f, wantW) {
			t.Errorf("StoreByte(%#x) after Release = %v, want %v", a, f, wantW)
		}
	}
	if v, f := tpl.LoadByte(shared); f != nil || v != 0 {
		t.Errorf("template byte = %d, %v after the child's release; want 0", v, f)
	}
}

// TestFixedWidthFaultsMatchRead: the allocation-free fixed-width
// accessors report exactly the *Fault the general Read/Write path does
// — in one page, straddling into an unmapped or protected page, and
// starting on one — so moving them off Read changes no fault address.
func TestFixedWidthFaultsMatchRead(t *testing.T) {
	m := New()
	rw, err := m.MmapRegion(PageSize, ProtRW)
	if err != nil {
		t.Fatal(err)
	}
	ro, err := m.MmapRegion(2*PageSize, ProtRW)
	if err != nil {
		t.Fatal(err)
	}
	m.Protect(ro+PageSize, PageSize, ProtRead) // rw page, then a read-only one
	wo, err := m.MmapRegion(PageSize, ProtWrite)
	if err != nil {
		t.Fatal(err)
	}
	var addrs []Addr
	for _, base := range []Addr{rw, ro, wo} {
		for _, off := range []Addr{0, 8, PageSize - 8, PageSize - 7, PageSize - 4, PageSize - 3, PageSize - 1, PageSize} {
			addrs = append(addrs, base+off, base-off)
		}
	}
	for _, a := range addrs {
		for _, n := range []int{2, 4, 8} {
			_, want := m.Read(a, n)
			var got *Fault
			switch n {
			case 2:
				_, got = m.ReadU16(a)
			case 4:
				_, got = m.ReadU32(a)
			default:
				_, got = m.ReadU64(a)
			}
			if !sameFault(got, want) {
				t.Errorf("ReadU%d(%#x) fault = %v, Read's = %v", 8*n, a, got, want)
			}
			c := m.Clone()
			want = c.Write(a, make([]byte, n))
			c.Release()
			c = m.Clone()
			switch n {
			case 2:
				got = c.WriteU16(a, 0)
			case 4:
				got = c.WriteU32(a, 0)
			default:
				got = c.WriteU64(a, 0)
			}
			c.Release()
			if !sameFault(got, want) {
				t.Errorf("WriteU%d(%#x) fault = %v, Write's = %v", 8*n, a, got, want)
			}
		}
	}
}

// TestForkedAccessorsAllocateNothing pins the allocation diet of the
// per-test access path: on a forked Memory, byte and fixed-width loads
// and stores — in one page and straddling two — allocate nothing once
// the pages they touch are private.
func TestForkedAccessorsAllocateNothing(t *testing.T) {
	tpl := New()
	p, err := tpl.Malloc(2 * PageSize)
	if err != nil {
		t.Fatal(err)
	}
	tpl.Freeze()
	m := tpl.Clone()
	defer m.Release()
	straddle := p + PageSize - 3
	for name, fn := range map[string]func(){
		"LoadByte":  func() { m.LoadByte(p + 5) },
		"StoreByte": func() { m.StoreByte(p+5, 7) },
		"ReadU32":   func() { m.ReadU32(p + 8) },
		"ReadU64":   func() { m.ReadU64(p + 16) },
		"WriteU64":  func() { m.WriteU64(p+16, 0x0102030405060708) },
		"ReadU64/straddle": func() {
			if _, f := m.ReadU64(straddle); f != nil {
				t.Fatal(f)
			}
		},
		"WriteU64/straddle": func() {
			if f := m.WriteU64(straddle, 1); f != nil {
				t.Fatal(f)
			}
		},
	} {
		if allocs := testing.AllocsPerRun(200, fn); allocs != 0 {
			t.Errorf("%s allocates %v per call on a forked Memory, want 0", name, allocs)
		}
	}
}
