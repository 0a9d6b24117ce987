package wrapper

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"healers/internal/cmem"
	"healers/internal/csim"
)

// The byte-at-a-time string walks the wrapper ran before its scans moved
// a page segment at a time. They are the reference model the segment
// scans are held to: same verdict, same repair, same ip.work.

func (ip *Interposer) refCheckCString(addr cmem.Addr, writable bool) bool {
	limit := ip.maxStrlen
	if !ip.opts.Stateless {
		if base, size, ok := ip.heapLookup(addr); ok {
			limit = int(base + cmem.Addr(size) - addr)
		}
	}
	for i := 0; i < limit; i++ {
		ip.work++
		a := addr + cmem.Addr(i)
		if a.PageBase() == a || i == 0 {
			prot, mapped := ip.p.Mem.ProtAt(a)
			if !mapped || prot&cmem.ProtRead == 0 {
				return false
			}
			if writable && prot&cmem.ProtWrite == 0 {
				return false
			}
		}
		b, f := ip.p.Mem.LoadByte(a)
		if f != nil {
			return false
		}
		if b == 0 {
			return true
		}
	}
	return false
}

func (ip *Interposer) refCheckBoundedString(addr cmem.Addr, bound int) bool {
	if bound < 0 {
		return false
	}
	if bound > ip.maxStrlen {
		bound = ip.maxStrlen
	}
	for i := 0; i < bound; i++ {
		ip.work++
		b, f := ip.p.Mem.LoadByte(addr + cmem.Addr(i))
		if f != nil {
			return false
		}
		if b == 0 {
			return true
		}
	}
	return true
}

func (ip *Interposer) refStrlen(addr cmem.Addr) (int, bool) {
	if addr == 0 {
		return 0, false
	}
	for i := 0; i < ip.maxStrlen; i++ {
		ip.work++
		b, f := ip.p.Mem.LoadByte(addr + cmem.Addr(i))
		if f != nil {
			return 0, false
		}
		if b == 0 {
			return i, true
		}
	}
	return 0, false
}

func (ip *Interposer) refHealString(args []uint64, i int, bound int, writable bool) (string, bool) {
	addr := cmem.Addr(args[i])
	if bound <= 0 || bound > ip.maxStrlen {
		bound = ip.maxStrlen
	}
	if addr != 0 {
		limit := bound
		if !ip.opts.Stateless {
			if base, size, ok := ip.heapLookup(addr); ok {
				if l := int(int64(base) + int64(size) - int64(addr)); l < limit {
					limit = l
				}
			}
		}
		e := 0
		for e < limit {
			ip.work++
			a := addr + cmem.Addr(e)
			b, f := ip.p.Mem.LoadByte(a)
			if f != nil {
				break
			}
			if writable {
				if prot, mapped := ip.p.Mem.ProtAt(a); !mapped || prot&cmem.ProtWrite == 0 {
					break
				}
			}
			if b == 0 {
				return "truncate", true
			}
			e++
		}
		k := e - 1
		for k >= 0 {
			a := addr + cmem.Addr(k)
			if prot, mapped := ip.p.Mem.ProtAt(a); mapped && prot&cmem.ProtWrite != 0 {
				break
			}
			k = int(int64(a.PageBase())-int64(addr)) - 1
		}
		if k >= 0 {
			if f := ip.p.Mem.StoreByte(addr+cmem.Addr(k), 0); f == nil {
				return "truncate", true
			}
		}
	}
	chunk, ok := ip.sinkChunk(cmem.PageSize)
	if !ok {
		return "", false
	}
	n := 0
	if addr != 0 {
		for n < cmem.PageSize-1 {
			ip.work++
			b, f := ip.p.Mem.LoadByte(addr + cmem.Addr(n))
			if f != nil || b == 0 {
				break
			}
			if f := ip.p.Mem.StoreByte(chunk+cmem.Addr(n), b); f != nil {
				return "", false
			}
			n++
		}
	}
	args[i] = uint64(chunk)
	if n > 0 {
		return "copy-to-sink", true
	}
	return "redirect-sink", true
}

// scanScene is one string placement for the differential: build lays
// out a fresh process and returns the string's address. bound is the
// bounded-string and heal bound, maxStrlen the interposer's walk cap
// (0 keeps the default).
type scanScene struct {
	name      string
	bound     int
	maxStrlen int
	build     func(w *scanWorld) cmem.Addr
}

// scanWorld is one scene's process and interposer, and the pages the
// scene mapped (touched).
type scanWorld struct {
	t       *testing.T
	p       *csim.Process
	ip      *Interposer
	touched []cmem.Addr
}

// region maps pages with prot and fills them with 'a'..'z' so no byte
// is NUL unless a scene plants one.
func (w *scanWorld) region(pages int, prot cmem.Prot) cmem.Addr {
	a, err := w.p.Mem.MmapRegion(pages*cmem.PageSize, cmem.ProtRW)
	if err != nil {
		w.t.Fatal(err)
	}
	w.mapped(a, pages*cmem.PageSize)
	fill := make([]byte, pages*cmem.PageSize)
	for i := range fill {
		fill[i] = 'a' + byte(i%26)
	}
	w.write(a, fill)
	w.p.Mem.Protect(a, pages*cmem.PageSize, prot)
	return a
}

func (w *scanWorld) write(a cmem.Addr, b []byte) {
	if f := w.p.Mem.Write(a, b); f != nil {
		w.t.Fatal(f)
	}
}

// heap allocates n bytes the interposer tracks, filled without a NUL.
func (w *scanWorld) heap(n int) cmem.Addr {
	a, err := w.p.Mem.Malloc(n)
	if err != nil {
		w.t.Fatal(err)
	}
	w.mapped(a, max(n, 1))
	w.write(a, []byte(strings.Repeat("h", n)))
	w.ip.trackAlloc(a, n)
	return a
}

// mapped records the pages of [a, a+n) for dump.
func (w *scanWorld) mapped(a cmem.Addr, n int) {
	for pg := a.PageBase(); pg < a+cmem.Addr(n); pg += cmem.PageSize {
		w.touched = append(w.touched, pg)
	}
}

// dump renders the protection and readable bytes of every page the
// scene mapped and of the sink region.
func (w *scanWorld) dump() string {
	pages := w.touched
	for off := 0; w.ip.sinkBase != 0 && off < sinkCap; off += cmem.PageSize {
		pages = append(pages, w.ip.sinkBase+cmem.Addr(off))
	}
	var b strings.Builder
	for _, a := range pages {
		prot, mapped := w.p.Mem.ProtAt(a)
		fmt.Fprintf(&b, "%#x %v %v ", uint64(a), mapped, prot)
		if seg, _, _ := w.p.Mem.Segment(a); seg != nil {
			fmt.Fprintf(&b, "%x", seg)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// scanScenes are the named edges plus a seeded random sweep over
// protections, terminator positions, start offsets and caps.
func scanScenes() []scanScene {
	P := cmem.PageSize
	s := []scanScene{
		{name: "terminated-short", bound: 64, build: func(w *scanWorld) cmem.Addr {
			a := w.region(1, cmem.ProtRW)
			w.write(a+10, []byte{0})
			return a
		}},
		{name: "guard-mid-string", bound: 3 * P, build: func(w *scanWorld) cmem.Addr {
			a := w.region(3, cmem.ProtRW)
			w.p.Mem.Unmap(a+cmem.Addr(P), P)
			return a + 100
		}},
		{name: "guard-at-page-boundary", bound: 3 * P, build: func(w *scanWorld) cmem.Addr {
			return w.region(2, cmem.ProtRW) + cmem.Addr(2*P-1)
		}},
		{name: "starts-on-guard", bound: 8, build: func(w *scanWorld) cmem.Addr {
			return w.region(1, cmem.ProtRW) + cmem.Addr(P)
		}},
		{name: "read-only-second-page", bound: 2 * P, build: func(w *scanWorld) cmem.Addr {
			a := w.region(2, cmem.ProtRW)
			w.write(a+cmem.Addr(P+20), []byte{0})
			w.p.Mem.Protect(a+cmem.Addr(P), P, cmem.ProtRead)
			return a + 4000
		}},
		{name: "read-only-terminated", bound: 2 * P, build: func(w *scanWorld) cmem.Addr {
			a := w.region(2, cmem.ProtRW)
			w.write(a+cmem.Addr(P+20), []byte{0})
			w.p.Mem.Protect(a, 2*P, cmem.ProtRead)
			return a + 4000
		}},
		{name: "no-access-page", bound: 2 * P, build: func(w *scanWorld) cmem.Addr {
			a := w.region(2, cmem.ProtRW)
			w.p.Mem.Protect(a+cmem.Addr(P), P, cmem.ProtNone)
			return a + 4090
		}},
		{name: "write-only-page", bound: 2 * P, build: func(w *scanWorld) cmem.Addr {
			return w.region(1, cmem.ProtWrite) + 5
		}},
		{name: "heap-unterminated", bound: 1000, build: func(w *scanWorld) cmem.Addr {
			return w.heap(64)
		}},
		{name: "heap-interior", bound: 1000, build: func(w *scanWorld) cmem.Addr {
			return w.heap(200) + 150
		}},
		{name: "heap-terminated", bound: 1000, build: func(w *scanWorld) cmem.Addr {
			a := w.heap(64)
			w.write(a+30, []byte{0})
			return a
		}},
		{name: "heap-zero-size-limit", bound: 1000, build: func(w *scanWorld) cmem.Addr {
			return w.heap(0)
		}},
		{name: "heap-bound-zero", bound: 0, build: func(w *scanWorld) cmem.Addr {
			return w.heap(64)
		}},
		{name: "bound-negative", bound: -1, build: func(w *scanWorld) cmem.Addr {
			return w.region(1, cmem.ProtRW) + 7
		}},
		{name: "maxstrlen-mid-page", bound: 3 * P, maxStrlen: P + 777, build: func(w *scanWorld) cmem.Addr {
			return w.region(3, cmem.ProtRW) + 300
		}},
		{name: "maxstrlen-at-terminator", bound: 3 * P, maxStrlen: 500, build: func(w *scanWorld) cmem.Addr {
			a := w.region(1, cmem.ProtRW)
			w.write(a+500, []byte{0})
			return a
		}},
		{name: "nul-first-byte-of-page", bound: 3 * P, build: func(w *scanWorld) cmem.Addr {
			a := w.region(2, cmem.ProtRW)
			w.write(a+cmem.Addr(P), []byte{0})
			return a + 9
		}},
		{name: "nul-last-byte-of-page", bound: 3 * P, build: func(w *scanWorld) cmem.Addr {
			a := w.region(2, cmem.ProtRW)
			w.write(a+cmem.Addr(P-1), []byte{0})
			return a + 9
		}},
		{name: "nul-at-start", bound: 3 * P, build: func(w *scanWorld) cmem.Addr {
			a := w.region(1, cmem.ProtRW)
			w.write(a, []byte{0})
			w.p.Mem.Protect(a, P, cmem.ProtRead)
			return a
		}},
		{name: "wild", bound: 16, build: func(w *scanWorld) cmem.Addr { return 0xdead0000 }},
		{name: "null", bound: 16, build: func(w *scanWorld) cmem.Addr { return 0 }},
		{name: "top-of-address-space", bound: 16, build: func(w *scanWorld) cmem.Addr { return ^cmem.Addr(0) - 2 }},
		// A read-only prefix in the sink page before the next chunk: the
		// copy-to-sink walk runs into the chunk it is filling.
		{name: "sink-self-overlap", bound: 3 * P, build: func(w *scanWorld) cmem.Addr {
			first, ok := w.ip.sinkChunk(P)
			if !ok {
				w.t.Fatal("no sink")
			}
			w.write(first, []byte(strings.Repeat("q", P)))
			w.write(first+cmem.Addr(P), []byte(strings.Repeat("r", P)))
			w.p.Mem.Protect(first, P, cmem.ProtRead)
			return first + cmem.Addr(P-10)
		}},
	}
	rng := rand.New(rand.NewSource(22))
	prots := []cmem.Prot{cmem.ProtRW, cmem.ProtRW, cmem.ProtRead, cmem.ProtWrite, cmem.ProtNone}
	for i := 0; i < 60; i++ {
		pages := 1 + rng.Intn(3)
		layout := make([]cmem.Prot, pages)
		unmap := make([]bool, pages)
		for k := range layout {
			layout[k] = prots[rng.Intn(len(prots))]
			unmap[k] = k > 0 && rng.Intn(6) == 0
		}
		var nuls []int
		for k := rng.Intn(3); k > 0; k-- {
			nuls = append(nuls, rng.Intn(pages*P))
		}
		start := rng.Intn(pages * P)
		onHeap := rng.Intn(4) == 0
		heapSize := rng.Intn(3 * P)
		bound := rng.Intn(2*P) - 8
		maxStrlen := 0
		if rng.Intn(3) == 0 {
			maxStrlen = 1 + rng.Intn(2*P)
		}
		s = append(s, scanScene{name: fmt.Sprintf("random%d", i), bound: bound, maxStrlen: maxStrlen,
			build: func(w *scanWorld) cmem.Addr {
				if onHeap {
					a := w.heap(heapSize)
					for _, n := range nuls {
						if n < heapSize {
							w.write(a+cmem.Addr(n), []byte{0})
						}
					}
					return a + cmem.Addr(min(start, heapSize))
				}
				a := w.region(pages, cmem.ProtRW)
				for _, n := range nuls {
					w.write(a+cmem.Addr(n), []byte{0})
				}
				for k, prot := range layout {
					page := a + cmem.Addr(k*P)
					w.p.Mem.Protect(page, P, prot)
					if unmap[k] {
						w.p.Mem.Unmap(page, P)
					}
				}
				return a + cmem.Addr(start)
			}})
	}
	return s
}

// TestScanSegmentDifferential holds checkCString, checkBoundedString,
// strlen and healString to their byte-at-a-time reference walks over
// every scene: the same verdict, length, repair action and repaired
// argument, the same ip.work, and the same bytes in every mapped page
// afterwards (a planted NUL, the sink chunk's copy).
func TestScanSegmentDifferential(t *testing.T) {
	type op struct {
		name string
		prod func(w *scanWorld, addr cmem.Addr, sc scanScene) string
		ref  func(w *scanWorld, addr cmem.Addr, sc scanScene) string
	}
	heal := func(writable bool, f func(ip *Interposer, args []uint64, bound int, writable bool) (string, bool)) func(*scanWorld, cmem.Addr, scanScene) string {
		return func(w *scanWorld, addr cmem.Addr, sc scanScene) string {
			args := []uint64{uint64(addr)}
			action, ok := f(w.ip, args, sc.bound, writable)
			return fmt.Sprintf("%s %v %#x", action, ok, args[0])
		}
	}
	ops := []op{
		{"checkCString",
			func(w *scanWorld, a cmem.Addr, _ scanScene) string { return fmt.Sprint(w.ip.checkCString(a, false)) },
			func(w *scanWorld, a cmem.Addr, _ scanScene) string { return fmt.Sprint(w.ip.refCheckCString(a, false)) }},
		{"checkCString-writable",
			func(w *scanWorld, a cmem.Addr, _ scanScene) string { return fmt.Sprint(w.ip.checkCString(a, true)) },
			func(w *scanWorld, a cmem.Addr, _ scanScene) string { return fmt.Sprint(w.ip.refCheckCString(a, true)) }},
		{"checkBoundedString",
			func(w *scanWorld, a cmem.Addr, sc scanScene) string {
				return fmt.Sprint(w.ip.checkBoundedString(a, sc.bound))
			},
			func(w *scanWorld, a cmem.Addr, sc scanScene) string {
				return fmt.Sprint(w.ip.refCheckBoundedString(a, sc.bound))
			}},
		{"strlen",
			func(w *scanWorld, a cmem.Addr, _ scanScene) string { return fmt.Sprint(w.ip.strlen(a)) },
			func(w *scanWorld, a cmem.Addr, _ scanScene) string { return fmt.Sprint(w.ip.refStrlen(a)) }},
		{"healString",
			heal(false, func(ip *Interposer, args []uint64, b int, wr bool) (string, bool) {
				return ip.healString(args, 0, b, wr)
			}),
			heal(false, func(ip *Interposer, args []uint64, b int, wr bool) (string, bool) {
				return ip.refHealString(args, 0, b, wr)
			})},
		{"healString-writable",
			heal(true, func(ip *Interposer, args []uint64, b int, wr bool) (string, bool) {
				return ip.healString(args, 0, b, wr)
			}),
			heal(true, func(ip *Interposer, args []uint64, b int, wr bool) (string, bool) {
				return ip.refHealString(args, 0, b, wr)
			})},
	}
	world := func(sc scanScene, stateless bool) (*scanWorld, cmem.Addr) {
		opts := healOpts()
		opts.Stateless = stateless
		p := csim.NewProcess(nil)
		w := &scanWorld{t: t, p: p, ip: Attach(p, nil, nil, opts)}
		if sc.maxStrlen > 0 {
			w.ip.maxStrlen = sc.maxStrlen
		}
		return w, sc.build(w)
	}
	sawWork, sawCopy, sawSelfOverlap := 0, 0, false
	for _, sc := range scanScenes() {
		for _, stateless := range []bool{false, true} {
			for _, o := range ops {
				prod, addr := world(sc, stateless)
				ref, raddr := world(sc, stateless)
				if addr != raddr {
					t.Fatalf("%s: scene not reproducible (%#x vs %#x)", sc.name, addr, raddr)
				}
				got, want := o.prod(prod, addr, sc), o.ref(ref, addr, sc)
				where := fmt.Sprintf("%s/%s stateless=%v at %#x", sc.name, o.name, stateless, addr)
				if got != want {
					t.Errorf("%s: result %q, reference %q", where, got, want)
				}
				if prod.ip.work != ref.ip.work {
					t.Errorf("%s: work %d, reference %d", where, prod.ip.work, ref.ip.work)
				}
				if g, r := prod.dump(), ref.dump(); g != r {
					t.Errorf("%s: memory differs from the reference after the call", where)
				}
				if prod.ip.work > 1 {
					sawWork++
				}
				if strings.HasPrefix(got, "copy-to-sink") {
					sawCopy++
					if sc.name == "sink-self-overlap" {
						sawSelfOverlap = true
					}
				}
				prod.p.Release()
				ref.p.Release()
			}
		}
	}
	if sawWork < 100 || sawCopy < 5 || !sawSelfOverlap {
		t.Errorf("scenes too tame: %d multi-byte walks, %d sink copies, self-overlap copied: %v", sawWork, sawCopy, sawSelfOverlap)
	}
}
