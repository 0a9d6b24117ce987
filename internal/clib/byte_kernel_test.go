package clib

import (
	"math/rand"
	"testing"
	"time"

	"healers/internal/cmem"
	"healers/internal/csim"
)

// byteScenePages is the size of a byte scene's region, in pages. The
// region sits between guard gaps, so an operand that runs off either
// end faults.
const byteScenePages = 4

// byteSceneSpan is the range of operand offsets a scene may pick: the
// region plus 64 bytes of the trailing guard gap.
const byteSceneSpan = byteScenePages*cmem.PageSize + 64

// byteScene is one call of a byte-kernel function on a seeded region:
// byteScenePages pages, each with its own protection, holding a
// repeating pattern with NULs placed by the scene.
type byteScene struct {
	fn string
	// off is the first operand's offset from the region's start; the
	// second operand lies dist bytes from it (either way), wrapped into
	// the span. An offset of noPtr makes the operand a NULL pointer.
	off  uint16
	dist int16
	// prots holds each page's protection, two bits per page: none,
	// R, W or RW.
	prots uint8
	n     uint64
	c     byte
	// nuls are offsets of NUL bytes; period is the pattern's period,
	// so operands a multiple of it apart compare equal until a NUL or
	// the byte at diff, which differs from the pattern.
	nuls   [2]uint16
	period uint8
	diff   uint16
	// budget is the step budget plus one; 0 keeps the default budget.
	budget uint32
}

// noPtr is the operand offset that stands for a NULL pointer.
const noPtr = 0xffff

// byteArgs lists what each function takes: 'p' a pointer operand, 'c'
// the search or fill byte, 'n' the length.
var byteArgs = map[string]string{
	"memcpy": "ppn", "memmove": "ppn", "memcmp": "ppn", "memset": "pcn",
	"memchr": "pcn", "strcpy": "pp", "strncpy": "ppn", "strcat": "pp",
	"strncat": "ppn", "strcmp": "pp", "strncmp": "ppn", "strlen": "p",
	"strchr": "pc", "strrchr": "pc", "strxfrm": "ppn", "strpbrk": "pp",
	"strspn": "pp", "strcspn": "pp", "strtok": "pp",
}

// build makes the scene's process and the call's arguments.
func (sc byteScene) build(t testing.TB) (*csim.Process, []uint64) {
	p := csim.NewProcess(nil)
	base, err := p.Mem.MmapRegion(byteScenePages*cmem.PageSize, cmem.ProtRW)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, byteScenePages*cmem.PageSize)
	period := int(sc.period%64) + 1
	for i := range data {
		data[i] = 'a' + byte(i%period)
	}
	data[int(sc.diff)%len(data)] = 'Z'
	for _, z := range sc.nuls {
		if int(z) < len(data) {
			data[z] = 0
		}
	}
	if f := p.Mem.Write(base, data); f != nil {
		t.Fatal(f)
	}
	for pg := 0; pg < byteScenePages; pg++ {
		prot := cmem.Prot((sc.prots >> (2 * pg)) & 3 << 1)
		p.Mem.Protect(base+cmem.Addr(pg*cmem.PageSize), cmem.PageSize, prot)
	}
	if sc.budget > 0 {
		p.SetStepBudget(int(sc.budget - 1))
	}
	operand := func(off int) uint64 {
		if off == noPtr {
			return 0
		}
		return uint64(base) + uint64(off%byteSceneSpan)
	}
	second := int(sc.off) + int(sc.dist)
	if sc.off == noPtr {
		second = int(sc.dist) & 0x7fff
	}
	second = (second%byteSceneSpan + byteSceneSpan) % byteSceneSpan
	ptrs := []uint64{operand(int(sc.off)), operand(second)}
	var a []uint64
	for _, k := range byteArgs[sc.fn] {
		switch k {
		case 'p':
			a, ptrs = append(a, ptrs[0]), ptrs[1:]
		case 'c':
			a = append(a, uint64(sc.c))
		case 'n':
			a = append(a, sc.n)
		}
	}
	return p, a
}

// run compares the scene's call through the production Impl and the
// reference model and returns the reference outcome.
func (sc byteScene) run(t testing.TB, lib *Library) csim.OutcomeKind {
	t.Helper()
	p, a := sc.build(t)
	defer p.Release()
	if d := DiffBytes(lib.MustLookup(sc.fn).Impl, p, sc.fn, a); d != "" {
		t.Errorf("%+v: %s", sc, d)
	}
	c := p.Fork()
	defer c.Release()
	return c.Run(func() uint64 { return RefByteFuncs[sc.fn](c, a) }).Kind
}

// randomByteScene draws a scene from rng: operands near page ends and
// each other, NULs near the operands, mostly readable and writable
// pages, lengths from 0 to past the region, and budgets that often run
// out mid-page.
func randomByteScene(rng *rand.Rand, fn string) byteScene {
	near := func(at int) uint16 {
		return uint16((at + rng.Intn(200) - 100 + byteSceneSpan) % byteSceneSpan)
	}
	sc := byteScene{
		fn:     fn,
		off:    near(rng.Intn(byteScenePages+1) * cmem.PageSize),
		dist:   int16(rng.Intn(2*cmem.PageSize) - cmem.PageSize),
		c:      "aZ\x00b"[rng.Intn(4)],
		period: uint8(rng.Intn(8)),
		diff:   uint16(rng.Intn(byteScenePages * cmem.PageSize)),
	}
	if rng.Intn(4) == 0 {
		sc.dist = int16(rng.Intn(40) - 20) // operands overlap
	}
	for pg := 0; pg < byteScenePages; pg++ {
		prot := uint8(3)
		if rng.Intn(5) == 0 {
			prot = uint8(rng.Intn(4))
		}
		sc.prots |= prot << (2 * pg)
	}
	for i := range sc.nuls {
		sc.nuls[i] = near(int(sc.off) + rng.Intn(3*cmem.PageSize))
	}
	switch rng.Intn(6) {
	case 0:
		sc.n = []uint64{0, 1, 1 << 63, ^uint64(0)}[rng.Intn(4)]
	case 1:
		sc.n = uint64(rng.Intn(3 * byteScenePages * cmem.PageSize))
	default:
		sc.n = uint64(rng.Intn(2 * cmem.PageSize))
	}
	if rng.Intn(3) == 0 {
		sc.budget = uint32(1 + rng.Intn(3*cmem.PageSize))
	}
	if rng.Intn(20) == 0 {
		sc.off = noPtr
	}
	return sc
}

// fixedByteScenes are the edge cases every function runs: lengths 0,
// 2^63 and 2^64-1; a NUL at the first byte, a page's last byte and
// across a page boundary; operands overlapping by one byte in each
// direction and coinciding; a guard page, an unreadable, an unwritable
// and an inaccessible page met at a page boundary; budgets of 0, one
// that runs out on the first byte of a page, in the middle of a page,
// and one exactly spent.
func fixedByteScenes(fn string) []byteScene {
	const pg = cmem.PageSize
	rw := uint8(0xff)
	plain := byteScene{fn: fn, off: pg - 300, dist: 3 * pg / 2, prots: rw, n: 2 * pg, c: 'd', nuls: [2]uint16{2*pg + 100, 3*pg + 500}, period: 7, diff: 3*pg + 800}
	var out []byteScene
	add := func(edit func(sc *byteScene)) {
		sc := plain
		edit(&sc)
		out = append(out, sc)
	}
	add(func(sc *byteScene) {})
	for _, n := range []uint64{0, 1, 1 << 63, 1<<63 + 1, ^uint64(0)} {
		add(func(sc *byteScene) { sc.n = n })
	}
	add(func(sc *byteScene) { sc.nuls[0] = sc.off })
	add(func(sc *byteScene) { sc.nuls[0] = 2*pg - 1 })
	add(func(sc *byteScene) { sc.nuls[0] = 2 * pg })
	add(func(sc *byteScene) { sc.nuls = [2]uint16{noPtr, noPtr} }) // no NUL before the guard
	for _, d := range []int16{1, -1, 0, 2, 9, -9, 4095, -4095} {
		add(func(sc *byteScene) { sc.dist = d })
		add(func(sc *byteScene) { sc.dist, sc.period = d, 0 })
	}
	add(func(sc *byteScene) { sc.dist, sc.period, sc.diff = 7, 6, 2*pg+3 })
	for _, prot := range []uint8{0, 1, 2} {
		add(func(sc *byteScene) { sc.prots = rw&^(3<<2) | prot<<2 })
		add(func(sc *byteScene) { sc.prots = rw&^(3<<4) | prot<<4 })
	}
	add(func(sc *byteScene) { sc.off = 4*pg - 10 })
	add(func(sc *byteScene) { sc.off = noPtr })
	add(func(sc *byteScene) { sc.dist = 5 * pg }) // the second operand in the guard gap
	for _, budget := range []uint32{1, 2, 301, 1001, 2*pg + 1, 2*pg + 2} {
		add(func(sc *byteScene) { sc.budget = budget })
	}
	add(func(sc *byteScene) { sc.c = 0 })
	add(func(sc *byteScene) { sc.c = 'Z' })
	return out
}

// TestByteKernelDifferential runs every byte-kernel function through
// its production Impl and the per-byte reference model on forks of
// fixed edge scenes and seeded random ones; byteObservation's every
// line must match, and the scenes must reach a return, a fault and a
// hang.
func TestByteKernelDifferential(t *testing.T) {
	lib := New()
	rng := rand.New(rand.NewSource(30))
	for _, fn := range RefByteNames {
		t.Run(fn, func(t *testing.T) {
			kinds := map[csim.OutcomeKind]int{}
			scenes := fixedByteScenes(fn)
			for i := 0; i < 150; i++ {
				scenes = append(scenes, randomByteScene(rng, fn))
			}
			for _, sc := range scenes {
				kinds[sc.run(t, lib)]++
			}
			if kinds[csim.OutcomeReturn] == 0 || kinds[csim.OutcomeSegfault] == 0 || kinds[csim.OutcomeHang] == 0 {
				t.Errorf("outcomes %v: the scenes miss a return, a fault or a hang", kinds)
			}
		})
	}
}

// FuzzByteKernels compares a production Impl with its byte reference
// on two forks of one process, over every observable byteObservation
// renders. The fuzzer picks the function, the first operand's offset,
// the second's distance from it, each page's protection, n, the search
// or fill byte, the NUL positions and the step budget. The seeds run
// under go test: loops that load before they step (strlen, and the end
// scans of strcat and strncat) and loops that step first (all others),
// each with a budget that runs out in the middle of a page.
func FuzzByteKernels(f *testing.F) {
	const pg = cmem.PageSize
	for i, fn := range RefByteNames {
		f.Add(uint8(i), uint16(pg-300), int16(pg+700), uint8(0xff), uint64(2*pg), byte('d'), uint16(2*pg+100), uint16(3*pg+500), uint8(7), uint16(3*pg+800), uint32(0))
		f.Add(uint8(i), uint16(pg-300), int16(pg+700), uint8(0xff), uint64(2*pg), byte('d'), uint16(2*pg+100), uint16(3*pg+500), uint8(7), uint16(3*pg+800), uint32(1500))
		f.Add(uint8(i), uint16(100), int16(3), uint8(0xf3), ^uint64(0), byte(0), uint16(noPtr), uint16(noPtr), uint8(0), uint16(9000), uint32(0))
		if fn == "strxfrm" {
			f.Add(uint8(i), uint16(10), int16(2000), uint8(0xff), ^uint64(0), byte(0), uint16(2100), uint16(noPtr), uint8(3), uint16(9000), uint32(0))
		}
	}
	lib := New()
	f.Fuzz(func(t *testing.T, fn uint8, off uint16, dist int16, prots uint8, n uint64, c byte, nul1, nul2 uint16, period uint8, diff uint16, budget uint32) {
		sc := byteScene{
			fn: RefByteNames[int(fn)%len(RefByteNames)], off: off, dist: dist, prots: prots,
			n: n, c: c, nuls: [2]uint16{nul1, nul2}, period: period, diff: diff, budget: budget % (1 << 20),
		}
		if sc.off != noPtr {
			sc.off %= byteSceneSpan
		}
		sc.run(t, lib)
	})
}

// byteKernelWorld is a process holding two 5-page regions of distinct
// bytes, no NUL among them, for the allocation and speed gates.
func byteKernelWorld(t testing.TB) (p *csim.Process, a, b cmem.Addr) {
	p = csim.NewProcess(nil)
	data := make([]byte, 5*cmem.PageSize)
	for i := range data {
		data[i] = byte(i%250) + 1
	}
	for _, r := range []*cmem.Addr{&a, &b} {
		at, err := p.Mem.MmapRegion(len(data), cmem.ProtRW)
		if err != nil {
			t.Fatal(err)
		}
		if f := p.Mem.Write(at, data); f != nil {
			t.Fatal(f)
		}
		*r = at
	}
	return p, a, b
}

// byteKernelCalls are the 16 KiB calls the gates run: every operand
// starts mid-page, so each call crosses four or five page boundaries
// per operand.
func byteKernelCalls(a, b cmem.Addr) map[string][]uint64 {
	const n = 16 << 10
	dst, src := uint64(a+100), uint64(b+3000)
	return map[string][]uint64{
		"memcpy":  {dst, src, n},
		"memmove": {uint64(a + 3000), uint64(a + 100), n},
		"memset":  {dst, 'x', n},
		"memcmp":  {uint64(a + 100), uint64(b + 100), n},
		"strncpy": {dst, src, n},
	}
}

// TestByteKernelAllocations: a 16 KiB memcpy, memmove, memset, memcmp
// and strncpy across page boundaries, in a forked process, allocate
// nothing.
func TestByteKernelAllocations(t *testing.T) {
	lib := New()
	p, a, b := byteKernelWorld(t)
	defer p.Release()
	c := p.Fork()
	defer c.Release()
	c.SetStepBudget(1 << 62) // the calls run outside Run, which resets the count
	for fn, args := range byteKernelCalls(a, b) {
		impl := lib.MustLookup(fn).Impl
		if allocs := testing.AllocsPerRun(20, func() { impl(c, args) }); allocs != 0 {
			t.Errorf("%s of 16 KiB allocates %v per call in a fork, want 0", fn, allocs)
		}
	}
}

// BenchmarkByteKernels times a 16 KiB memcpy and memset, each on a
// fresh fork, through the production Impl and the per-byte reference,
// and fails when a kernel takes more than 0.25× its reference: the
// ratio is measured within one run, so it holds on any machine.
func BenchmarkByteKernels(b *testing.B) {
	lib := New()
	p, x, y := byteKernelWorld(b)
	defer p.Release()
	calls := byteKernelCalls(x, y)
	timed := func(impl Impl, a []uint64) time.Duration {
		best := time.Duration(1 << 62)
		for r := 0; r < 5; r++ {
			c := p.Fork()
			start := time.Now()
			if o := c.Run(func() uint64 { return impl(c, a) }); o.Kind != csim.OutcomeReturn {
				b.Fatalf("%v", o)
			}
			best = min(best, time.Since(start))
			c.Release()
		}
		return best
	}
	for _, fn := range []string{"memcpy", "memset"} {
		b.Run(fn, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				kernel := timed(lib.MustLookup(fn).Impl, calls[fn])
				ref := timed(RefByteFuncs[fn], calls[fn])
				us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
				ratio := us(kernel) / us(ref)
				b.ReportMetric(us(kernel), "kernel-us")
				b.ReportMetric(us(ref), "byte-us")
				b.ReportMetric(ratio, "ratio")
				if ratio > 0.25 {
					b.Fatalf("%s: kernel %.1fµs is %.2f× the byte loop's %.1fµs, ceiling 0.25×", fn, us(kernel), ratio, us(ref))
				}
			}
		})
	}
}
