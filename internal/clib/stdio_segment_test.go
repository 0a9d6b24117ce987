package clib

import (
	"bytes"
	"math"
	"runtime"
	"runtime/debug"
	"testing"

	"healers/internal/cmem"
	"healers/internal/csim"
)

// stdioWorld is one seeded stdio scene: a FILE (possibly moved or
// corrupted by the scene) over a 10000-byte file, a user range of n
// bytes at user, and a C string of n bytes at str. calls, when a scene
// sets it, replaces the one call of args(fn).
type stdioWorld struct {
	t     testing.TB
	p     *csim.Process
	fp    cmem.Addr
	user  cmem.Addr
	str   cmem.Addr
	n     uint64
	calls [][]uint64
}

// stdioData is the file behind the scene's FILE: every byte distinct
// from its neighbours, with newlines at offsets 37 and 5000.
func stdioData() []byte {
	data := make([]byte, 10000)
	for i := range data {
		data[i] = byte(i*7 + 3)
		if data[i] == '\n' || data[i] == 0 {
			data[i] = 'x'
		}
	}
	data[37], data[5000] = '\n', '\n'
	return data
}

// region maps pages of memory with a guard page after them.
func (w *stdioWorld) region(pages int) cmem.Addr {
	a, err := w.p.Mem.MmapRegion(pages*cmem.PageSize, cmem.ProtRW)
	if err != nil {
		w.t.Fatal(err)
	}
	return a
}

func newStdioWorld(t testing.TB, mode string) *stdioWorld {
	fs := csim.NewFS()
	fs.Create("/f", stdioData())
	w := &stdioWorld{t: t, p: csim.NewProcess(fs), n: 300}
	w.fp = w.p.Fopen("/f", mode)
	if w.fp == 0 {
		t.Fatalf("fopen(/f, %q) failed", mode)
	}
	// Three user pages, filled so a write reads distinct bytes; the
	// scenes move the cursor within them.
	user := w.region(3)
	fill := make([]byte, 3*cmem.PageSize)
	for i := range fill {
		fill[i] = byte(i*13 + 5)
	}
	if f := w.p.Mem.Write(user, fill); f != nil {
		t.Fatal(f)
	}
	w.user = user + 123
	w.str = w.region(3)
	return w
}

func (w *stdioWorld) setU64(fp cmem.Addr, off int, v uint64) {
	if f := w.p.Mem.WriteU64(fp+cmem.Addr(off), v); f != nil {
		w.t.Fatal(f)
	}
}

// moveFILE copies the FILE header into a fresh page at offset off and
// points the scene at the copy.
func (w *stdioWorld) moveFILE(off int) cmem.Addr {
	hdr, f := w.p.Mem.Read(w.fp, csim.SizeofFILE)
	if f != nil {
		w.t.Fatal(f)
	}
	w.fp = w.region(1) + cmem.Addr(off)
	if f := w.p.Mem.Write(w.fp, hdr); f != nil {
		w.t.Fatal(f)
	}
	return w.fp
}

func (w *stdioWorld) of() *csim.OpenFD { return w.p.FD(w.p.FILEFd(w.fp)) }

// args returns fn's arguments for the scene: a run of n bytes between
// the FILE and the user range (fputs writes the n-byte string at str,
// gets reads an n-byte line unless the scene set the input).
func (w *stdioWorld) args(fn string) []uint64 {
	fp := uint64(w.fp)
	switch fn {
	case "fread", "fwrite":
		return []uint64{uint64(w.user), 1, w.n, fp}
	case "fgets":
		return []uint64{uint64(w.user), w.n + 1, fp}
	case "fputs":
		s := bytes.Repeat([]byte{'s'}, int(w.n))
		for i := range s {
			s[i] += byte(i % 7)
		}
		if f := w.p.Mem.WriteCString(w.str, string(s)); f != nil {
			w.t.Fatal(f)
		}
		return []uint64{uint64(w.str), fp}
	case "gets":
		if w.p.Stdin == nil {
			w.p.Stdin = append(bytes.Repeat([]byte{'g'}, int(w.n)), "\nnext"...)
		}
		return []uint64{uint64(w.user)}
	case "fseek":
		return []uint64{fp, 0, 0}
	}
	return []uint64{fp}
}

var (
	stdioLoops  = []string{"fread", "fwrite", "fgets", "fputs", "gets"}
	stdioDrains = []string{"fflush", "fclose", "fseek"}
	stdioAll    = append(append([]string(nil), stdioLoops...), stdioDrains...)
)

// stdioScenes are the edge cases of the segment rule: overlapping
// ranges, every ring shape, protected and missing headers, guard pages
// met mid-page and at a page boundary, EOF and newlines inside a
// segment, budgets that run out on the first, a middle and the last
// byte, append mode, a position past EOF, an overflowing size*nmemb, and
// gets at EOF and on an empty line.
var stdioScenes = []struct {
	name  string
	mode  string
	fns   []string
	setup func(w *stdioWorld)
}{
	{"plain", "r+", stdioAll, func(w *stdioWorld) {}},
	{"buffered run drained", "r+", stdioDrains, func(w *stdioWorld) {
		w.setU64(w.fp, csim.FILEOffBufPos, 300)
	}},
	{"drain past the ring", "r+", stdioDrains, func(w *stdioWorld) {
		w.setU64(w.fp, csim.FILEOffBufPos, 5000)
	}},
	{"ring behind the user cursor", "r+", stdioLoops, func(w *stdioWorld) {
		w.setU64(w.fp, csim.FILEOffBufPtr, uint64(w.user-10))
	}},
	{"ring ahead of the user cursor", "r+", stdioLoops, func(w *stdioWorld) {
		w.setU64(w.fp, csim.FILEOffBufPtr, uint64(w.user+10))
	}},
	{"bufPos inside the ring", "r+", stdioAll, func(w *stdioWorld) {
		fp := w.moveFILE(100)
		w.setU64(fp, csim.FILEOffBufPtr, uint64(fp+16))
		w.setU64(fp, csim.FILEOffBufSize, 64)
	}},
	{"bufPos inside the user range", "r+", []string{"fread", "fwrite", "fgets"}, func(w *stdioWorld) {
		fp := w.moveFILE(100)
		w.user = fp + 20
		w.n = 40
	}},
	{"bufSize 0", "r+", stdioAll, func(w *stdioWorld) {
		w.setU64(w.fp, csim.FILEOffBufSize, 0)
		w.setU64(w.fp, csim.FILEOffBufPos, 5)
	}},
	{"bufSize 1", "r+", stdioAll, func(w *stdioWorld) {
		w.setU64(w.fp, csim.FILEOffBufSize, 1)
		w.setU64(w.fp, csim.FILEOffBufPos, 5)
	}},
	{"ring larger than the run", "r+", stdioAll, func(w *stdioWorld) {
		w.setU64(w.fp, csim.FILEOffBufPtr, uint64(w.region(3)+17))
		w.setU64(w.fp, csim.FILEOffBufSize, 3*cmem.PageSize-17)
		w.setU64(w.fp, csim.FILEOffBufPos, 3)
	}},
	{"ring wraps mid-run", "r+", stdioAll, func(w *stdioWorld) {
		w.setU64(w.fp, csim.FILEOffBufSize, 100)
		w.setU64(w.fp, csim.FILEOffBufPos, 70)
	}},
	{"position counter wraps mid-run", "r+", stdioLoops, func(w *stdioWorld) {
		w.setU64(w.fp, csim.FILEOffBufSize, 7)
		w.setU64(w.fp, csim.FILEOffBufPos, ^uint64(0)-5)
	}},
	{"read-only FILE header", "r+", stdioAll, func(w *stdioWorld) {
		fp := w.moveFILE(0)
		w.setU64(fp, csim.FILEOffBufPos, 9)
		w.p.Mem.Protect(fp, cmem.PageSize, cmem.ProtRead)
	}},
	{"unmapped FILE header", "r+", stdioAll, func(w *stdioWorld) {
		w.fp = 0xdead0000
	}},
	{"ring into a guard page mid-page", "r+", stdioAll, func(w *stdioWorld) {
		w.setU64(w.fp, csim.FILEOffBufPtr, uint64(w.region(1)+cmem.PageSize-100))
		w.setU64(w.fp, csim.FILEOffBufPos, 7)
	}},
	{"ring into a guard page at a page boundary", "r+", stdioAll, func(w *stdioWorld) {
		w.setU64(w.fp, csim.FILEOffBufPtr, uint64(w.region(1)))
		w.setU64(w.fp, csim.FILEOffBufSize, 2*cmem.PageSize)
		w.setU64(w.fp, csim.FILEOffBufPos, 6000)
		w.n = 5000
	}},
	{"user range into a guard page mid-page", "r+", stdioLoops, func(w *stdioWorld) {
		w.user = w.region(1) + cmem.PageSize - 100
	}},
	{"user range into a guard page at a page boundary", "r+", stdioLoops, func(w *stdioWorld) {
		w.user = w.region(1)
		w.n = 5000
	}},
	{"ring and user range unmapped", "r+", stdioLoops, func(w *stdioWorld) {
		w.setU64(w.fp, csim.FILEOffBufPtr, 0xbad0000)
		w.user = 0xbee0000
	}},
	{"EOF mid-segment", "r+", stdioLoops, func(w *stdioWorld) {
		w.of().Pos = 10000 - 50
		w.p.Stdin = stdioData()[:50]
	}},
	{"newline mid-segment", "r+", stdioLoops, func(w *stdioWorld) {
		w.of().Pos = 4990
		w.p.Stdin = stdioData()
	}},
	{"gets at EOF", "r+", []string{"gets"}, func(w *stdioWorld) {
		w.p.Stdin = []byte{}
	}},
	{"gets of an empty line", "r+", []string{"gets"}, func(w *stdioWorld) {
		w.p.Stdin = []byte("\nnext")
	}},
	{"budget out on the first byte", "r+", stdioAll, func(w *stdioWorld) {
		w.setU64(w.fp, csim.FILEOffBufPos, 300)
		w.p.SetStepBudget(0)
	}},
	{"budget out on a middle byte", "r+", stdioAll, func(w *stdioWorld) {
		w.setU64(w.fp, csim.FILEOffBufPos, 300)
		w.p.SetStepBudget(150)
	}},
	{"budget out on the last byte", "r+", stdioAll, func(w *stdioWorld) {
		w.setU64(w.fp, csim.FILEOffBufPos, 300)
		w.p.SetStepBudget(299)
	}},
	{"budget exactly spent", "r+", stdioAll, func(w *stdioWorld) {
		w.setU64(w.fp, csim.FILEOffBufPos, 300)
		w.p.SetStepBudget(300)
	}},
	{"append mode", "a+", stdioAll, func(w *stdioWorld) {}},
	{"append mode past EOF", "a+", stdioAll, func(w *stdioWorld) {
		w.of().Pos = 10100
	}},
	{"position past EOF", "r+", stdioAll, func(w *stdioWorld) {
		w.of().Pos = 10100
	}},
	{"size*nmemb overflows to 0", "r+", []string{"fread", "fwrite"}, func(w *stdioWorld) {
		w.calls = [][]uint64{{uint64(w.user), 1 << 63, 2, uint64(w.fp)}}
	}},
	{"size*nmemb overflows to 2", "r+", []string{"fread", "fwrite"}, func(w *stdioWorld) {
		w.calls = [][]uint64{{uint64(w.user), 1<<63 + 1, 2, uint64(w.fp)}}
	}},
	{"fgets of size 0, 1 and -1", "r+", []string{"fgets"}, func(w *stdioWorld) {
		for _, size := range []uint64{0, 1, ^uint64(0)} {
			w.calls = append(w.calls, []uint64{uint64(w.user), size, uint64(w.fp)})
		}
	}},
}

// TestStdioSegmentDifferential runs every seeded scene through the
// segmented stdio loops and the per-byte reference model: the outcome
// (kind, return, errno, fault, steps) must match, and on a return or a
// hang so must the FILE header, the ring, the user range, the file and
// the descriptor position.
func TestStdioSegmentDifferential(t *testing.T) {
	lib := New()
	for _, sc := range stdioScenes {
		for _, fn := range sc.fns {
			t.Run(sc.name+"/"+fn, func(t *testing.T) {
				w := newStdioWorld(t, sc.mode)
				sc.setup(w)
				calls := w.calls
				if calls == nil {
					calls = [][]uint64{w.args(fn)}
				}
				for _, a := range calls {
					if d := DiffStdio(lib.MustLookup(fn).Impl, w.p, fn, a); d != "" {
						t.Error(d)
					}
				}
			})
		}
	}
}

// pageMisses reads the page pool's freelist misses.
func pageMisses() int64 { return cmem.PoolCounts().Misses }

// forkAllocs is testing.AllocsPerRun over calls of fn, each in a fresh
// fork of p, less the page-pool misses among them. Under the race
// detector sync.Pool drops pages at random, and each drop costs a miss
// that allocates one page: noise that says nothing about the code under
// test. The collector is held off during the runs, since a collection
// empties sync.Pool and its next use reallocates the pool's own
// per-processor storage; and the figure is the least of a few windows
// of runs, since the race runtime now and then allocates on its own.
func forkAllocs(t *testing.T, lib *Library, p *csim.Process, fn string, a []uint64) float64 {
	t.Helper()
	const windows, runs = 3, 20
	call := func() {
		c := p.Fork()
		if o := c.Run(func() uint64 { return lib.Call(c, fn, a...) }); o.Kind != csim.OutcomeReturn {
			t.Fatalf("%s: %v", fn, o)
		}
		c.Release()
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	call() // warm up, as AllocsPerRun does
	least := math.Inf(1)
	for w := 0; w < windows; w++ {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		mallocs, misses := ms.Mallocs, pageMisses()
		for i := 0; i < runs; i++ {
			call()
		}
		runtime.ReadMemStats(&ms)
		least = min(least, float64(ms.Mallocs-mallocs-uint64(pageMisses()-misses))/runs)
	}
	return least
}

// TestStdioAllocations holds the allocation diet: in a fork, a stdio
// loop costs the same allocations for 16 bytes as for 4096, and qsort
// the same for 8 elements as for 512 — nothing is allocated per byte,
// per element or per comparison. Page-pool misses are not counted.
func TestStdioAllocations(t *testing.T) {
	lib := New()
	allocs := func(t *testing.T, w *stdioWorld, fn string, a []uint64) float64 {
		t.Helper()
		return forkAllocs(t, lib, w.p, fn, a)
	}
	for _, fn := range stdioLoops {
		t.Run(fn, func(t *testing.T) {
			var got []float64
			for _, n := range []uint64{16, 4096} {
				w := newStdioWorld(t, "r+")
				w.of().Pos = 5001 // no newline in the next 4096 bytes
				w.n = n
				got = append(got, allocs(t, w, fn, w.args(fn)))
			}
			if got[0] != got[1] {
				t.Errorf("%s allocates %v for 16 bytes but %v for 4096", fn, got[0], got[1])
			}
		})
	}
	t.Run("qsort", func(t *testing.T) {
		var got []float64
		for _, n := range []int{8, 512} {
			w := newStdioWorld(t, "r+")
			base := w.region(1)
			for i := 0; i < n; i++ {
				w.p.Mem.WriteU32(base+cmem.Addr(4*i), uint32((i*37)%n))
			}
			cmp := w.p.RegisterCallback(func(p *csim.Process, a []uint64) uint64 {
				x, y := p.LoadU32(cmem.Addr(a[0])), p.LoadU32(cmem.Addr(a[1]))
				return retInt(int(x) - int(y))
			})
			got = append(got, allocs(t, w, "qsort", []uint64{uint64(base), uint64(n), 4, uint64(cmp)}))
		}
		if got[0] != got[1] {
			t.Errorf("qsort allocates %v for 8 elements but %v for 512", got[0], got[1])
		}
	})
}

// BenchmarkStdio times the bulk stdio paths on a fork: fread and fwrite
// of 8 KiB, and fgets with size 0, which spends the default step budget
// and hangs.
func BenchmarkStdio(b *testing.B) {
	lib := New()
	for _, bc := range []struct {
		name string
		fn   string
		want csim.OutcomeKind
	}{
		{"fread-8KiB", "fread", csim.OutcomeReturn},
		{"fwrite-8KiB", "fwrite", csim.OutcomeReturn},
		{"fgets-size0", "fgets", csim.OutcomeHang},
	} {
		b.Run(bc.name, func(b *testing.B) {
			w := newStdioWorld(b, "r+")
			w.n = 8 << 10
			a := w.args(bc.fn)
			if bc.fn == "fgets" {
				a[1] = 0
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c := w.p.Fork()
				if o := c.Run(func() uint64 { return lib.Call(c, bc.fn, a...) }); o.Kind != bc.want {
					b.Fatalf("%s: %v", bc.fn, o)
				}
				c.Release()
			}
		})
	}
}
