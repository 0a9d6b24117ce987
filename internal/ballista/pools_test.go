package ballista

import (
	"fmt"
	"strings"
	"testing"

	"healers/internal/cmem"
	"healers/internal/csim"
	"healers/internal/gens"
)

// bareLib adapts the raw library for pool materialization in tests.
type passCaller struct{ f *fixture }

func (c passCaller) Call(p *csim.Process, name string, args ...uint64) uint64 {
	return c.f.lib.Call(p, name, args...)
}

func TestPoolEntriesMaterialize(t *testing.T) {
	f := setup(t)
	template := NewTemplate()
	pools := map[string][]*PoolEntry{
		"string": stringPool(),
		"buffer": bufferPool(),
		"file":   filePool(),
		"dir":    dirPool(),
		"int":    intPool(),
		"fd":     fdPool(),
		"func":   funcPtrPool(),
		"double": doublePool(),
		"struct": structPool(64),
	}
	for kind, pool := range pools {
		t.Run(kind, func(t *testing.T) {
			if len(pool) < 2 {
				t.Fatalf("pool too small: %d", len(pool))
			}
			exceptional := 0
			for _, e := range pool {
				if e.Exceptional {
					exceptional++
				}
				child := template.Fork()
				out := child.Run(func() uint64 { return e.Build(child, passCaller{f}, new(Frame)) })
				if out.Kind != csim.OutcomeReturn {
					t.Errorf("%s/%s materialization crashed: %v", kind, e.Name, out)
				}
			}
			if exceptional == 0 {
				t.Errorf("%s pool has no exceptional entries", kind)
			}
			if exceptional == len(pool) && kind != "double" {
				t.Errorf("%s pool has no valid entries", kind)
			}
		})
	}
}

// TestFileCorruptEntryKeepsValidFd checks every corrupted stream, the
// Ballista entries and the injector's probes alike: the magic word and
// a live descriptor survive (fileno+fstat would otherwise reject it and
// the residual class would vanish), while the buffer pointer is
// unmapped garbage.
func TestFileCorruptEntryKeepsValidFd(t *testing.T) {
	f := setup(t)
	entry := func(pool []*PoolEntry, name string) func(*csim.Process) uint64 {
		for _, e := range pool {
			if e.Name == name {
				return func(p *csim.Process) uint64 { return e.Build(p, passCaller{f}, new(Frame)) }
			}
		}
		t.Fatalf("no %s entry", name)
		return nil
	}
	// The corrupted FILE follows three open streams and the garbage
	// FILE; the corrupted DIR follows the open DIR and the garbage DIR.
	fileProbe := drainGen(gens.NewFileGen(""))[4]
	dirProbe := drainGen(gens.NewDirGen(""))[2]
	for _, c := range []struct {
		name                 string
		build                func(*csim.Process) uint64
		dir                  bool
		magic                uint32
		offMagic, offFD, buf cmem.Addr
	}{
		{"ballista file-corrupt", entry(filePool(), "file-corrupt"), false, csim.FILEMagic, csim.FILEOffMagic, csim.FILEOffFD, csim.FILEOffBufPtr},
		{"ballista dir-corrupt", entry(dirPool(), "dir-corrupt"), true, csim.DIRMagic, csim.DIROffMagic, csim.DIROffFD, csim.DIROffBuf},
		{"gens corrupted FILE", fileProbe.Build, false, csim.FILEMagic, csim.FILEOffMagic, csim.FILEOffFD, csim.FILEOffBufPtr},
		{"gens corrupted DIR", dirProbe.Build, true, csim.DIRMagic, csim.DIROffMagic, csim.DIROffFD, csim.DIROffBuf},
	} {
		child := NewTemplate().Fork()
		var addr uint64
		child.Run(func() uint64 { addr = c.build(child); return 0 })
		if addr == 0 {
			t.Errorf("%s: failed to build", c.name)
			continue
		}
		obj := cmem.Addr(addr)
		if got := child.LoadU32(obj + c.offMagic); got != c.magic {
			t.Errorf("%s: magic %#x, want %#x", c.name, got, c.magic)
		}
		if fd := int(int32(child.LoadU32(obj + c.offFD))); child.FD(fd) == nil {
			t.Errorf("%s: descriptor %d is not live", c.name, fd)
		}
		if _, mapped := child.Mem.ProtAt(cmem.Addr(child.LoadU64(obj + c.buf))); mapped {
			t.Errorf("%s: buffer pointer is mapped, want garbage", c.name)
		}
		if !c.dir {
			if pos := child.LoadU64(obj + csim.FILEOffBufPos); pos != 4 {
				t.Errorf("%s: buffer position %d, want 4", c.name, pos)
			}
		}
	}
}

func drainGen(g gens.Generator) []*gens.Probe {
	var out []*gens.Probe
	for pr := g.Next(); pr != nil; pr = g.Next() {
		out = append(out, pr)
	}
	return out
}

func TestSingleFaultVectors(t *testing.T) {
	pools := [][]*PoolEntry{intPool(), stringPool()}
	tests := singleFault("f", pools)
	if len(tests) == 0 {
		t.Fatal("no single-fault vectors")
	}
	for _, tt := range tests {
		exceptional := 0
		for _, e := range tt.Entries {
			if e.Exceptional {
				exceptional++
			}
		}
		if exceptional != 1 {
			t.Errorf("single-fault vector has %d exceptional entries", exceptional)
		}
	}
	// Count: sum of exceptional entries across pools.
	want := 0
	for _, pool := range pools {
		for _, e := range pool {
			if e.Exceptional {
				want++
			}
		}
	}
	if len(tests) != want {
		t.Errorf("single-fault count = %d, want %d", len(tests), want)
	}
}

func TestCrossProductExcludesAllValid(t *testing.T) {
	pools := [][]*PoolEntry{intPool(), intPool()}
	valid := 0
	for _, e := range intPool() {
		if !e.Exceptional {
			valid++
		}
	}
	tests := crossProduct("f", pools)
	want := len(intPool())*len(intPool()) - valid*valid
	if len(tests) != want {
		t.Errorf("cross product = %d, want %d", len(tests), want)
	}
	for _, tt := range tests {
		any := false
		for _, e := range tt.Entries {
			any = any || e.Exceptional
		}
		if !any {
			t.Fatal("all-valid vector in suite")
		}
	}
}

func TestTrimExact(t *testing.T) {
	f := setup(t)
	if len(f.suite.Tests) != 11995 {
		t.Fatalf("suite = %d", len(f.suite.Tests))
	}
	// PerFunc bookkeeping consistent with Tests.
	counts := map[string]int{}
	for _, tt := range f.suite.Tests {
		counts[tt.Func]++
	}
	for name, n := range f.suite.PerFunc {
		if counts[name] != n {
			t.Errorf("%s: PerFunc=%d actual=%d", name, n, counts[name])
		}
	}
	if got := len(f.suite.SortedFuncs()); got != 86 {
		t.Errorf("functions = %d", got)
	}
}

func TestReportAggregation(t *testing.T) {
	r := &Report{Config: "x", PerFunc: map[string]*FuncReport{
		"a": {Name: "a", Errno: 10, Silent: 5, Crash: 2, Segfault: 2},
		"b": {Name: "b", Errno: 3, Silent: 0, Crash: 0},
	}}
	e, s, c, total := r.Totals()
	if e != 13 || s != 5 || c != 2 || total != 20 {
		t.Errorf("totals = %d %d %d %d", e, s, c, total)
	}
	if got := r.CrashingFuncs(); len(got) != 1 || got[0] != "a" {
		t.Errorf("crashing = %v", got)
	}
	ep, sp, cp := r.Rates()
	if ep != 65 || sp != 25 || cp != 10 {
		t.Errorf("rates = %v %v %v", ep, sp, cp)
	}
	if r.String() == "" {
		t.Error("empty report string")
	}
	if (&Report{Config: "empty", PerFunc: map[string]*FuncReport{}}).String() == "" {
		t.Error("empty report panics or empty")
	}
}

// TestPoolEntriesMountLikeProbes: every string, unterminated, file and
// directory pool entry mounts its value exactly as the gens probes lay
// it out — the way the entries built their values before they held
// prebuilt bytes. Each entry is built in a fresh fork of the template
// and its probe recipe in another; the two must return the same
// address and leave the same bytes and page protections on every page
// of the mmap area they used, the guard page after it included, and
// the same fork counters.
func TestPoolEntriesMountLikeProbes(t *testing.T) {
	f := setup(t)
	type recipe func(p *csim.Process, c Caller) uint64
	str := func(s string, prot cmem.Prot) recipe {
		return func(p *csim.Process, _ Caller) uint64 { return gens.StringProbe(s, prot).Build(p) }
	}
	unterm := func(size int) recipe {
		return func(p *csim.Process, _ Caller) uint64 { return gens.UntermProbe(size).Build(p) }
	}
	fopen := func(mode string) recipe {
		return func(p *csim.Process, c Caller) uint64 {
			path := gens.StringProbe(FixtureFile, cmem.ProtRW).Build(p)
			m := gens.StringProbe(mode, cmem.ProtRW).Build(p)
			return c.Call(p, "fopen", path, m)
		}
	}
	opendir := func(p *csim.Process, c Caller) uint64 {
		return c.Call(p, "opendir", gens.StringProbe(FixtureDir, cmem.ProtRW).Build(p))
	}
	region := func(size int) recipe {
		return func(p *csim.Process, _ Caller) uint64 {
			a, err := p.Mem.MmapRegion(size, cmem.ProtRW)
			if err != nil {
				return 0
			}
			return uint64(a)
		}
	}
	probes := map[string]recipe{
		"str-valid":    str("hello world", cmem.ProtRW),
		"str-path":     str(FixtureFile, cmem.ProtRW),
		"str-mode":     str("r", cmem.ProtRW),
		"str-ro":       str("hello world", cmem.ProtRead),
		"str-empty":    str("", cmem.ProtRW),
		"str-long":     str(strings.Repeat("A", 300), cmem.ProtRW),
		"unterm[16]":   unterm(16),
		"unterm[4096]": unterm(4096),
		"unterm[1]":    unterm(1),
		"file-r":       fopen("r"),
		"file-w":       fopen("w"),
		"file-corrupt": func(p *csim.Process, c Caller) uint64 {
			real := fopen("r+")(p, c)
			if real == 0 {
				return 0
			}
			rg, err := p.Mem.MmapRegion(csim.SizeofFILE, cmem.ProtRW)
			if err != nil {
				return 0
			}
			return gens.CorruptFILE(p, cmem.Addr(real), rg)
		},
		"file-stale": func(p *csim.Process, c Caller) uint64 {
			fp := fopen("r")(p, c)
			if fp != 0 {
				p.CloseFD(p.FILEFd(cmem.Addr(fp)))
			}
			return fp
		},
		"file-garbage": region(csim.SizeofFILE),
		"dir-open":     opendir,
		"dir-corrupt": func(p *csim.Process, c Caller) uint64 {
			real := opendir(p, c)
			if real == 0 {
				return 0
			}
			rg, err := p.Mem.MmapRegion(csim.SizeofDIR, cmem.ProtRW)
			if err != nil {
				return 0
			}
			return gens.CorruptDIR(p, cmem.Addr(real), rg)
		},
		"dir-garbage": region(csim.SizeofDIR),
	}
	plain := map[string]bool{"null": true, "wild": true, "wild-high": true, "near-null": true, "minus-one": true}

	// mmapState renders every page from the start of the mmap area up
	// to and including the first page past the highest one mapped:
	// protection, mapped or not, and bytes.
	mmapState := func(p *csim.Process, from cmem.Addr) string {
		var b strings.Builder
		end := from
		for a := from; a < from+256*cmem.PageSize; a += cmem.PageSize {
			if _, mapped := p.Mem.ProtAt(a); mapped {
				end = a + cmem.PageSize
			}
		}
		for a := from; a <= end; a += cmem.PageSize {
			prot, mapped := p.Mem.ProtAt(a)
			seg, _, _ := p.Mem.Segment(a)
			fmt.Fprintf(&b, "%#x %v %v %x\n", uint64(a), mapped, prot, seg)
		}
		return b.String()
	}
	build := func(fn func(*csim.Process) uint64) (uint64, string, cmem.ForkCounts, csim.Outcome) {
		template := NewTemplate()
		defer template.Release()
		from, err := template.Mem.MmapRegion(0, cmem.ProtRW)
		if err != nil {
			t.Fatal(err)
		}
		child := template.Fork()
		defer child.Release()
		var v uint64
		out := child.Run(func() uint64 { v = fn(child); return 0 })
		return v, mmapState(child, from), child.Mem.ForkStats().Snapshot(), out
	}
	compared := 0
	for _, pool := range [][]*PoolEntry{stringPool(), filePool(), dirPool()} {
		for _, e := range pool {
			want, ok := probes[e.Name]
			if !ok {
				if !plain[e.Name] {
					t.Errorf("%s: no probe recipe to compare the entry with", e.Name)
				}
				continue
			}
			compared++
			gotV, gotMem, gotFork, gotOut := build(func(p *csim.Process) uint64 { return e.Build(p, passCaller{f}, new(Frame)) })
			wantV, wantMem, wantFork, wantOut := build(func(p *csim.Process) uint64 { return want(p, passCaller{f}) })
			switch {
			case gotOut != wantOut || gotOut.Kind != csim.OutcomeReturn:
				t.Errorf("%s: built with %v, the probe with %v", e.Name, gotOut, wantOut)
			case gotV == 0 || gotV != wantV:
				t.Errorf("%s: value %#x, the probe's %#x", e.Name, gotV, wantV)
			case gotMem != wantMem:
				t.Errorf("%s: the mmap area differs from the probe's:\n%s\nprobe:\n%s", e.Name, gotMem, wantMem)
			case gotFork != wantFork:
				t.Errorf("%s: fork counters %+v, the probe's %+v", e.Name, gotFork, wantFork)
			}
		}
	}
	if compared != len(probes) {
		t.Errorf("compared %d entries, want all %d recipes", compared, len(probes))
	}
}
