package ballista

import (
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
				out := child.Run(func() uint64 { return e.Build(child, passCaller{f}) })
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
				return func(p *csim.Process) uint64 { return e.Build(p, passCaller{f}) }
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
