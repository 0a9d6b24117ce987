package ballista

import (
	"runtime"
	"testing"

	"healers/internal/csim"
	"healers/internal/obs"
	"healers/internal/wrapper"
)

// budgetFuncs is the fixed slice of the suite the allocation budget is
// measured on: string, memory, stdio, directory and time functions, so
// every wrapper check family and every repair kind runs. qsort is left
// out: its insertion sort allocates per element moved, which would
// swamp the per-test path this budget is about.
var budgetFuncs = map[string]bool{
	"strcpy": true, "strncpy": true, "memcpy": true, "fgets": true, "fputs": true,
	"fread": true, "fwrite": true, "fclose": true, "readdir": true, "asctime": true,
}

// TestPerTestAllocationBudget pins the allocations one Ballista test
// costs — fork, interposer, argument setup, the call and release —
// under each of the four configurations. The fork's Process and Memory
// and the interposer are recycled from the previous test, and the
// argument values are mounted from bytes the pools made once, so they
// cost nothing here. The budgets are the measured figures (0.1, 1.7,
// 2.9 and 1.9 per test: what is left are the wrapper's violation and
// heal records, its heap table, and heal's sink file) plus headroom
// for the race detector, whose sync.Pool drops add page allocations
// (0.5, 2.0, 3.8 and 2.2 per test measured under -race). Before the
// pools held their bytes, the frame its arguments and faults their
// slot, the same tests made 5.6, 6.7, 8.6 and 7.0. A failure means
// something on the per-test path started allocating again.
func TestPerTestAllocationBudget(t *testing.T) {
	f := setup(t)
	sub := &Suite{PerFunc: map[string]int{}}
	for _, test := range f.suite.Tests {
		if budgetFuncs[test.Func] {
			sub.Tests = append(sub.Tests, test)
			sub.PerFunc[test.Func]++
		}
	}
	if len(sub.PerFunc) != len(budgetFuncs) {
		t.Fatalf("suite covers %d of the %d budget functions", len(sub.PerFunc), len(budgetFuncs))
	}
	template := NewTemplate()
	for _, c := range []struct {
		config  string
		mode    wrapper.Mode
		wrapped bool
		budget  float64
	}{
		{"unwrapped", wrapper.ModeReject, false, 1},
		{"mode-reject", wrapper.ModeReject, true, 3},
		{"mode-heal", wrapper.ModeHeal, true, 5},
		{"mode-introspect", wrapper.ModeIntrospect, true, 3},
	} {
		opts := wrapper.DefaultOptions()
		opts.Mode = c.mode
		factory := func(p *csim.Process) Caller {
			if !c.wrapped {
				return f.lib
			}
			return wrapper.Attach(p, f.lib, f.semi, opts)
		}
		run := func() { sub.RunWith(c.config, template, factory, RunOptions{}) }
		perTest := testing.AllocsPerRun(3, run) / float64(len(sub.Tests))
		t.Logf("%s: %.1f allocations, %.0f bytes per test (budget %.0f allocations)",
			c.config, perTest, bytesPerRun(run)/float64(len(sub.Tests)), c.budget)
		if perTest > c.budget {
			t.Errorf("%s: %.1f allocations per test, budget %.0f", c.config, perTest, c.budget)
		}
	}
}

// TestBallistaUnwrappedTestAllocatesNothing: once the pools and the
// argument frame exist, a Ballista test of strcpy, memcpy or fgets run
// against the bare library — fork, argument set-up (strings, buffers,
// opened, stale and corrupted streams), the call, its fault when it
// crashes, and release — allocates nothing at all. Every test of the
// three functions in the suite is measured on its own.
func TestBallistaUnwrappedTestAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool entries at random, so recycled pages are allocated again")
	}
	f := setup(t)
	template := NewTemplate()
	factory := func(*csim.Process) Caller { return f.lib }
	for _, fn := range []string{"strcpy", "memcpy", "fgets"} {
		sub := &Suite{PerFunc: map[string]int{}}
		for _, test := range f.suite.Tests {
			if test.Func == fn {
				sub.Tests = append(sub.Tests, test)
				sub.PerFunc[fn]++
			}
		}
		runner := &suiteRunner{suite: sub, config: "unwrapped", factory: factory}
		var frame Frame
		crashes := 0
		for ti := range sub.Tests {
			test := &sub.Tests[ti]
			if runner.runTest(template, test, obs.SpanContext{}, &frame).bucket == BucketCrash {
				crashes++
			}
			if n := testing.AllocsPerRun(3, func() { runner.runTest(template, test, obs.SpanContext{}, &frame) }); n != 0 {
				t.Errorf("%s(%s): %.1f allocations per test, want 0", fn, testKey(*test), n)
			}
		}
		t.Logf("%s: %d tests, %d crashing", fn, len(sub.Tests), crashes)
		if crashes == 0 {
			t.Errorf("%s: no test crashed, so no fault was measured", fn)
		}
	}
}

// bytesPerRun returns the bytes one call of run allocates, averaged over
// three calls after a warm-up call.
func bytesPerRun(run func()) float64 {
	run()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 3; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / 3
}
