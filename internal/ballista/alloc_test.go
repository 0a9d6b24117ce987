package ballista

import (
	"testing"

	"healers/internal/csim"
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
// and the interposer are recycled from the previous test, so they cost
// nothing here. The budgets are the measured figures (9.6, 10.6, 13.3
// and 11.0 per test) plus headroom for the race detector, whose
// sync.Pool drops add page allocations (10.2, 11.2, 15.8 and 11.5 per
// test measured under -race). A failure means something on the
// per-test path started allocating again.
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
		{"unwrapped", wrapper.ModeReject, false, 12},
		{"mode-reject", wrapper.ModeReject, true, 13},
		{"mode-heal", wrapper.ModeHeal, true, 18},
		{"mode-introspect", wrapper.ModeIntrospect, true, 14},
	} {
		opts := wrapper.DefaultOptions()
		opts.Mode = c.mode
		factory := func(p *csim.Process) Caller {
			if !c.wrapped {
				return f.lib
			}
			return wrapper.Attach(p, f.lib, f.semi, opts)
		}
		perTest := testing.AllocsPerRun(3, func() {
			sub.RunWith(c.config, template, factory, RunOptions{})
		}) / float64(len(sub.Tests))
		t.Logf("%s: %.1f allocations per test (budget %.0f)", c.config, perTest, c.budget)
		if perTest > c.budget {
			t.Errorf("%s: %.1f allocations per test, budget %.0f", c.config, perTest, c.budget)
		}
	}
}
