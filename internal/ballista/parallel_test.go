package ballista

import (
	"reflect"
	"testing"

	"healers/internal/csim"
	"healers/internal/obs"
	"healers/internal/wrapper"
)

// TestParallelRunMatchesSequential shards the suite across a worker
// pool and requires the report to equal the sequential run's, PerFunc
// and every test's Outcome, under the strategy matrix's four
// configurations and the wrapper over the full-automatic declarations
// (the wrapper allocates per-process state, so this also exercises
// wrapper isolation). The worker counts and the suite
// lengths put chunk edges everywhere: one test, one short of a chunk,
// a chunk, one past it, and the full suite. Run under -race this is
// the ballista half of the concurrency audit.
func TestParallelRunMatchesSequential(t *testing.T) {
	f := setup(t)
	template := NewTemplate()
	for _, n := range []int{1, chunkSize - 1, chunkSize, chunkSize + 1, len(f.suite.Tests)} {
		sub := &Suite{Tests: f.suite.Tests[:n]}
		configs := append(f.matrixConfigs(), matrixConfig{"full-auto", func(p *csim.Process) Caller {
			return wrapper.Attach(p, f.lib, f.decls, wrapper.DefaultOptions())
		}})
		for _, c := range configs {
			sequential := sub.RunWith(c.name, template, c.factory, RunOptions{})
			for _, workers := range []int{2, 3, 8} {
				parallel := sub.RunWith(c.name, template, c.factory, RunOptions{Workers: workers})
				if !reflect.DeepEqual(sequential.PerFunc, parallel.PerFunc) {
					for name, sf := range sequential.PerFunc {
						if pf := parallel.PerFunc[name]; pf == nil || *sf != *pf {
							t.Errorf("%d tests, %s, %d workers, %s: sequential %+v, parallel %+v", n, c.name, workers, name, sf, pf)
						}
					}
				}
				for ti, want := range sequential.Outcomes {
					if got := parallel.Outcomes[ti]; got != want {
						t.Errorf("%d tests, %s, %d workers: test %d (%s) is %v, sequential %v", n, c.name, workers, ti, testKey(sub.Tests[ti]), got, want)
						break
					}
				}
			}
		}
	}
}

// TestParallelRunCountersReconcile checks the sharded run's bucket
// counters and worker gauge agree with its report.
func TestParallelRunCountersReconcile(t *testing.T) {
	f := setup(t)
	reg := obs.NewRegistry()
	rep := f.suite.RunWith("unwrapped", NewTemplate(), func(p *csim.Process) Caller {
		return f.lib
	}, RunOptions{Workers: 4, Metrics: reg})

	errno, silent, crash, _ := rep.Totals()
	for bucket, want := range map[string]int{"errno-set": errno, "silent": silent, "crash": crash} {
		name := `healers_ballista_outcomes_total{config="unwrapped",bucket="` + bucket + `"}`
		if got := reg.Counter(name).Value(); got != int64(want) {
			t.Errorf("counter %s = %d, report = %d", name, got, want)
		}
	}
	if got := reg.Gauge(`healers_ballista_workers{config="unwrapped"}`).Value(); got != 4 {
		t.Errorf("worker gauge = %d, want 4", got)
	}
}
