package ballista

import (
	"bytes"
	"fmt"
	"testing"

	"healers/internal/csim"
	"healers/internal/obs"
	"healers/internal/wrapper"
)

// TestRunWithEventsReconcile checks that an observed run emits exactly
// one TestOutcome event per test, that the per-bucket event counts
// match the report totals, that the labeled registry counters agree
// with both, and that observing does not perturb the outcomes.
func TestRunWithEventsReconcile(t *testing.T) {
	f := setup(t)
	var buf bytes.Buffer
	reg := obs.NewRegistry()
	opts := RunOptions{
		Obs:     obs.New(obs.NewJSONLSink(&buf)),
		Metrics: reg,
	}
	template := NewTemplate()
	factory := func(p *csim.Process) Caller {
		return wrapper.Attach(p, f.lib, f.decls, wrapper.DefaultOptions())
	}
	rep := f.suite.RunWith("full-auto", template, factory, opts)
	plain := f.suite.RunWith("full-auto", template, factory, RunOptions{})
	if got, want := fmt.Sprint(rep.Totals()), fmt.Sprint(plain.Totals()); got != want {
		t.Errorf("observed run totals %s, unobserved %s", got, want)
	}

	events, err := obs.ParseJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	buckets := map[string]int{}
	perFunc := map[string]int{}
	progress := 0
	for _, e := range events {
		switch e.Kind {
		case obs.KindTestOutcome:
			if e.Config != "full-auto" {
				t.Fatalf("outcome event with config %q", e.Config)
			}
			buckets[e.Outcome]++
			perFunc[e.Func]++
		case obs.KindCampaignPhase:
			progress++
			if e.Total != len(f.suite.Tests) {
				t.Fatalf("progress total = %d, want %d", e.Total, len(f.suite.Tests))
			}
		}
	}

	errno, silent, crash, total := rep.Totals()
	if got := buckets["errno-set"] + buckets["silent"] + buckets["crash"]; got != total {
		t.Errorf("outcome events = %d, report total = %d", got, total)
	}
	if buckets["errno-set"] != errno || buckets["silent"] != silent || buckets["crash"] != crash {
		t.Errorf("event buckets = %v, report = errno %d silent %d crash %d",
			buckets, errno, silent, crash)
	}
	for name, fr := range rep.PerFunc {
		if perFunc[name] != fr.Tests() {
			t.Errorf("%s: %d outcome events, report ran %d tests", name, perFunc[name], fr.Tests())
		}
	}
	// 11995 tests at one progress event per 1000 plus the final test.
	wantProgress := len(f.suite.Tests)/1000 + 1
	if progress != wantProgress {
		t.Errorf("progress events = %d, want %d", progress, wantProgress)
	}

	for bucket, want := range map[string]int{"errno-set": errno, "silent": silent, "crash": crash} {
		name := `healers_ballista_outcomes_total{config="full-auto",bucket="` + bucket + `"}`
		if got := reg.Counter(name).Value(); got != int64(want) {
			t.Errorf("counter %s = %d, report = %d", name, got, want)
		}
	}
}
