package ballista

import (
	"bytes"
	"testing"

	"healers/internal/csim"
	"healers/internal/obs"
	"healers/internal/wrapper"
)

// TestRunWithEventsReconcile checks that an observed run emits exactly
// one TestOutcome event per test, that the per-bucket event counts
// match the report totals, and that the labeled registry counters agree
// with both.
func TestRunWithEventsReconcile(t *testing.T) {
	f := setup(t)
	var buf bytes.Buffer
	reg := obs.NewRegistry()
	opts := RunOptions{
		Obs:     obs.New(obs.NewJSONLSink(&buf)),
		Metrics: reg,
	}
	template := NewTemplate()
	rep := f.suite.RunWith("full-auto", template, func(p *csim.Process) Caller {
		wopts := wrapper.DefaultOptions()
		return wrapper.Attach(p, f.lib, f.decls, wopts)
	}, opts)

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

// TestRunMatchesRunWith checks the unobserved Run facade produces the
// same report as an observed run (instrumentation must not perturb
// outcomes).
func TestRunMatchesRunWith(t *testing.T) {
	f := setup(t)
	template := NewTemplate()
	factory := func(p *csim.Process) Caller { return f.lib }
	plain := f.suite.Run("unwrapped", template, factory, 0)
	collect := obs.NewCollectSink(16)
	observed := f.suite.RunWith("unwrapped", template, factory, RunOptions{Obs: obs.New(collect)})

	pe, ps, pc, pt := plain.Totals()
	oe, os, oc, ot := observed.Totals()
	if pe != oe || ps != os || pc != oc || pt != ot {
		t.Fatalf("observed run diverged: plain %d/%d/%d/%d, observed %d/%d/%d/%d",
			pe, ps, pc, pt, oe, os, oc, ot)
	}
	if uint64(len(collect.Events()))+collect.Dropped() == 0 {
		t.Error("observed run emitted no events")
	}
}
