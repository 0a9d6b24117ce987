package injector

import (
	"bytes"
	"testing"

	"healers/internal/clib"
	"healers/internal/corpus"
	"healers/internal/extract"
	"healers/internal/obs"
)

// traceCampaign injects the named functions with the given config and
// returns the campaign.
func traceCampaign(t *testing.T, cfg Config, names []string) *Campaign {
	t.Helper()
	lib := clib.New()
	ext, err := extract.Run(corpus.Build(lib))
	if err != nil {
		t.Fatal(err)
	}
	campaign, err := New(lib, cfg).InjectAll(ext, names)
	if err != nil {
		t.Fatal(err)
	}
	return campaign
}

// TestTraceReconcilesWithCampaign is the trace reconciliation
// criterion: the JSONL trace's per-function probe and outcome counts
// must equal the campaign's per-function experiment counts exactly,
// dependent-size re-measurement events must carry Arg -1 and Phase
// "infer", and each function's crash, hang and abort counts must equal
// its segfault, hang and abort outcomes outside that phase.
func TestTraceReconcilesWithCampaign(t *testing.T) {
	names := []string{"asctime", "strcpy", "fgets", "close"}

	var buf bytes.Buffer
	cfg := DefaultConfig()
	cfg.Obs = obs.New(obs.NewJSONLSink(&buf))
	campaign := traceCampaign(t, cfg, names)

	events, err := obs.ParseJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	probes := map[string]int{}
	outcomes := map[string]int{}
	infers := map[string]int{}
	// failures counts each function's non-infer outcomes by kind.
	failures := map[string]map[string]int{}
	phases := 0
	var lastSeq uint64
	for _, e := range events {
		if e.Seq <= lastSeq {
			t.Fatalf("sequence not monotonic: %d after %d", e.Seq, lastSeq)
		}
		lastSeq = e.Seq
		switch e.Kind {
		case obs.KindInjectionProbe, obs.KindSandboxOutcome:
			if e.Kind == obs.KindInjectionProbe {
				probes[e.Func]++
			} else {
				outcomes[e.Func]++
			}
			if e.Phase == "infer" {
				infers[e.Func]++
				if e.Arg != -1 {
					t.Errorf("%s: infer %s event has arg %d, want -1", e.Func, e.Kind, e.Arg)
				}
			} else if e.Phase != "" {
				t.Errorf("%s: %s event has phase %q", e.Func, e.Kind, e.Phase)
			} else if e.Kind == obs.KindSandboxOutcome {
				if failures[e.Func] == nil {
					failures[e.Func] = map[string]int{}
				}
				failures[e.Func][e.Outcome]++
			}
		case obs.KindCampaignPhase:
			phases++
		}
	}

	if phases != len(names) {
		t.Errorf("campaign-phase events = %d, want %d", phases, len(names))
	}
	for _, name := range names {
		calls := campaign.Results[name].Calls
		if calls == 0 {
			t.Fatalf("%s ran no experiments", name)
		}
		if probes[name] != calls {
			t.Errorf("%s: %d probe events, campaign ran %d experiments", name, probes[name], calls)
		}
		if outcomes[name] != calls {
			t.Errorf("%s: %d outcome events, campaign ran %d experiments", name, outcomes[name], calls)
		}
		r, f := campaign.Results[name], failures[name]
		if r.Crashes != f["segfault"] || r.Hangs != f["hang"] || r.Aborts != f["abort"] {
			t.Errorf("%s: crashes/hangs/aborts = %d/%d/%d, exploration outcomes segfault/hang/abort = %d/%d/%d",
				name, r.Crashes, r.Hangs, r.Aborts, f["segfault"], f["hang"], f["abort"])
		}
	}
	// strcpy's destination size depends on its source: re-measurement
	// must have run and been tagged.
	if infers["strcpy"] == 0 {
		t.Error("strcpy: no infer-phase events")
	}
}

// TestInjectorMetrics checks the registry counters agree with the
// campaign totals.
func TestInjectorMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := DefaultConfig()
	cfg.Metrics = reg
	campaign := traceCampaign(t, cfg, []string{"asctime", "strcpy"})

	totalCalls := 0
	for _, r := range campaign.Results {
		totalCalls += r.Calls
	}
	if got := reg.Counter("healers_injector_experiments_total").Value(); got != int64(totalCalls) {
		t.Errorf("experiments counter = %d, campaign ran %d", got, totalCalls)
	}
	snap := reg.Snapshot()
	h, ok := snap.Histograms["healers_injector_adaptive_iterations"]
	if !ok || h.Count == 0 {
		t.Errorf("adaptive-iterations histogram missing or empty: %+v", snap.Histograms)
	}
	// The sandbox boundary sees every Run — the counted experiments
	// plus the error-return-classification calls — so its outcome total
	// must be at least the experiment count.
	sandbox := reg.Counter("healers_sandbox_returns_total").Value() +
		reg.Counter("healers_sandbox_segfaults_total").Value() +
		reg.Counter("healers_sandbox_hangs_total").Value() +
		reg.Counter("healers_sandbox_aborts_total").Value()
	if sandbox < int64(totalCalls) {
		t.Errorf("sandbox outcomes = %d, want >= %d experiments", sandbox, totalCalls)
	}
}
