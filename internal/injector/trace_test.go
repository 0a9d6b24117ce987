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

// TestTraceReconcilesWithCampaign is the ISSUE's reconciliation
// criterion: the JSONL trace's per-function probe and outcome counts
// must equal the campaign's per-function experiment counts exactly.
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
	phases := 0
	var lastSeq uint64
	for _, e := range events {
		if e.Seq <= lastSeq {
			t.Fatalf("sequence not monotonic: %d after %d", e.Seq, lastSeq)
		}
		lastSeq = e.Seq
		switch e.Kind {
		case obs.KindInjectionProbe:
			probes[e.Func]++
		case obs.KindSandboxOutcome:
			outcomes[e.Func]++
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
