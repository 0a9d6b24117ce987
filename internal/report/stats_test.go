package report

import (
	"strings"
	"testing"

	"healers/internal/obs"
)

func TestStatsRendersProfileAndMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("healers_wrapper_calls_total").Add(42)
	reg.Histogram("healers_sandbox_steps", []int64{10}).Observe(3)

	roots := []obs.Event{
		{Kind: obs.KindSpan, Phase: "campaign", N: 86, DurUS: 1_000_000},
		{Kind: obs.KindSpan, Phase: "ballista:unwrapped", N: 11995, DurUS: 3_000_000},
	}
	out := Stats(reg, roots)
	for _, want := range []string{
		"Campaign profile — 2 phases, total 4s",
		"campaign", "1s", "25.0%", "(86 items, 86/s)",
		"ballista:unwrapped", "3s", "75.0%", "(11995 items, 3998/s)",
		"Metrics",
		"healers_wrapper_calls_total 42",
		`healers_sandbox_steps_bucket{le="10"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Stats output missing %q:\n%s", want, out)
		}
	}
}

func TestStatsEmptyInputs(t *testing.T) {
	if out := Stats(nil, nil); out != "" {
		t.Errorf("Stats(nil, nil) = %q, want empty", out)
	}
	out := Stats(obs.NewRegistry(), nil)
	if !strings.Contains(out, "(no metrics registered)") {
		t.Errorf("empty registry render = %q", out)
	}
}
