package injector

import (
	"testing"

	"healers/internal/clib"
	"healers/internal/corpus"
	"healers/internal/extract"
)

// campaignAllocBudget bounds the heap allocations of one sequential
// cold 86-function campaign, extraction excluded: 103.0k measured, with
// room for the race detector's sync.Pool drops and collector timing.
// Before hierarchies were built from slabs and the argument vector
// reused, the campaign made 164.2k.
const campaignAllocBudget = 115_000

// TestCampaignAllocationBudget pins the allocations of one sequential
// cold campaign, so that per-type hierarchy construction or a
// per-experiment argument vector coming back shows as a failure rather
// than as a slower benchmark.
func TestCampaignAllocationBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two full campaigns")
	}
	lib := clib.New()
	ext, err := extract.Run(corpus.Build(lib))
	if err != nil {
		t.Fatal(err)
	}
	funcs := lib.CrashProne86()
	allocs := testing.AllocsPerRun(1, func() {
		if _, err := New(lib, DefaultConfig()).InjectAll(ext, funcs); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocations per campaign (budget %d)", allocs, campaignAllocBudget)
	if allocs > campaignAllocBudget {
		t.Errorf("a cold campaign allocates %.0f times, budget %d", allocs, campaignAllocBudget)
	}
}
