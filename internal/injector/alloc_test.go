package injector

import (
	"runtime"
	"testing"

	"healers/internal/clib"
	"healers/internal/cmem"
	"healers/internal/corpus"
	"healers/internal/extract"
)

// campaignAllocBudget bounds the heap allocations of one sequential
// cold 86-function campaign, extraction excluded: 47.6k measured and
// 52.0k under -race, so the budget leaves room for the race detector's
// sync.Pool drops and collector timing. Before hierarchies were built
// from slabs and the argument vector reused, the campaign made 164.2k;
// before first writes reused released files, unchanged fixtures were
// re-created as no-ops and descriptors lived in a slice, 97.2k; before
// a released Memory parked its heap containers and experiments
// recorded into a parked run slab, 72.3k; before faults were reported
// through a slot of the faulting Memory, string probes terminated
// their payload once, open-file descriptions lived in the process and
// fopen parsed its strings in place, 55.9k.
const campaignAllocBudget = 54_000

// campaignByteBudget bounds the bytes the same campaign allocates
// without the race detector: 6.5 MB measured. Before the fixture bytes
// were shared copy-on-write from creation, each FILE probe build
// copied the 8 KiB fixture twice and the campaign allocated 24.7 MB;
// before a first write's copy landed in a released buffer, 15.7 MB;
// before the heap containers and run slabs were parked, 8.3 MB; before
// the allocation-free faults and string probes, 6.9 MB. So either kind
// of fixture copy coming back fails the budget.
const campaignByteBudget = 7_000_000

// TestCampaignAllocationBudget pins the allocations and allocated bytes
// of one sequential cold campaign, so that per-type hierarchy
// construction, a per-experiment argument vector or a fixture copy
// coming back shows as a failure rather than as a slower benchmark.
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
	campaign := func() {
		if _, err := New(lib, DefaultConfig()).InjectAll(ext, funcs); err != nil {
			t.Fatal(err)
		}
	}
	// As testing.AllocsPerRun does: one goroutine at a time, and a
	// warm-up campaign first so pools and lazily built tables are
	// filled before the measured one.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	campaign()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	campaign()
	runtime.ReadMemStats(&after)
	allocs, bytes := after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
	t.Logf("%d allocations and %.1f MB per campaign (budgets %d and %.1f MB)",
		allocs, float64(bytes)/1e6, campaignAllocBudget, float64(campaignByteBudget)/1e6)
	if allocs > campaignAllocBudget {
		t.Errorf("a cold campaign allocates %d times, budget %d", allocs, campaignAllocBudget)
	}
	if bytes > campaignByteBudget && !raceEnabled {
		t.Errorf("a cold campaign allocates %d bytes, budget %d", bytes, campaignByteBudget)
	}
}

// TestColdCampaignKeepsZeroPagesZero runs a cold campaign, whose probe
// regions, stacks and heap blocks are mapped as shared zero pages, and
// then audits them: none may hold a byte or sit in the page pool.
func TestColdCampaignKeepsZeroPagesZero(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full campaign")
	}
	lib := clib.New()
	ext, err := extract.Run(corpus.Build(lib))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(lib, DefaultConfig()).InjectAll(ext, lib.CrashProne86()); err != nil {
		t.Fatal(err)
	}
	if err := cmem.CheckZeroPages(); err != nil {
		t.Error(err)
	}
}
