package injector

import (
	"testing"

	"healers/internal/cmem"
	"healers/internal/gens"
)

// fixtureExperimentAllocBudget bounds the allocations of one fixture
// experiment's filesystem work: fork the campaign template, build the
// FILE default (the fixture opened "r+"), privatize it for a one-byte
// write, release: 1 measured, with or without the race detector.
// Before released first-write buffers were reused, re-creating an
// unchanged fixture was a no-op and descriptors lived in a slice, the
// sequence made 13 allocations plus an 8 KiB copy; before a released
// Memory parked its heap table and index for the next fork's first
// Malloc, 5.
const fixtureExperimentAllocBudget = 2

// TestFixtureExperimentAllocations pins the structural property behind
// a cold campaign's byte diet: a bare fork, the fixture open and the
// first write each allocate what the budget leaves them, and the write
// allocates nothing at all — its copy lands in a buffer an earlier
// experiment released.
func TestFixtureExperimentAllocations(t *testing.T) {
	tpl := NewTemplateProcess()
	defer tpl.Release()
	probe := gens.NewFileGen("").Default()
	run := func(open, write bool) float64 {
		return testing.AllocsPerRun(200, func() {
			c := tpl.Fork()
			if open {
				fp := cmem.Addr(probe.Build(c))
				if fp == 0 {
					t.Fatal("the fixture did not open")
				}
				if write {
					of := c.FD(c.FILEFd(fp))
					c.PrivatizeForWrite(of)
					of.File.Data[0] = 'X'
				}
			}
			c.Release()
		})
	}
	fork, open, write := run(false, false), run(true, false), run(true, true)
	t.Logf("allocations: fork %.0f, with the fixture open %.0f, with a first write %.0f (budget %d)",
		fork, open, write, fixtureExperimentAllocBudget)
	if write > open {
		t.Errorf("the first write allocates %.0f times, want 0", write-open)
	}
	if write > fixtureExperimentAllocBudget {
		t.Errorf("a fixture experiment allocates %.0f times, budget %d", write, fixtureExperimentAllocBudget)
	}
	if f, _ := tpl.FS.Lookup(gens.DefaultFixturePath); f.Data[0] == 'X' {
		t.Error("a child's write reached the template's fixture")
	}
}
