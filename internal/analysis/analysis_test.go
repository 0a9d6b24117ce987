package analysis

import (
	"testing"

	"healers/internal/clib"
	"healers/internal/corpus"
	"healers/internal/extract"
	"healers/internal/injector"
)

// cachedReport runs the double (cold + seeded) campaign once per test
// binary; the full pipeline costs a few seconds.
var cachedReport *Report

func fullReport(t *testing.T) *Report {
	t.Helper()
	if cachedReport != nil {
		return cachedReport
	}
	lib := clib.New()
	ext, err := extract.Run(corpus.Build(lib))
	if err != nil {
		t.Fatal(err)
	}
	pred, err := Predict(ext, lib.CrashProne86())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(lib, ext, pred, injector.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cachedReport = rep
	return rep
}

// TestZeroWrongPredictions is the soundness acceptance bar: across all
// 86 functions no static prediction may be stronger than (or
// incomparable to) the dynamically discovered type. UNKNOWN is fine;
// wrong is not.
func TestZeroWrongPredictions(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaign")
	}
	rep := fullReport(t)
	if rep.Summary.Funcs != 86 {
		t.Fatalf("analyzed %d functions, want 86", rep.Summary.Funcs)
	}
	for _, fr := range rep.Funcs {
		for _, ar := range fr.Args {
			if ar.Agreement == AgreeWrong {
				t.Errorf("%s arg%d (%s %s): predicted %s vs dynamic %s — unsound",
					fr.Name, ar.Index, ar.CType, ar.Param, ar.Predicted, ar.Dynamic)
			}
		}
	}
	t.Logf("agreement over %d args: exact=%d weaker=%d unknown=%d wrong=%d",
		rep.Summary.Args, rep.Summary.Exact, rep.Summary.Weaker,
		rep.Summary.Unknown, rep.Summary.Wrong)
}

// TestSeededVectorsIdentical is the seeding invariant: static seeds may
// only change how fast the injector converges, never what it concludes.
func TestSeededVectorsIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaign")
	}
	rep := fullReport(t)
	for _, fr := range rep.Funcs {
		if !fr.VectorIdentical {
			t.Errorf("%s: seeded campaign selected a different robust vector (cold %d calls, seeded %d)",
				fr.Name, fr.ColdCalls, fr.SeededCalls)
		}
	}
}

// TestSeedingSavesInjectionCalls asserts the seeded campaign does
// measurably less sandboxed work.
func TestSeedingSavesInjectionCalls(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaign")
	}
	rep := fullReport(t)
	s := rep.Summary
	if s.SeededCalls >= s.ColdCalls {
		t.Errorf("seeded campaign used %d calls, cold %d — no savings", s.SeededCalls, s.ColdCalls)
	}
	if s.SeedJumps == 0 {
		t.Error("no chain ever jumped to a predicted size")
	}
	t.Logf("calls cold=%d seeded=%d saved=%d (%.1f%%) jumps=%d confirms=%d misses=%d",
		s.ColdCalls, s.SeededCalls, s.SavedCalls(), 100*s.SavedFraction(),
		s.SeedJumps, s.SeedConfirms, s.SeedMisses)
}

// TestWrapperCheckerPassesOnEmittedSource: the verifier must accept
// what wrapgen actually generates for the whole corpus.
func TestWrapperCheckerPassesOnEmittedSource(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaign")
	}
	rep := fullReport(t)
	if rep.Summary.WrappersChecked == 0 {
		t.Fatal("no wrappers were checked")
	}
	for _, issue := range rep.Summary.WrapperIssues {
		t.Errorf("emitted wrapper failed verification: %s", issue)
	}
}
