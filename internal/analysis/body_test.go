package analysis

import (
	"testing"

	"healers/internal/analysis/bodyscan"
	"healers/internal/clib"
	"healers/internal/corpus"
	"healers/internal/extract"
	"healers/internal/injector"
)

// cachedBodyReport runs the body-seeded double campaign once per test
// binary, against summaries computed live from the clib source.
var cachedBodyReport *Report

func fullBodyReport(t *testing.T) *Report {
	t.Helper()
	if cachedBodyReport != nil {
		return cachedBodyReport
	}
	lib := clib.New()
	ext, err := extract.Run(corpus.Build(lib))
	if err != nil {
		t.Fatal(err)
	}
	sc, err := bodyscan.LoadClib("../clib")
	if err != nil {
		t.Fatal(err)
	}
	sums, err := sc.SummarizeAll(lib.CrashProne86())
	if err != nil {
		t.Fatal(err)
	}
	pred, err := BodyPredict(sums, lib.CrashProne86())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(lib, ext, pred, injector.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cachedBodyReport = rep
	return rep
}

// TestBodySoundness is the static↔dynamic gate for the body-level pass:
// across all 86 functions, no lowered prediction may be stronger than
// (or incomparable to) the dynamically discovered robust type. Unknown
// is a permitted answer; wrong is not.
func TestBodySoundness(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaign")
	}
	rep := fullBodyReport(t)
	if rep.Summary.Funcs != 86 {
		t.Fatalf("analyzed %d functions, want 86", rep.Summary.Funcs)
	}
	for _, fr := range rep.Funcs {
		for _, ar := range fr.Args {
			if ar.Agreement == AgreeWrong {
				t.Errorf("%s arg%d (%s %s): body-predicted %s vs dynamic %s — unsound",
					fr.Name, ar.Index, ar.CType, ar.Param, ar.Predicted, ar.Dynamic)
			}
		}
	}
	if rep.Summary.Exact <= rep.Summary.Weaker {
		t.Errorf("body pass should be mostly exact: exact=%d weaker=%d",
			rep.Summary.Exact, rep.Summary.Weaker)
	}
	t.Logf("body agreement over %d args: exact=%d weaker=%d unknown=%d wrong=%d",
		rep.Summary.Args, rep.Summary.Exact, rep.Summary.Weaker,
		rep.Summary.Unknown, rep.Summary.Wrong)
}

// TestBodyVectorsIdentical: body-derived seeds may only change how fast
// the injector converges, never what it concludes.
func TestBodyVectorsIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaign")
	}
	rep := fullBodyReport(t)
	for _, fr := range rep.Funcs {
		if !fr.VectorIdentical {
			t.Errorf("%s: body-seeded campaign selected a different robust vector (cold %d calls, seeded %d)",
				fr.Name, fr.ColdCalls, fr.SeededCalls)
		}
	}
}

// TestBodySeedingBeatsPrototype: the body-level pass sees concrete
// extents the prototype rules cannot (struct access footprints,
// argument-tracked buffers, char-buffer minimums), so its seeds must
// save at least 20% of the cold campaign's sandboxed calls and strictly
// beat the prototype predictor's seeded campaign.
func TestBodySeedingBeatsPrototype(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaign")
	}
	body := fullBodyReport(t)
	proto := fullReport(t)
	bs, ps := body.Summary, proto.Summary
	if bs.SavedFraction() < 0.20 {
		t.Errorf("body seeding saved %.1f%% of injection calls, want >= 20%% (cold=%d seeded=%d)",
			100*bs.SavedFraction(), bs.ColdCalls, bs.SeededCalls)
	}
	if bs.SeededCalls >= ps.SeededCalls {
		t.Errorf("body-seeded campaign used %d calls, prototype-seeded %d — body pass should seed better",
			bs.SeededCalls, ps.SeededCalls)
	}
	t.Logf("calls cold=%d proto-seeded=%d body-seeded=%d body-saved=%.1f%% jumps=%d confirms=%d misses=%d",
		bs.ColdCalls, ps.SeededCalls, bs.SeededCalls, 100*bs.SavedFraction(),
		bs.SeedJumps, bs.SeedConfirms, bs.SeedMisses)
}
