package main

import (
	"fmt"
	"math/rand"
	"time"

	"healers/internal/clib"
	"healers/internal/extract"
	"healers/internal/injector"
	"healers/internal/obs"
)

// injectorPhases are the campaign phases the injector times into its
// healers_phase_<name>_us histograms.
var injectorPhases = []string{"fork", "materialize", "probe", "cache", "merge"}

// injectCold is the hardener's path: one caller runs cold 86-function
// campaigns back to back, in a seeded function order, with no cache.
type injectCold struct {
	ext    *extract.Result
	names  []string
	golden map[string]string
	rng    *rand.Rand
}

func (w *injectCold) setup(e *env) error {
	lib, ext, err := newSystem()
	if err != nil {
		return err
	}
	golden, err := loadGoldenVectors(e.root)
	if err != nil {
		return err
	}
	w.ext, w.names, w.golden = ext, lib.CrashProne86(), golden
	w.rng = rand.New(rand.NewSource(e.seed))
	// One checked campaign warms the page pool and the heap, so the loop
	// measures steady-state campaigns.
	camp, _, err := w.campaign(e, nil)
	if err != nil {
		return err
	}
	if n := wrongLines(camp.VectorSignature(), golden, w.names); n > 0 {
		return fmt.Errorf("warm-up campaign: %d functions differ from %s", n, goldenVectorsPath)
	}
	return nil
}

// campaign runs one cold campaign over a fresh shuffle of the 86,
// recording its phase histograms into reg when reg is not nil.
func (w *injectCold) campaign(e *env, reg *obs.Registry) (*injector.Campaign, []string, error) {
	names := append([]string(nil), w.names...)
	w.rng.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
	cfg := injector.DefaultConfig()
	cfg.Workers = e.workers
	cfg.LibFactory = clib.New
	if reg != nil {
		cfg.Metrics = reg
	}
	camp, err := injector.New(clib.New(), cfg).InjectAll(w.ext, names)
	return camp, names, err
}

func (w *injectCold) iteration(e *env, it int, parent spanID, rec *recorder) error {
	var reg *obs.Registry
	if e.tr != nil {
		reg = obs.NewRegistry()
	}
	sp := e.tr.start("injector.InjectAll", parent)
	start := time.Now()
	camp, names, err := w.campaign(e, reg)
	d := time.Since(start)
	e.tr.end(sp)
	if reg != nil {
		tracePhases(e, sp, reg)
	}
	if err != nil {
		fmt.Fprintf(e.log, "inject-cold: campaign %d: %v\n", it, err)
		rec.outcome(false)
		return nil
	}
	sp = e.tr.start("bench.check_vectors", parent)
	wrong := wrongLines(camp.VectorSignature(), w.golden, names)
	e.tr.end(sp)
	if wrong > 0 {
		fmt.Fprintf(e.log, "inject-cold: campaign %d: %d functions differ from %s\n", it, wrong, goldenVectorsPath)
	}
	rec.outcome(wrong == 0)
	rec.latency(d)
	calls := 0
	for _, r := range camp.Results {
		calls += r.Calls
	}
	rec.addWork(float64(calls), d)
	return nil
}

// tracePhases splits a traced campaign's span into the injector's own
// phases. The phase histograms add up busy time over all workers, so
// each phase gets its busy time divided by the worker count, laid end to
// end from the span's start; what is left of the span is the injector's
// unattributed time.
func tracePhases(e *env, sp spanID, reg *obs.Registry) {
	snap := reg.Snapshot()
	var offset time.Duration
	for _, ph := range injectorPhases {
		busy := time.Duration(snap.Histograms["healers_phase_"+ph+"_us"].Sum) * time.Microsecond
		share := busy / time.Duration(e.workers)
		e.tr.derived("injector.phase_"+ph, sp, offset, share)
		offset += share
	}
}
