package main

import (
	"fmt"
	"path/filepath"
	"time"

	"healers/internal/apps"
	"healers/internal/ballista"
	"healers/internal/clib"
	"healers/internal/cmem"
	"healers/internal/corpus"
	"healers/internal/csim"
	"healers/internal/decl"
	"healers/internal/extract"
	"healers/internal/gens"
	"healers/internal/injector"
	"healers/internal/obs"
	"healers/internal/typesys"
	"healers/internal/wrapper"
)

// layerSuite runs one loop per layer, each timing calls into that
// module's public functions, and returns the per-layer metrics. Every
// loop checks what it computed; a wrong answer counts as a failed op.
// The same loops run in every workload's traced run, so a layer's
// numbers mean the same thing whichever workload reports them.
func layerSuite(e *env, rec *recorder) ([]metric, error) {
	lib, ext, err := newSystem()
	if err != nil {
		return nil, err
	}
	golden, err := loadGoldenVectors(e.root)
	if err != nil {
		return nil, err
	}
	semi, camp, err := setupDecls(e, lib, ext, golden)
	if err != nil {
		return nil, err
	}
	var out []metric
	for _, layer := range []func() ([]metric, error){
		func() ([]metric, error) { return extractLayer(lib) },
		func() ([]metric, error) { return injectorLayer(e, ext, lib.CrashProne86(), golden, rec) },
		func() ([]metric, error) { return substrateLayers(e, lib, rec) },
		func() ([]metric, error) { return diskCacheLayer(e, camp) },
		func() ([]metric, error) { return wrapperLayer(e, lib, semi, rec) },
		func() ([]metric, error) { return ballistaLayer(e, lib, ext, semi, rec) },
		func() ([]metric, error) { return appsLayer(e, lib, semi, rec) },
		func() ([]metric, error) { return serveLayer(e, rec) },
	} {
		ms, err := layer()
		if err != nil {
			return nil, err
		}
		out = append(out, ms...)
	}
	return out, nil
}

// layerRuns is how often the heavier layer loops (campaigns, Ballista
// matrices, Table 2 pairs) repeat: three times, for a median, when the
// run is long enough to hold them next to the workload's own loop, and
// once in a run of a few seconds.
func layerRuns(e *env) int {
	if e.dur >= 10*time.Second {
		return 3
	}
	return 1
}

// perOp times batches of n calls of fn, running prep untimed before each
// batch, and returns the median cost of one call in nanoseconds.
func perOp(batches, n int, prep, fn func()) (float64, int) {
	xs := make([]float64, 0, batches)
	for b := 0; b < batches; b++ {
		if prep != nil {
			prep()
		}
		start := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		xs = append(xs, float64(time.Since(start).Nanoseconds())/float64(n))
	}
	return median(xs), batches * n
}

// check counts a layer loop's self-check as one op.
func check(e *env, rec *recorder, ok bool, what string) {
	if !ok {
		fmt.Fprintf(e.log, "layers: %s: wrong result\n", what)
	}
	rec.outcome(ok)
}

func extractLayer(lib *clib.Library) ([]metric, error) {
	c := corpus.Build(lib)
	var xs []float64
	for i := 0; i < 20; i++ {
		start := time.Now()
		if _, err := extract.Run(c); err != nil {
			return nil, err
		}
		xs = append(xs, ms(time.Since(start)))
	}
	return []metric{{Name: "extract.run_ms", Unit: "ms", Value: median(xs), N: len(xs)}}, nil
}

// injectorLayer runs sequential cold campaigns, each against a fresh
// metrics registry and an empty result cache (so the cache phase is
// timed as a serve campaign pays it). Sequentially, the phase histograms
// partition one thread's wall, so the campaign wall minus their sum is
// the unattributed time.
func injectorLayer(e *env, ext *extract.Result, names []string, golden map[string]string, rec *recorder) ([]metric, error) {
	samples := make(map[string][]float64)
	runs := layerRuns(e)
	for i := 0; i < runs; i++ {
		reg := obs.NewRegistry()
		cfg := injector.DefaultConfig()
		cfg.Metrics = reg
		cfg.Cache = injector.NewResultCache()
		start := time.Now()
		camp, err := injector.New(clib.New(), cfg).InjectAll(ext, names)
		wall := ms(time.Since(start))
		if err != nil {
			return nil, err
		}
		check(e, rec, wrongLines(camp.VectorSignature(), golden, names) == 0, "sequential campaign")
		snap := reg.Snapshot()
		attributed := 0.0
		for _, ph := range injectorPhases {
			v := float64(snap.Histograms["healers_phase_"+ph+"_us"].Sum) / 1e3
			samples["injector.phase_"+ph+"_ms"] = append(samples["injector.phase_"+ph+"_ms"], v)
			attributed += v
		}
		samples["injector.unattributed_ms"] = append(samples["injector.unattributed_ms"], wall-attributed)
		samples["injector.experiments"] = append(samples["injector.experiments"],
			float64(snap.Counters["healers_injector_experiments_total"]))
		// Builds each checkpoint saved: prefix builds avoided per
		// checkpoint build.
		samples["injector.checkpoint_reuse"] = append(samples["injector.checkpoint_reuse"],
			float64(snap.Counters["healers_injector_checkpoint_builds_avoided_total"])/
				float64(max(snap.Counters["healers_injector_checkpoints_total"], 1)))
		copied := int64(0)
		for _, r := range camp.Results {
			copied += r.Fork.PagesCopied
		}
		samples["cmem.pages_copied"] = append(samples["cmem.pages_copied"], float64(copied))
	}
	var out []metric
	for _, name := range sortedKeys(samples) {
		unit := unitOf(name)
		if name == "injector.checkpoint_reuse" {
			unit = "ratio"
		}
		out = append(out, metric{Name: name, Unit: unit, Value: median(samples[name]), N: runs})
	}
	return out, nil
}

// substrateLayers times the simulated substrate the injector stands on:
// copy-on-write forks (cmem), one sandboxed call (csim), one probe
// build (gens), and one robust-type selection (typesys).
func substrateLayers(e *env, lib *clib.Library, rec *recorder) ([]metric, error) {
	tpl := injector.NewTemplateProcess()
	s, err := tpl.Mem.MmapRegion(16, cmem.ProtRW)
	if err != nil {
		return nil, err
	}
	if f := tpl.Mem.WriteCString(s, "hello world"); f != nil {
		return nil, f
	}
	var out []metric
	add := func(name, unit string, perOpNS float64, n int, scale float64) {
		out = append(out, metric{Name: name, Unit: unit, Value: perOpNS / scale, N: n})
	}

	v, n := perOp(30, 2000, nil, func() { tpl.Mem.Clone().Release() })
	add("cmem.clone_ns", "ns", v, n, 1)

	bad := 0
	v, n = perOp(30, 500, nil, func() {
		child := tpl.Fork()
		out := child.Run(func() uint64 { return lib.Call(child, "strlen", uint64(s)) })
		if out.Kind != csim.OutcomeReturn || out.Ret != 11 {
			bad++
		}
		child.Release()
	})
	check(e, rec, bad == 0, "csim sandboxed strlen")
	add("csim.sandbox_call_ns", "ns", v, n, 1)

	// A 44-byte read-only region flush against its guard page: the
	// asctime probe. Each batch builds into one fork, so the loop times
	// Build alone.
	pr := gens.SizedProbe(gens.NewArrayGen(4096, 64), 44, cmem.ProtRead)
	var child *csim.Process
	bad = 0
	v, n = perOp(30, 64, func() {
		if child != nil {
			child.Release()
		}
		child = tpl.Fork()
	}, func() {
		if pr.Build(child) == 0 || pr.Region.Size != 44 {
			bad++
		}
	})
	child.Release()
	check(e, rec, bad == 0, "gens probe build")
	add("gens.probe_build_ns", "ns", v, n, 1)

	sizes := []int{0, 8, 16, 24, 32, 40, 43, 44, 48, 152}
	h := typesys.BuildArrayHierarchy(sizes)
	cases, err := asctimeCases(h, sizes)
	if err != nil {
		return nil, err
	}
	bad = 0
	v, n = perOp(20, 50, nil, func() {
		rt, err := h.RobustType(cases, typesys.RobustOptions{Conservative: true})
		if err != nil || rt.Name() != typesys.NameRArrayNull(44) {
			bad++
		}
	})
	check(e, rec, bad == 0, "typesys asctime robust type")
	add("typesys.robust_type_us", "us", v, n, 1e3)
	return out, nil
}

// asctimeCases labels the experiments of the paper's running example:
// readable regions of at least 44 bytes succeed, NULL returns an error,
// everything smaller or unreadable crashes. The conservative robust
// type is R_ARRAY_NULL[44].
func asctimeCases(h *typesys.Hierarchy, sizes []int) ([]typesys.Case, error) {
	var cases []typesys.Case
	add := func(name string, o typesys.CaseOutcome) error {
		t, ok := h.Lookup(name)
		if !ok {
			return fmt.Errorf("typesys: hierarchy lacks %s", name)
		}
		cases = append(cases, typesys.Case{Fund: t, Outcome: o})
		return nil
	}
	for _, s := range sizes {
		o := typesys.Crash
		if s >= 44 {
			o = typesys.Success
		}
		for _, c := range []struct {
			name string
			o    typesys.CaseOutcome
		}{{typesys.NameROnlyFixed(s), o}, {typesys.NameRWFixed(s), o}, {typesys.NameWOnlyFixed(s), typesys.Crash}} {
			if err := add(c.name, c.o); err != nil {
				return nil, err
			}
		}
	}
	if err := add(typesys.TypeNull, typesys.ErrorReturn); err != nil {
		return nil, err
	}
	return cases, add(typesys.TypeInvalid, typesys.Crash)
}

// diskCacheLayer times the persistent result cache on files in the
// scratch directory: one Put of a campaign result, the Sync that commits
// a campaign's 86 puts, and opening a 172-entry file (the 86 results
// under two keys each, as cold and static-seeded campaigns leave it).
func diskCacheLayer(e *env, camp *injector.Campaign) ([]metric, error) {
	dc, err := injector.OpenDiskCache(filepath.Join(e.tmp, "layer-put.jsonl"))
	if err != nil {
		return nil, err
	}
	var puts, syncs []float64
	const rounds = 5
	for round := 0; round < rounds; round++ {
		for _, name := range camp.Order {
			start := time.Now()
			dc.Put(fmt.Sprintf("bench-%d|%s", round, name), camp.Results[name])
			puts = append(puts, float64(time.Since(start).Nanoseconds())/1e3)
		}
		start := time.Now()
		if err := dc.Sync(); err != nil {
			dc.Close()
			return nil, err
		}
		syncs = append(syncs, ms(time.Since(start)))
	}
	st := dc.Stats()
	if err := dc.Close(); err != nil {
		return nil, err
	}
	if st.Dropped != 0 || st.Entries != int64(rounds*len(camp.Order)) {
		return nil, fmt.Errorf("diskcache: %d entries, %d dropped after %d puts", st.Entries, st.Dropped, rounds*len(camp.Order))
	}

	path := filepath.Join(e.tmp, "layer-open.jsonl")
	if dc, err = injector.OpenDiskCache(path); err != nil {
		return nil, err
	}
	for _, prefix := range []string{"cold", "static"} {
		for _, name := range camp.Order {
			dc.Put(prefix+"|"+name, camp.Results[name])
		}
	}
	if err := dc.Close(); err != nil {
		return nil, err
	}
	want := 2 * len(camp.Order)
	var opens []float64
	for i := 0; i < 10; i++ {
		start := time.Now()
		dc, err := injector.OpenDiskCache(path)
		if err != nil {
			return nil, err
		}
		opens = append(opens, ms(time.Since(start)))
		n := dc.Len()
		if err := dc.Close(); err != nil {
			return nil, err
		}
		if n != want {
			return nil, fmt.Errorf("diskcache: reopened %d entries, want %d", n, want)
		}
	}
	return []metric{
		{Name: "diskcache.put_us", Unit: "us", Value: median(puts), N: len(puts)},
		{Name: "diskcache.sync_ms", Unit: "ms", Value: median(syncs), N: len(syncs)},
		{Name: "diskcache.open_ms", Unit: "ms", Value: median(opens), N: len(opens)},
	}, nil
}

// wrapperLayer times one wrapped call per robust-type family under the
// semi-automatic declarations: an undeclared function (passthru), a
// checked string (strlen), a checked array (memcpy), a checked FILE
// (fputc), a NULL string rejected, and an unterminated read-only string
// healed by redirection. The interposer's own counters confirm each
// loop took the intended path.
func wrapperLayer(e *env, lib *clib.Library, semi *decl.DeclSet, rec *recorder) ([]metric, error) {
	p := csim.NewProcess(csim.NewFS())
	// Steps accumulate over every call; the hang detector must not fire.
	p.SetStepBudget(1 << 62)
	cstr := func(s string) (uint64, error) {
		a, err := p.Mem.MmapRegion(len(s)+1, cmem.ProtRW)
		if err != nil {
			return 0, err
		}
		if f := p.Mem.WriteCString(a, s); f != nil {
			return 0, f
		}
		return uint64(a), nil
	}
	hello, err := cstr("hello world")
	if err != nil {
		return nil, err
	}
	path, err := cstr("/bench.out")
	if err != nil {
		return nil, err
	}
	mode, err := cstr("w")
	if err != nil {
		return nil, err
	}
	unterm := gens.UntermProbe(32).Build(p)
	if unterm == 0 {
		return nil, fmt.Errorf("wrapper: building an unterminated string failed")
	}
	if d, ok := semi.Get("abs"); ok && d.Unsafe() {
		return nil, fmt.Errorf("wrapper: abs is declared unsafe; pick another passthru function")
	}

	ip := wrapper.Attach(p, lib, semi, wrapper.DefaultOptions())
	src, dst := ip.Call(p, "malloc", 64), ip.Call(p, "malloc", 64)
	fp := ip.Call(p, "fopen", path, mode)
	if src == 0 || dst == 0 || fp == 0 {
		return nil, fmt.Errorf("wrapper: setting up buffers and a FILE failed")
	}

	const batches, n = 30, 2000
	var out []metric
	// steady times one family on the shared interposer; stat picks the
	// counter that must grow by one per call.
	steady := func(family string, stat func(wrapper.Stats) int, call func() bool) {
		before, bad := stat(ip.Stats()), 0
		v, cnt := perOp(batches, n, nil, func() {
			if !call() {
				bad++
			}
		})
		check(e, rec, bad == 0 && stat(ip.Stats())-before == cnt, "wrapper "+family)
		out = append(out, metric{Name: "wrapper.call_ns." + family, Unit: "ns", Value: v, N: cnt})
	}
	steady("passthru", func(s wrapper.Stats) int { return s.Passthru }, func() bool { return ip.Call(p, "abs", 7) == 7 })
	steady("cstr", func(s wrapper.Stats) int { return s.Checked }, func() bool { return ip.Call(p, "strlen", hello) == 11 })
	steady("array", func(s wrapper.Stats) int { return s.Checked }, func() bool { return ip.Call(p, "memcpy", dst, src, 16) == dst })
	steady("file", func(s wrapper.Stats) int { return s.Checked }, func() bool { return ip.Call(p, "fputc", 'x', fp) == 'x' })

	// Rejections and heals append to the interposer's logs, so each
	// batch gets a fresh interposer and the logs stay batch-sized.
	fresh := func(family string, mode wrapper.Mode, stat func(wrapper.Stats) int, args ...uint64) {
		var w *wrapper.Interposer
		bad := 0
		v, cnt := perOp(batches, n, func() {
			if w != nil && stat(w.Stats()) != n {
				bad++
			}
			opts := wrapper.DefaultOptions()
			opts.Mode = mode
			w = wrapper.Attach(p, lib, semi, opts)
		}, func() { w.Call(p, "strlen", args...) })
		check(e, rec, bad == 0 && stat(w.Stats()) == n, "wrapper "+family)
		out = append(out, metric{Name: "wrapper.call_ns." + family, Unit: "ns", Value: v, N: cnt})
	}
	fresh("reject", wrapper.ModeReject, func(s wrapper.Stats) int { return s.Rejected }, 0)
	fresh("heal", wrapper.ModeHeal, func(s wrapper.Stats) int { return s.Healed }, unterm)
	return out, nil
}

// ballistaLayer runs the tests of every eighth function under each
// strategy-matrix configuration and reports the time per test.
func ballistaLayer(e *env, lib *clib.Library, ext *extract.Result, semi *decl.DeclSet, rec *recorder) ([]metric, error) {
	suite, err := ballista.Generate(lib, ext, 0)
	if err != nil {
		return nil, err
	}
	suite.Trim(11995)
	golden, err := loadGoldenMatrix(e.root)
	if err != nil {
		return nil, err
	}
	w := &ballistaMatrix{lib: lib, semi: semi, suite: suite, template: ballista.NewTemplate(), golden: golden}
	var funcs []string
	for i, f := range suite.SortedFuncs() {
		if i%8 == 0 {
			funcs = append(funcs, f)
		}
	}
	sub := subSuite(suite, funcs)
	samples := make([][]float64, len(matrixConfigs))
	runs := layerRuns(e)
	for i := 0; i < runs; i++ {
		wrong, _, walls := runMatrix(e, w, sub, 0)
		check(e, rec, wrong == 0, "ballista matrix rows")
		for ci, d := range walls {
			samples[ci] = append(samples[ci], float64(d.Nanoseconds())/1e3/float64(len(sub.Tests)))
		}
	}
	var out []metric
	for ci, config := range []string{"unwrapped", "reject", "heal", "introspect"} {
		out = append(out, metric{Name: "ballista.test_us." + config, Unit: "us", Value: median(samples[ci]), N: runs * len(sub.Tests)})
	}
	return out, nil
}

// appsLayer runs Table 2 rounds with the timing caller and reports per
// application the median slowdown, the wrapped call count, and the share
// of the wrapped run spent in the wrapper's checks (time inside calls,
// wrapped minus unwrapped, over the wrapped wall).
func appsLayer(e *env, lib *clib.Library, semi *decl.DeclSet, rec *recorder) ([]metric, error) {
	rounds := layerRuns(e)
	var out []metric
	for _, prof := range apps.All() {
		var slowdown, share []float64
		calls := 0
		for r := 0; r < rounds; r++ {
			plain, wrapped := runPair(e, lib, semi, prof, r%2 == 1, true, 0, rec)
			slowdown = append(slowdown, wrapped.wall.Seconds()/plain.wall.Seconds())
			share = append(share, (wrapped.inCalls-plain.inCalls).Seconds()/wrapped.wall.Seconds())
			calls = len(wrapped.rets)
		}
		out = append(out,
			metric{Name: "apps.slowdown." + prof.Name, Unit: "ratio", Value: median(slowdown), N: rounds},
			metric{Name: "apps.calls." + prof.Name, Unit: "count", Value: float64(calls), N: rounds, Detail: true},
			metric{Name: "wrapper.check_share." + prof.Name, Unit: "ratio", Value: median(share), N: rounds},
		)
	}
	return out, nil
}

// serveLayer runs one short serve cycle and reports the client-side
// spans of its steps plus the cache hit ratio the child exposes on
// /metrics. (Single-flight joins need two identical computations at the
// same instant; they are zero in most short cycles, so they are a
// detail line of the serve-cycle run, not a layer metric.)
func serveLayer(e *env, rec *recorder) ([]metric, error) {
	w := &serveCycle{clients: 2, opsPerClient: 15}
	if err := w.setup(e); err != nil {
		return nil, err
	}
	r := newRecorder()
	if err := w.iteration(e, 0, 0, r); err != nil {
		return nil, err
	}
	rec.mu.Lock()
	rec.attempted += r.attempted
	rec.failed += r.failed
	rec.mu.Unlock()
	var out []metric
	for _, name := range []string{
		"serve.post_ms", "serve.done_wait_ms", "serve.vectors_ms", "serve.ready_empty_ms",
		"serve.drain_ms", "serve.cold_ms", "serve.restart_ms", "serve.warm_ms",
		"cache.hit_ratio",
	} {
		xs := r.samples[name]
		if len(xs) == 0 {
			return nil, fmt.Errorf("serve layer: no %s sample", name)
		}
		out = append(out, metric{Name: name, Unit: unitOf(name), Value: median(xs), N: len(xs)})
	}
	return out, nil
}
