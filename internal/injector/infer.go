package injector

import (
	"strings"
	"time"

	"healers/internal/cmem"
	"healers/internal/csim"
	"healers/internal/decl"
	"healers/internal/gens"
	"healers/internal/obs"
)

// Dependent-size inference. Fault injection with the other arguments
// fixed yields a *fixed* minimal size (e.g. 6 bytes for strcpy's dest
// under a 5-byte default source). By re-running the adaptive growth
// chain under perturbed sibling arguments, the injector discovers how
// the minimal size *depends* on them — strlen(src)+1 for strcpy, n for
// strncpy, size*nmemb for fread — and records a size expression the
// wrapper evaluates per call. This automates what the paper otherwise
// leaves to manual declaration editing.

// measureMinimal runs a fresh growth chain for argument target with the
// given probe overrides on the other arguments and returns the minimal
// region size that lets the function return, or ok=false if the chain
// never succeeds.
// runChild forks a fresh child (through the checkpoint tree when
// enabled — re-measurement vectors share their default-probe prefixes
// with the exploration phase), materializes the probes the checkpoint
// has not already built, and calls the function under test, releasing
// the child's pages before returning. ok is false when materialization
// failed (a harness problem, not an experiment); errnoSet reports the
// child's errno observation after the call.
func (c *campaign) runChild(probes []*gens.Probe) (out csim.Outcome, errnoSet bool, ok bool) {
	timed := c.inj.timed
	var forkStart time.Time
	if timed {
		forkStart = time.Now() //healers:allow-nondeterminism fork-phase latency histogram, reporting only
	}
	order := c.buildOrder(probes)
	child, node := c.forkChild(probes, order)
	if timed {
		c.inj.hPhaseFork.ObserveEx(time.Since(forkStart).Microseconds(), c.span.Trace)
	}
	defer child.Release()
	child.SetStepBudget(c.inj.cfg.StepBudget)
	args := make([]uint64, len(probes))
	var mask uint64
	if node != nil {
		mask = node.mask
		copy(args, node.vals)
	}
	var matStart time.Time
	if timed {
		matStart = time.Now() //healers:allow-nondeterminism materialize-phase latency histogram, reporting only
	}
	mat := child.Run(func() uint64 {
		// Builds run in the vector's build order; positions the
		// checkpoint already holds (its mask) are skipped, pure probes
		// are rebuilt for free.
		for _, k := range order {
			if mask&(1<<uint(k)) == 0 {
				args[k] = probes[k].Build(child)
			}
		}
		return 0
	})
	if timed {
		c.inj.hPhaseMaterialize.ObserveEx(time.Since(matStart).Microseconds(), c.span.Trace)
	}
	if mat.Kind != csim.OutcomeReturn {
		return csim.Outcome{}, false, false
	}

	// Re-measurement calls are sandboxed experiments like any other:
	// they count toward the campaign's call total and appear in the
	// trace, so the seeded-vs-cold savings accounting (and the trace
	// reconciliation invariant) cover the dependent-size phase too.
	traced := c.inj.tr.Enabled()
	probeLabel := ""
	var psc obs.SpanContext
	if traced {
		funds := make([]string, len(probes))
		for i, p := range probes {
			funds[i] = p.Fund
		}
		probeLabel = strings.Join(funds, ", ")
		psc = obs.SpanContext{Trace: child.Mem.TraceID, Span: child.Mem.SpanID}.Child()
		c.inj.tr.Emit(psc.Tag(obs.Event{
			Kind:  obs.KindInjectionProbe,
			Func:  c.fn.Name,
			Arg:   -1,
			Phase: "infer",
			Probe: probeLabel,
		}))
	}

	child.ClearErrno()
	var callStart time.Time
	if timed || traced {
		callStart = time.Now() //healers:allow-nondeterminism probe-phase latency histogram, reporting only
	}
	out = child.Run(func() uint64 { return c.fn.Impl(child, args) })
	var callDurUS int64
	if timed || traced {
		callDurUS = time.Since(callStart).Microseconds()
	}
	if timed {
		c.inj.hPhaseProbe.ObserveEx(callDurUS, c.span.Trace)
	}
	c.result.Calls++
	c.inj.mExperiments.Inc()
	if traced {
		ev := psc.Tag(obs.Event{
			Kind:    obs.KindSandboxOutcome,
			Func:    c.fn.Name,
			Arg:     -1,
			Phase:   "infer",
			Probe:   probeLabel,
			Outcome: out.Kind.String(),
			Steps:   out.Steps,
			TS:      callStart.UnixMicro(),
			DurUS:   callDurUS,
		})
		switch out.Kind {
		case csim.OutcomeReturn:
			ev.Ret = out.Ret
			ev.Errno = out.Errno
			ev.Err = csim.ErrnoName(out.Errno)
		case csim.OutcomeSegfault:
			ev.Addr = uint64(out.Fault.Addr)
		}
		c.inj.tr.Emit(ev)
	}
	return out, child.ErrnoSet(), true
}

func (c *campaign) measureMinimal(target int, prot cmem.Prot, overrides map[int]*gens.Probe, hint int) (int, bool) {
	ag := seedableArray(c.gens[target])
	if ag == nil {
		return 0, false
	}
	compose := func(pr *gens.Probe) []*gens.Probe {
		probes := make([]*gens.Probe, len(c.defaults))
		copy(probes, c.defaults)
		for j, o := range overrides {
			probes[j] = o
		}
		probes[target] = pr
		return probes
	}
	// Seeded campaigns may jump straight to a predicted minimum: one
	// probe at the hint (clean return) plus one at hint-1 (fault inside
	// the region) replaces the whole growth chain. Any other pair of
	// outcomes falls back to the cold chain below, so a wrong hint costs
	// two extra calls and decides nothing.
	if hint > 0 && hint <= ag.MaxSize {
		jump := gens.SizedProbe(ag, hint, prot)
		if out, errnoSet, ok := c.runChild(compose(jump)); ok && out.Kind == csim.OutcomeReturn && !errnoSet {
			if hint == 1 {
				c.countHint(true)
				return 1, true
			}
			confirm := gens.SizedProbe(ag, hint-1, prot)
			if out2, _, ok2 := c.runChild(compose(confirm)); ok2 &&
				out2.Kind == csim.OutcomeSegfault && out2.Fault != nil && confirm.Region.Owns(out2.Fault.Addr) {
				c.countHint(true)
				return hint, true
			}
		}
		c.countHint(false)
	}
	pr := ag.ChainProbe(prot)
	for steps := 0; steps < 600; steps++ {
		probes := compose(pr)
		out, errnoSet, ok := c.runChild(probes)
		if !ok {
			return 0, false
		}
		if out.Kind == csim.OutcomeReturn {
			if errnoSet {
				return 0, false // error path, not a sizing success
			}
			return pr.Size, true
		}
		if out.Kind != csim.OutcomeSegfault || out.Fault == nil || !pr.Region.Owns(out.Fault.Addr) {
			return 0, false
		}
		np := ag.Adjust(pr, out.Fault.Addr)
		if np == nil {
			return 0, false
		}
		pr = np
	}
	return 0, false
}

// seedHint returns the statically predicted minimal size for argument
// i, or 0 when this campaign is unseeded.
func (c *campaign) seedHint(i int) int {
	if i < len(c.hintSeeds) {
		return c.hintSeeds[i].Size
	}
	return 0
}

// countHint folds one hinted re-measurement outcome into the seed
// stats; settleSeeds has already aggregated the exploration chains by
// the time re-measurement runs, so these land directly in the result
// and the metrics registry.
func (c *campaign) countHint(hit bool) {
	if hit {
		c.result.Seed.Jumps++
		c.result.Seed.Confirms++
		c.inj.mSeedJumps.Add(1)
		c.inj.mSeedConfirms.Add(1)
		return
	}
	c.result.Seed.Misses++
	c.inj.mSeedMisses.Add(1)
}

// inferBoundedRead upgrades a weak R_ARRAY robust type on a string
// argument to R_BOUNDED[argN] when a targeted adaptive experiment
// confirms the bounded-read contract: an unterminated region larger
// than the sibling count succeeds, while one smaller than it crashes.
// This is the strncpy-source shape, undetectable by per-argument type
// selection alone because it couples two arguments.
func (c *campaign) inferBoundedRead(target int, rt decl.RobustType) (decl.RobustType, bool) {
	if _, isStr := c.gens[target].(*gens.CStringGen); !isStr {
		return rt, false
	}
	run := func(pr *gens.Probe, intArg int, n int64) (csim.OutcomeKind, bool) {
		ig, ok := c.gens[intArg].(*gens.IntGen)
		if !ok {
			return 0, false
		}
		probes := make([]*gens.Probe, len(c.defaults))
		copy(probes, c.defaults)
		probes[target] = pr
		probes[intArg] = ig.ValueProbe(n)
		out, _, ok := c.runChild(probes)
		if !ok {
			return 0, false
		}
		return out.Kind, true
	}
	for j, g := range c.gens {
		if j == target {
			continue
		}
		if _, isInt := g.(*gens.IntGen); !isInt {
			continue
		}
		small, ok1 := run(gens.UntermProbe(decl.BoundedReadRegion), j, decl.BoundedReadWithin)
		big, ok2 := run(gens.UntermProbe(decl.BoundedReadRegion), j, decl.BoundedReadPast)
		if ok1 && ok2 && small == csim.OutcomeReturn && big == csim.OutcomeSegfault {
			return decl.RobustType{
				Base: "R_BOUNDED",
				Size: decl.SizeExpr{Kind: decl.SizeArgValue, A: j},
			}, true
		}
	}
	return rt, false
}

// inferSize upgrades a fixed array size to a dependent expression when
// perturbing sibling arguments confirms the dependency.
func (c *campaign) inferSize(target int, rt decl.RobustType) decl.SizeExpr {
	fixed := rt.Size
	prot := protOf(rt.Kind())

	baseline, ok := c.measureMinimal(target, prot, nil, c.seedHint(target))
	if !ok || baseline == 0 {
		return fixed
	}

	// Sibling metadata under defaults.
	base := decl.FitArgs{Strlens: map[int]int{}, Vals: map[int]int64{}}
	for j, g := range c.gens {
		if j == target {
			continue
		}
		switch t := g.(type) {
		case *gens.CStringGen:
			base.Strlens[j] = len(t.DefaultContent)
		case *gens.IntGen:
			base.Vals[j] = t.DefaultValue
		}
	}
	measure := func(j int, env decl.FitArgs, want int) (int, bool, error) {
		var pr *gens.Probe
		switch t := c.gens[j].(type) {
		case *gens.CStringGen:
			pr = t.VariantWithLen(env.Strlens[j])
		case *gens.IntGen:
			pr = t.ValueProbe(env.Vals[j])
		}
		hint := 0
		if len(c.hintSeeds) > 0 {
			hint = want
		}
		m, ok := c.measureMinimal(target, prot, map[int]*gens.Probe{j: pr}, hint)
		return m, ok, nil
	}
	if expr, _ := decl.FitSize(base, baseline, measure); expr != nil {
		return *expr
	}
	return decl.Fixed(baseline)
}
