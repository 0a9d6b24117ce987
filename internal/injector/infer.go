package injector

import (
	"healers/internal/cmem"
	"healers/internal/csim"
	"healers/internal/decl"
	"healers/internal/gens"
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
		if out, errnoSet, ok := c.experiment(compose(jump), -1, "infer"); ok && out.Kind == csim.OutcomeReturn && !errnoSet {
			if hint == 1 {
				c.countHint(true)
				return 1, true
			}
			confirm := gens.SizedProbe(ag, hint-1, prot)
			if out2, _, ok2 := c.experiment(compose(confirm), -1, "infer"); ok2 &&
				out2.Kind == csim.OutcomeSegfault && confirm.Region.Owns(out2.Fault.Addr) {
				c.countHint(true)
				return hint, true
			}
		}
		c.countHint(false)
	}
	pr := ag.ChainProbe(prot)
	for steps := 0; steps < 600; steps++ {
		probes := compose(pr)
		out, errnoSet, ok := c.experiment(probes, -1, "infer")
		if !ok {
			return 0, false
		}
		if out.Kind == csim.OutcomeReturn {
			if errnoSet {
				return 0, false // error path, not a sizing success
			}
			return pr.Size, true
		}
		if out.Kind != csim.OutcomeSegfault || !pr.Region.Owns(out.Fault.Addr) {
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
		out, _, ok := c.experiment(probes, -1, "infer")
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
