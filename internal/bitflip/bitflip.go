// Package bitflip implements the evaluation the paper's §9 leaves as
// future work: injecting bit-flips instead of type-driven exceptional
// values. Starting from a *valid* call, single bits of the argument
// words are flipped — the classic register-fault model — and the call
// is run against the bare library and against the robustness wrapper.
// A flipped pointer usually lands in unmapped memory, so the unwrapped
// library crashes where the wrapper's argument checks reject the call.
package bitflip

import (
	"fmt"
	"sort"
	"strings"

	"healers/internal/clib"
	"healers/internal/csim"
	"healers/internal/decl"
	"healers/internal/extract"
	"healers/internal/gens"
	"healers/internal/injector"
	"healers/internal/wrapper"
)

// flipBits are the bit positions flipped in each argument word: a
// spread over the low 48 (pointers) plus the sign bit.
var flipBits = []int{0, 1, 3, 7, 12, 16, 21, 26, 31, 34, 38, 42, 46, 63}

// stepBudget bounds each trial.
const stepBudget = 100_000

// Result aggregates one function's bit-flip trials.
type Result struct {
	Func             string
	Trials           int
	UnwrappedCrashes int
	WrappedCrashes   int
	WrappedRejected  int // trials the wrapper turned into clean errors
}

// PreventionRate is the fraction of unwrapped crashes the wrapper
// eliminated.
func (r Result) PreventionRate() float64 {
	if r.UnwrappedCrashes == 0 {
		return 1
	}
	return 1 - float64(r.WrappedCrashes)/float64(r.UnwrappedCrashes)
}

// Campaign is the full bit-flip evaluation.
type Campaign struct {
	Results []Result
}

// Totals sums all functions.
func (c *Campaign) Totals() Result {
	total := Result{Func: "TOTAL"}
	for _, r := range c.Results {
		total.Trials += r.Trials
		total.UnwrappedCrashes += r.UnwrappedCrashes
		total.WrappedCrashes += r.WrappedCrashes
		total.WrappedRejected += r.WrappedRejected
	}
	return total
}

// Format renders the campaign as a table.
func (c *Campaign) Format() string {
	var b strings.Builder
	b.WriteString("Bit-flip fault injection (§9 future work)\n")
	fmt.Fprintf(&b, "%-14s %7s %10s %9s %9s %11s\n",
		"function", "trials", "unwrapped", "wrapped", "rejected", "prevention")
	rows := append([]Result(nil), c.Results...)
	rows = append(rows, c.Totals())
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %7d %10d %9d %9d %10.1f%%\n",
			r.Func, r.Trials, r.UnwrappedCrashes, r.WrappedCrashes,
			r.WrappedRejected, 100*r.PreventionRate())
	}
	return b.String()
}

// Evaluate runs the campaign over the named functions.
func Evaluate(lib *clib.Library, ext *extract.Result, decls *decl.DeclSet, names []string) (*Campaign, error) {
	sort.Strings(names)
	campaign := &Campaign{}
	template := injector.NewTemplateProcess()
	defer template.Release()

	for _, name := range names {
		fi, ok := ext.Lookup(name)
		if !ok || fi.Proto == nil {
			return nil, fmt.Errorf("bitflip: %s has no prototype", name)
		}
		fn, ok := lib.Lookup(name)
		if !ok {
			return nil, fmt.Errorf("bitflip: %s not in library", name)
		}
		res := Result{Func: name}

		// Benign default probes form the valid baseline call.
		defaults := make([]*gens.Probe, len(fi.Proto.Params))
		for i, param := range fi.Proto.Params {
			defaults[i] = gens.ForParam(param, ext.Table).Default()
		}

		runTrial := func(argIdx, bit int, wrapped bool) (csim.Outcome, bool) {
			child := template.Fork()
			defer child.Release()
			child.SetStepBudget(stepBudget)
			args := make([]uint64, len(defaults))
			mat := child.Run(func() uint64 {
				for i, pr := range defaults {
					args[i] = pr.Build(child)
				}
				return 0
			})
			if mat.Kind != csim.OutcomeReturn {
				return csim.Outcome{}, false
			}
			args[argIdx] ^= 1 << bit
			child.ClearErrno()
			if wrapped {
				w := wrapper.Attach(child, lib, decls, wrapper.DefaultOptions())
				defer w.Release()
				out := child.Run(func() uint64 { return w.Call(child, name, args...) })
				return out, true
			}
			out := child.Run(func() uint64 { return fn.Impl(child, args) })
			return out, true
		}

		for argIdx := range defaults {
			for _, bit := range flipBits {
				plain, ok := runTrial(argIdx, bit, false)
				if !ok {
					continue
				}
				res.Trials++
				if !plain.Crashed() {
					continue // this flip was harmless even unwrapped
				}
				res.UnwrappedCrashes++
				wrapped, ok := runTrial(argIdx, bit, true)
				if !ok {
					continue
				}
				if wrapped.Crashed() {
					res.WrappedCrashes++
				} else {
					res.WrappedRejected++
				}
			}
		}
		campaign.Results = append(campaign.Results, res)
	}
	return campaign, nil
}
