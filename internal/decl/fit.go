package decl

import "sort"

// Dependent-size fitting, shared by the injector (which measures a
// minimal region size by re-running the adaptive growth chain) and the
// static body pass (which reads an access extent off an interpreted
// run). Both fit the same candidates under the same sibling moves, so a
// correct static fit lowers to a byte-identical robust type.

// The bounded-read experiment (R_BOUNDED[argN]): an unterminated region
// of BoundedReadRegion bytes is read cleanly when the integer sibling
// is BoundedReadWithin and faults when it is BoundedReadPast.
const (
	BoundedReadRegion = 16
	BoundedReadWithin = 8
	BoundedReadPast   = 64
)

// FitArgs is the sibling environment of a fit: the length of each
// string sibling and the value of each integer sibling, by argument
// index. It implements ArgsView.
type FitArgs struct {
	Strlens map[int]int
	Vals    map[int]int64
}

// Strlen implements ArgsView.
func (a FitArgs) Strlen(i int) (int, bool) { l, ok := a.Strlens[i]; return l, ok }

// Value implements ArgsView.
func (a FitArgs) Value(i int) int64 { return a.Vals[i] }

// moved returns a copy with sibling j moved down (strings to length 2,
// integers to 2) or up (strings to 2l+7, integers to 2v+3). Min-shaped
// candidates saturate in one direction, so a fit needs both.
func (a FitArgs) moved(j int, up bool) FitArgs {
	out := FitArgs{Strlens: make(map[int]int, len(a.Strlens)), Vals: make(map[int]int64, len(a.Vals))}
	for k, v := range a.Strlens {
		out.Strlens[k] = v
	}
	for k, v := range a.Vals {
		out.Vals[k] = v
	}
	if l, isStr := a.Strlens[j]; isStr {
		out.Strlens[j] = 2
		if up {
			out.Strlens[j] = l*2 + 7
		}
		return out
	}
	out.Vals[j] = 2
	if up {
		out.Vals[j] = a.Vals[j]*2 + 3
	}
	return out
}

// Measure re-measures the fitted argument's size with sibling j moved
// to its value in env. want is the candidate's prediction, usable as a
// hint. ok is false when the run gave no size (a crash, an error path);
// a non-nil error aborts the fit.
type Measure func(j int, env FitArgs, want int) (got int, ok bool, err error)

// FitSize returns the first candidate, most specific first, that
// explains baseline under base and every move of every argument it
// references, where at least one move changes the size. The order:
// products of two integers, the two min forms per string/integer pair,
// strlen+1 per string, then the value of each integer. nil means no
// candidate fits.
func FitSize(base FitArgs, baseline int, measure Measure) (*SizeExpr, error) {
	strArgs, intArgs := sortedKeys(base.Strlens), sortedKeys(base.Vals)
	var cands []SizeExpr
	for a := range intArgs {
		for _, b := range intArgs[a+1:] {
			cands = append(cands, SizeExpr{Kind: SizeArgProduct, A: intArgs[a], B: b})
		}
	}
	for _, s := range strArgs {
		for _, n := range intArgs {
			cands = append(cands,
				SizeExpr{Kind: SizeMinStrlenP1N, A: s, B: n},
				SizeExpr{Kind: SizeMinStrlenNP1, A: s, B: n})
		}
	}
	for _, s := range strArgs {
		cands = append(cands, SizeExpr{Kind: SizeStrlenPlus1, A: s})
	}
	for _, n := range intArgs {
		cands = append(cands, SizeExpr{Kind: SizeArgValue, A: n})
	}

next:
	for _, cand := range cands {
		if want, ok := cand.Eval(base); !ok || want != baseline {
			continue
		}
		refs := []int{cand.A, cand.B}
		if cand.Kind == SizeStrlenPlus1 || cand.Kind == SizeArgValue {
			refs = refs[:1]
		}
		changed := false
		for _, j := range refs {
			for _, up := range []bool{true, false} {
				env := base.moved(j, up)
				want, ok := cand.Eval(env)
				if !ok {
					continue next
				}
				got, ok, err := measure(j, env, want)
				if err != nil {
					return nil, err
				}
				if !ok || got != want {
					continue next
				}
				changed = changed || got != baseline
			}
		}
		if changed {
			return &cand, nil
		}
	}
	return nil, nil
}

func sortedKeys[V any](m map[int]V) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}
