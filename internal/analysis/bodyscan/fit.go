package bodyscan

import (
	"strings"

	"healers/internal/cmem"
	"healers/internal/csim"
	"healers/internal/decl"
	"healers/internal/gens"
)

// Dependent-extent fitting: the static side of decl.FitSize. Where
// the injector re-grows a fresh region chain under each sibling move,
// the static pass re-runs the body under the same move and reads
// the extent straight off the access log. A divergent fit is caught by
// the static↔dynamic soundness gate.

// fitRegion is the tracked-region size for fitting probes: large enough
// that every perturbed extent stays inside the region (the largest move
// is a doubled count times a doubled count; 4 KiB covers the corpus
// with an order of magnitude to spare).
const fitRegion = 4096

// measureExtent runs one probe with sibling overrides and a large
// zeroed tracked region, returning the access extent. ok is false when
// the body did not return cleanly (a crashed run's extent measures the
// fault, not the footprint).
func measureExtent(e *regEntry, params []protoParam, i int, strOv map[int]string, intOv map[int]int64) (ext int, ok bool) {
	r := runProbe(e, params, probeSpec{
		tracked: i,
		build:   trkData(make([]byte, fitRegion), cmem.ProtRW),
		strOv:   strOv,
		intOv:   intOv,
	})
	if r.kind != csim.OutcomeReturn {
		return 0, false
	}
	return r.extent(), true
}

// fitSizeExpr fits the tracked argument's extent to a dependent-size
// expression over its C-string and integer siblings, whose benign
// values are the generators' defaults.
func fitSizeExpr(e *regEntry, params []protoParam, i int) *decl.SizeExpr {
	base := decl.FitArgs{Strlens: map[int]int{}, Vals: map[int]int64{}}
	for j, q := range params {
		switch {
		case j == i:
		case q.Class == gens.ClassCString:
			base.Strlens[j] = len(gens.BenignStringDefault(q.Name))
		case q.Class == gens.ClassInt:
			base.Vals[j] = gens.BenignIntDefault(q.Name)
		}
	}
	if len(base.Strlens) == 0 && len(base.Vals) == 0 {
		return nil
	}

	baseline, ok := measureExtent(e, params, i, nil, nil)
	if !ok || baseline == 0 {
		return nil
	}
	measure := func(j int, env decl.FitArgs, _ int) (int, bool, error) {
		var strOv map[int]string
		var intOv map[int]int64
		if l, isStr := env.Strlens[j]; isStr {
			strOv = map[int]string{j: strings.Repeat("A", l)}
		} else {
			intOv = map[int]int64{j: env.Vals[j]}
		}
		ext, ok := measureExtent(e, params, i, strOv, intOv)
		return ext, ok, nil
	}
	expr, _ := decl.FitSize(base, baseline, measure) // measure never fails
	return expr
}

// boundedReadArg detects the R_BOUNDED contract on a const char*
// argument with the injector's inferBoundedRead experiment (the
// decl.BoundedRead* constants): an unterminated region larger than an
// integer sibling's count returns cleanly, while one smaller than the
// count faults. Returns the bounding argument index, or -1.
func boundedReadArg(e *regEntry, params []protoParam, i int) int {
	for j, q := range params {
		if j == i || q.Class != gens.ClassInt {
			continue
		}
		small := runProbe(e, params, probeSpec{
			tracked: i, build: trkUnterm(decl.BoundedReadRegion), intOv: map[int]int64{j: decl.BoundedReadWithin},
		})
		big := runProbe(e, params, probeSpec{
			tracked: i, build: trkUnterm(decl.BoundedReadRegion), intOv: map[int]int64{j: decl.BoundedReadPast},
		})
		if small.clean() && big.kind == csim.OutcomeSegfault {
			return j
		}
	}
	return -1
}
