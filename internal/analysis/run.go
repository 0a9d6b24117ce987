package analysis

import (
	"healers/internal/clib"
	"healers/internal/decl"
	"healers/internal/extract"
	"healers/internal/gens"
	"healers/internal/injector"
	"healers/internal/wrapgen"
)

// ArgReport is one row of the static-vs-dynamic agreement table.
type ArgReport struct {
	Index      int
	Param      string
	CType      string
	Predicted  string // "?" when the predictor declined
	Confidence float64
	Reason     string
	Dynamic    string
	Agreement  Agreement
}

// FuncReport aggregates one function's rows plus its ablation numbers.
type FuncReport struct {
	Name string
	Args []ArgReport
	// ColdCalls and SeededCalls are the sandboxed injection calls each
	// campaign spent on this function.
	ColdCalls   int
	SeededCalls int
	// Seed is the per-chain seed outcome of the seeded campaign.
	Seed gens.SeedStats
	// VectorIdentical: the seeded campaign selected byte-identical
	// robust types (the seeding invariant).
	VectorIdentical bool
}

// Summary is the corpus-level rollup.
type Summary struct {
	Funcs int
	Args  int

	Exact   int
	Weaker  int
	Wrong   int
	Unknown int

	ColdCalls   int
	SeededCalls int

	SeedJumps    int
	SeedConfirms int
	SeedMisses   int

	AllVectorsIdentical bool

	WrappersChecked int
	WrapperIssues   []Issue
}

// SavedCalls is the injection-call reduction the seeds bought.
func (s Summary) SavedCalls() int { return s.ColdCalls - s.SeededCalls }

// SavedFraction is the relative reduction (0 when the cold campaign
// made no calls).
func (s Summary) SavedFraction() float64 {
	if s.ColdCalls == 0 {
		return 0
	}
	return float64(s.SavedCalls()) / float64(s.ColdCalls)
}

// Report is the full static-analysis output surfaced by `healers
// analyze`.
type Report struct {
	Funcs   []*FuncReport
	Summary Summary
}

// Run executes the complete analysis pipeline over the functions of a
// static prediction (from Predict or BodyPredict): inject cold, inject
// seeded from the prediction's hints, classify agreement per argument,
// verify the seeded vectors are identical, and statically check the
// wrapper C generated from the cold declarations.
func Run(lib *clib.Library, ext *extract.Result, pred *Prediction, cfg injector.Config) (*Report, error) {
	names := pred.Order
	coldCfg := cfg
	coldCfg.Seeds = nil
	cold, err := injector.New(lib, coldCfg).InjectAll(ext, names)
	if err != nil {
		return nil, err
	}

	seededCfg := cfg
	seededCfg.Seeds = pred.Seeds()
	seeded, err := injector.New(lib, seededCfg).InjectAll(ext, names)
	if err != nil {
		return nil, err
	}

	rep := &Report{Summary: Summary{AllVectorsIdentical: true}}
	for _, name := range pred.Order {
		fp := pred.Funcs[name]
		cr := cold.Results[name]
		sr := seeded.Results[name]
		fr := &FuncReport{
			Name:            name,
			ColdCalls:       cr.Calls,
			SeededCalls:     sr.Calls,
			Seed:            sr.Seed,
			VectorIdentical: sameVector(cr.Decl, sr.Decl),
		}
		for i, a := range fp.Args {
			dyn := cr.Decl.Args[i].Robust
			ag := Compare(a, dyn)
			fr.Args = append(fr.Args, ArgReport{
				Index:      i,
				Param:      a.Param,
				CType:      a.CType,
				Predicted:  a.Predicted(),
				Confidence: a.Confidence,
				Reason:     a.Reason,
				Dynamic:    dyn.String(),
				Agreement:  ag,
			})
			rep.Summary.Args++
			switch ag {
			case AgreeExact:
				rep.Summary.Exact++
			case AgreeWeaker:
				rep.Summary.Weaker++
			case AgreeWrong:
				rep.Summary.Wrong++
			case AgreeUnknown:
				rep.Summary.Unknown++
			}
		}
		rep.Summary.Funcs++
		rep.Summary.ColdCalls += cr.Calls
		rep.Summary.SeededCalls += sr.Calls
		rep.Summary.SeedJumps += sr.Seed.Jumps
		rep.Summary.SeedConfirms += sr.Seed.Confirms
		rep.Summary.SeedMisses += sr.Seed.Misses
		if !fr.VectorIdentical {
			rep.Summary.AllVectorsIdentical = false
		}
		rep.Funcs = append(rep.Funcs, fr)
	}

	set := cold.Decls()
	opts := wrapgen.Options{}
	src := wrapgen.File(set, opts)
	rep.Summary.WrapperIssues = CheckWrappers(src, set, opts)
	for _, d := range set.ByName {
		if d.Unsafe() {
			rep.Summary.WrappersChecked++
		}
	}
	return rep, nil
}

// sameVector reports byte-identical robust type vectors (and error
// classification) between two declarations of the same function.
func sameVector(a, b *decl.FuncDecl) bool {
	if len(a.Args) != len(b.Args) || a.ErrClass != b.ErrClass {
		return false
	}
	for i := range a.Args {
		if a.Args[i].Robust.String() != b.Args[i].Robust.String() {
			return false
		}
	}
	return true
}
