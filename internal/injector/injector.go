// Package injector implements the fault-injector generator and driver
// of paper §3.3–§4: for each library function it runs adaptive
// fault-injection experiments in forked child processes, attributes
// segmentation faults to the test-case generator owning the faulting
// address, grows array regions until the faults disappear, classifies
// the function's error-return behaviour (Table 1), computes the robust
// argument type vector (§4.3), and emits a function declaration
// (Figure 2) for the wrapper generator.
package injector

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"healers/internal/clib"
	"healers/internal/cmem"
	"healers/internal/cparse"
	"healers/internal/csim"
	"healers/internal/decl"
	"healers/internal/extract"
	"healers/internal/gens"
	"healers/internal/obs"
	"healers/internal/typesys"
)

// StepBudget is the per-call simulated work limit; exceeding it is a
// hang (the paper's child-process timeout).
const StepBudget = 200_000

// productCap bounds the cross-product phase per function.
const productCap = 400

// Config tunes an injection campaign.
type Config struct {
	// Conservative selects the stricter robust-type variant of §4.3.
	Conservative bool
	// Obs, when non-nil, receives the campaign's structured events:
	// one InjectionProbe + SandboxOutcome pair per experiment, an
	// ArgAdjust per adaptive-loop step, and CampaignPhase progress.
	Obs *obs.Tracer
	// Metrics, when non-nil, registers the campaign counters
	// (experiments, crashes, adjustments), the adaptive-loop iteration
	// histogram, and the sandbox boundary counters of csim.Metrics.
	Metrics *obs.Registry
	// Seeds, when non-nil, supplies the static pre-inference hints of
	// internal/analysis: adaptive array chains start at the predicted
	// size (with a minimality confirmation probe) and provably
	// unreachable write-protection chains are skipped. The robust type
	// vectors are identical with and without seeds; only the number of
	// sandboxed injection calls changes, making seeded-vs-cold a clean
	// ablation.
	Seeds Seeds
	// Workers sets the campaign parallelism of InjectAll: the function
	// list is sharded across min(Workers, len(functions)) goroutines,
	// each injecting whole functions with its own isolated sandbox (and
	// its own library instance when LibFactory is set). 0 or 1 runs the
	// campaign sequentially on the calling goroutine. Robust-type
	// vectors and error classifications are byte-identical to the
	// sequential run regardless of Workers — per-function campaigns
	// share no mutable state, and the merge is input-order.
	Workers int
	// LibFactory, when non-nil, builds a fresh library instance for each
	// parallel worker, so even the (immutable after construction) symbol
	// table is not shared across goroutines. When nil, workers share the
	// injector's library, which is safe for clib.New libraries: the
	// audit invariant is that Library is never mutated after New and all
	// per-call state lives in the forked csim.Process.
	LibFactory func() *clib.Library
	// Cache, when non-nil, memoizes per-function campaign results keyed
	// by (function name, prototype, config fingerprint): re-running a
	// campaign over an unchanged function skips its injection entirely
	// and returns the cached Result. NewResultCache gives process-scoped
	// memoization; OpenDiskCache persists results across restarts. Safe
	// for concurrent use, and campaigns sharing one cache compute each
	// key at most once at a time: a burst of identical requests runs one
	// injection and shares the result. Its Stats, not the metrics
	// registry, count the hits, misses, leads and joins.
	Cache *ResultCache
}

// ArgSeed is one argument's static pre-inference hint.
type ArgSeed struct {
	// Size is the predicted minimal region size in bytes (0 = none).
	Size int
	// ReadOnly marks const-qualified pointees, whose write-protection
	// growth chains can never succeed and are skipped.
	ReadOnly bool
}

// Seeds maps function names to per-argument static hints.
type Seeds map[string][]ArgSeed

// DefaultConfig returns the standard campaign configuration.
func DefaultConfig() Config { return Config{} }

// Result is the outcome of injecting one function.
type Result struct {
	Name  string
	Proto *cparse.Prototype
	Decl  *decl.FuncDecl

	// RobustNames are the instantiated robust type names per argument.
	RobustNames []string

	Calls   int
	Crashes int
	Hangs   int
	Aborts  int

	// Seed aggregates the static-seed outcomes across this function's
	// adaptive chains (all zero when the campaign ran cold).
	Seed gens.SeedStats

	// Fork counts the campaign's copy-on-write forking: children
	// forked from the function's template, pages shared at fork time,
	// and pages copied when a child diverged. Zero for results served
	// from a cache — no forking happened.
	Fork cmem.ForkCounts

	ErrClass decl.ErrClass
}

// Unsafe reports whether the function crashed or hung at least once.
func (r *Result) Unsafe() bool { return r.Crashes+r.Hangs+r.Aborts > 0 }

// Injector drives fault injection against one library.
type Injector struct {
	lib *clib.Library
	cfg Config

	tr      *obs.Tracer
	sandbox *csim.Metrics // nil when cfg.Metrics is nil
	// timed gates the phase-duration clocking in the per-experiment hot
	// path: with no metrics registry the histograms are detached and
	// unreadable, so the time.Now pair per phase is pure overhead.
	timed bool

	mExperiments *obs.Counter
	mCrashes     *obs.Counter
	mHangs       *obs.Counter
	mAborts      *obs.Counter
	mAdjusts     *obs.Counter
	// hAdaptive observes the adjustments each §4.1 adaptive chain
	// needed before its faults disappeared (0 = first probe stood).
	hAdaptive *obs.Histogram
	// Static-seed counters: chains that jumped to a predicted size,
	// predictions confirmed minimal, and predictions that missed.
	mSeedJumps    *obs.Counter
	mSeedConfirms *obs.Counter
	mSeedMisses   *obs.Counter
	// Copy-on-write fork counters: child forks performed, pages shared
	// at fork time, pages copied when a fork diverged, and the copying
	// (in bytes) the lazy fork avoided versus an eager clone.
	mForks            *obs.Counter
	mForkPagesShared  *obs.Counter
	mForkPagesCopied  *obs.Counter
	mForkBytesAvoided *obs.Counter

	// runSlabs parks the run slabs of finished function campaigns; the
	// worker shadows share it.
	runSlabs *cmem.FreeList[runSlab]
	// Phase-duration histograms (microseconds), each carrying an
	// exemplar trace ID so a fat tail links back to a concrete campaign.
	hPhaseFork        *obs.Histogram
	hPhaseMaterialize *obs.Histogram
	hPhaseProbe       *obs.Histogram
	hPhaseCache       *obs.Histogram
	hPhaseMerge       *obs.Histogram
	hPhaseDerive      *obs.Histogram // §4.3 robust-type selection, once per function
}

// adaptiveIterBuckets bound the adjustments-per-chain histogram; the
// grown-array chains for large reads (asctime's 44 bytes) land mid-range.
var adaptiveIterBuckets = []int64{0, 1, 2, 4, 8, 16, 32}

// phaseBuckets bound the phase-duration histograms in microseconds:
// forks and cache lookups land in the single-digit range, probes in the
// tens, merges and whole functions in the thousands.
var phaseBuckets = []int64{1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000, 25000}

// New returns an injector for lib.
func New(lib *clib.Library, cfg Config) *Injector {
	// A nil tracer is the disabled one, like a nil registry below.
	inj := &Injector{lib: lib, cfg: cfg, tr: cfg.Obs, runSlabs: new(cmem.FreeList[runSlab])}
	reg := cfg.Metrics // nil-safe: a nil registry hands out detached instruments
	inj.mExperiments = reg.Counter("healers_injector_experiments_total")
	inj.mCrashes = reg.Counter("healers_injector_crashes_total")
	inj.mHangs = reg.Counter("healers_injector_hangs_total")
	inj.mAborts = reg.Counter("healers_injector_aborts_total")
	inj.mAdjusts = reg.Counter("healers_injector_adjusts_total")
	inj.hAdaptive = reg.Histogram("healers_injector_adaptive_iterations", adaptiveIterBuckets)
	inj.mSeedJumps = reg.Counter("healers_injector_seed_jumps_total")
	inj.mSeedConfirms = reg.Counter("healers_injector_seed_confirms_total")
	inj.mSeedMisses = reg.Counter("healers_injector_seed_misses_total")
	inj.mForks = reg.Counter("healers_injector_forks_total")
	inj.mForkPagesShared = reg.Counter("healers_injector_fork_pages_shared_total")
	inj.mForkPagesCopied = reg.Counter("healers_injector_fork_pages_copied_total")
	inj.mForkBytesAvoided = reg.Counter("healers_injector_fork_bytes_avoided_total")
	inj.hPhaseFork = reg.Histogram("healers_phase_fork_us", phaseBuckets)
	inj.hPhaseMaterialize = reg.Histogram("healers_phase_materialize_us", phaseBuckets)
	inj.hPhaseProbe = reg.Histogram("healers_phase_probe_us", phaseBuckets)
	inj.hPhaseCache = reg.Histogram("healers_phase_cache_us", phaseBuckets)
	inj.hPhaseMerge = reg.Histogram("healers_phase_merge_us", phaseBuckets)
	inj.hPhaseDerive = reg.Histogram("healers_phase_derive_us", phaseBuckets)
	if cfg.Metrics != nil {
		inj.sandbox = csim.NewMetrics(cfg.Metrics)
		inj.timed = true
	}
	return inj
}

// NewTemplateProcess builds the process every injection child is forked
// from: a filesystem with the standard fixtures and a line of standard
// input (so gets has something to copy).
func NewTemplateProcess() *csim.Process {
	fs := csim.NewFS()
	fs.Create(gens.DefaultFixturePath, gens.FixtureFileContents())
	fs.Create(gens.DefaultFixtureDir+"/a.txt", []byte("x"))
	fs.Create(gens.DefaultFixtureDir+"/b.txt", []byte("y"))
	p := csim.NewProcess(fs)
	p.Stdin = []byte(gens.FixtureStdinLine() + "\nsecond line\n")
	return p
}

// vectorRun is one recorded experiment. explored is the index of the
// argument under exploration when the run happened (-1 for the
// cross-product phase): success coverage for an argument is taken from
// its own exploration runs, where the sibling arguments hold benign
// defaults. A success conjured by a degenerate sibling (memcpy with
// n == 0 "succeeds" for any destination) must not weaken the robust
// type — the wrapper rejecting such calls with an error code is exactly
// the atomicity trade the paper endorses for the asctime(-1) example.
type vectorRun struct {
	funds    []string
	outcome  typesys.CaseOutcome
	explored int
}

// runSlab is where a function campaign records its experiments: runs,
// and funds, from which each run's probe type names are carved. A
// function campaign takes a slab its Injector parked and parks it again
// when it ends, so the function campaigns of one Injector grow a few
// slabs to the largest function's size and then record without
// allocating, and the slabs go with the Injector.
type runSlab struct {
	runs  []vectorRun
	funds []string
}

// maxParkedRuns bounds the slab a campaign parks (the largest of the 86
// functions records about 600 runs): one grown past it, or past four
// type names a run, is left to the collector.
const maxParkedRuns = 4096

// takeRunSlab returns a slab the Injector parked, or a new one.
func (inj *Injector) takeRunSlab() *runSlab {
	if s := inj.runSlabs.Get(); s != nil {
		return s
	}
	return &runSlab{}
}

// add records one experiment, carving its type names from funds.
func (s *runSlab) add(probes []*gens.Probe, outcome typesys.CaseOutcome, explored int) {
	start := len(s.funds)
	for _, pr := range probes {
		s.funds = append(s.funds, pr.Fund)
	}
	funds := s.funds[start:len(s.funds):len(s.funds)]
	s.runs = append(s.runs, vectorRun{funds: funds, outcome: outcome, explored: explored})
}

// parkRunSlab empties s and parks it, unless it grew past
// maxParkedRuns. A run's funds may point into an array the slab has
// outgrown, so the runs are cleared first.
func (inj *Injector) parkRunSlab(s *runSlab) {
	if cap(s.runs) > maxParkedRuns || cap(s.funds) > 4*maxParkedRuns {
		return
	}
	clear(s.runs)
	s.runs, s.funds = s.runs[:0], s.funds[:0]
	inj.runSlabs.Put(s)
}

// campaign is the per-function working state.
type campaign struct {
	inj      *Injector
	fn       *clib.Func
	proto    *cparse.Prototype
	template *csim.Process
	gens     []gens.Generator
	defaults []*gens.Probe

	runs    *runSlab        // every experiment, for the §4.3 selection
	tried   [][]*gens.Probe // probes seen per argument (for the product phase)
	result  *Result
	errVals map[uint64]int // return values observed when errno was set
	errnos  map[int]int    // errno values observed

	// orderScratch is reused by buildOrder, and argScratch by
	// experiment for the argument vector, to avoid per-experiment
	// allocations: a campaign runs on one goroutine.
	orderScratch []int
	argScratch   []uint64

	// hintSeeds holds the static seeds verbatim when this campaign is
	// seeded at all; the dependent-size re-measurement uses them (and
	// expression-predicted sizes) as jump hints. Nil in cold campaigns,
	// which therefore stay the unbiased reference.
	hintSeeds []ArgSeed

	// span is this function campaign's node in the causal tree; probes
	// become its children (via the template memory's inherited IDs).
	span obs.SpanContext
}

// InjectFunction runs the full campaign for one extracted function.
// The campaign roots a fresh trace; scheduled campaigns (InjectAll)
// parent their function spans to the campaign span instead.
func (inj *Injector) InjectFunction(fi *extract.FuncInfo, table *cparse.TypeTable) (*Result, error) {
	return inj.injectFunction(fi, table, obs.SpanContext{})
}

func (inj *Injector) injectFunction(fi *extract.FuncInfo, table *cparse.TypeTable, parent obs.SpanContext) (*Result, error) {
	if fi.Proto == nil {
		return nil, fmt.Errorf("injector: %s has no prototype", fi.Symbol.Name)
	}
	fn, ok := inj.lib.Lookup(fi.Symbol.Name)
	if !ok {
		return nil, fmt.Errorf("injector: %s not in library", fi.Symbol.Name)
	}
	start := time.Now() //healers:allow-nondeterminism function-campaign span duration, reporting only
	c := &campaign{
		inj:      inj,
		fn:       fn,
		proto:    fi.Proto,
		template: NewTemplateProcess(),
		runs:     inj.takeRunSlab(),
		errVals:  make(map[uint64]int),
		errnos:   make(map[int]int),
		result:   &Result{Name: fn.Name, Proto: fi.Proto},
		span:     parent.Child(),
	}
	// Every exit, the error return included, settles the fork counts and
	// releases the template and the run slab.
	defer c.settleForkStats()
	defer inj.parkRunSlab(c.runs)
	c.template.Metrics = inj.sandbox
	// The template memory carries the function span's identity; every
	// COW fork inherits it (cmem.Clone), which is how probe spans know
	// their parent across the fork boundary.
	c.template.Mem.TraceID = c.span.Trace
	c.template.Mem.SpanID = c.span.Span
	for _, param := range fi.Proto.Params {
		g := gens.ForParam(param, table)
		c.gens = append(c.gens, g)
		c.defaults = append(c.defaults, g.Default())
		c.tried = append(c.tried, nil)
	}
	c.applySeeds(inj.cfg.Seeds[fn.Name])
	c.exploreArguments()
	c.productPhase()
	c.settleSeeds()
	var deriveStart time.Time
	if inj.timed {
		deriveStart = time.Now() //healers:allow-nondeterminism derive-phase latency histogram, reporting only
	}
	robust, err := c.computeRobustVector()
	if inj.timed {
		inj.hPhaseDerive.ObserveEx(time.Since(deriveStart).Microseconds(), c.span.Trace)
	}
	if err != nil {
		return nil, fmt.Errorf("injector: %s: %w", fn.Name, err)
	}
	c.buildDecl(robust)
	if inj.tr.Enabled() {
		inj.tr.Emit(c.span.Tag(obs.Event{
			Kind:  obs.KindSpan,
			Phase: "inject",
			Func:  fn.Name,
			TS:    start.UnixMicro(),
			DurUS: time.Since(start).Microseconds(),
		}))
	}
	return c.result, nil
}

// settleForkStats snapshots the template fork tree's copy-on-write
// counters into the result and the campaign metrics, then returns the
// template's pages to the shared page pool — every run child has
// already been released, so the template holds the last references.
// Released processes are reused by later forks, so the campaign drops
// its references to them too.
func (c *campaign) settleForkStats() {
	fk := c.template.Mem.ForkStats().Snapshot()
	c.result.Fork = fk
	c.inj.mForks.Add(fk.Forks)
	c.inj.mForkPagesShared.Add(fk.PagesShared)
	c.inj.mForkPagesCopied.Add(fk.PagesCopied)
	c.inj.mForkBytesAvoided.Add(fk.BytesAvoided())
	c.template.Release()
	c.template = nil
}

// seedableArray returns the adaptive array chain behind a generator,
// when it has one: plain array generators directly, char-buffer
// generators through their inner array arm. String and stream
// generators have no size to predict and return nil.
func seedableArray(g gens.Generator) *gens.ArrayGen {
	switch t := g.(type) {
	case *gens.ArrayGen:
		return t
	case *gens.CharBufGen:
		return t.Array()
	}
	return nil
}

// applySeeds arms the adaptive array generators with the static
// pre-inference hints.
func (c *campaign) applySeeds(seeds []ArgSeed) {
	c.hintSeeds = seeds
	for i, s := range seeds {
		if i >= len(c.gens) || (s.Size <= 0 && !s.ReadOnly) {
			continue
		}
		if ag := seedableArray(c.gens[i]); ag != nil {
			ag.SeedSize = s.Size
			ag.SkipWriteChains = s.ReadOnly
		}
	}
}

// settleSeeds disarms pending seed jumps (so dependent-size
// re-measurement regrows cold) and aggregates the per-chain seed
// outcomes into the result, the metrics registry, and the trace.
func (c *campaign) settleSeeds() {
	for _, g := range c.gens {
		ag := seedableArray(g)
		if ag == nil {
			continue
		}
		ag.DisarmSeeds()
		st := ag.SeedOutcome()
		c.result.Seed.Jumps += st.Jumps
		c.result.Seed.Confirms += st.Confirms
		c.result.Seed.Misses += st.Misses
	}
	st := c.result.Seed
	c.inj.mSeedJumps.Add(int64(st.Jumps))
	c.inj.mSeedConfirms.Add(int64(st.Confirms))
	c.inj.mSeedMisses.Add(int64(st.Misses))
	if st.Jumps > 0 && c.inj.tr.Enabled() {
		c.inj.tr.Emit(obs.Event{
			Kind:   obs.KindStaticSeed,
			Func:   c.fn.Name,
			Detail: fmt.Sprintf("jumps=%d confirms=%d misses=%d", st.Jumps, st.Confirms, st.Misses),
		})
	}
}

// exploreArguments runs the one-argument-at-a-time phase with the
// adaptive ownership/adjustment loop of §4.1.
func (c *campaign) exploreArguments() {
	if len(c.gens) == 0 {
		// Zero-argument function: a single call decides everything.
		c.runOnce(nil, -1)
		return
	}
	for i, g := range c.gens {
		for pr := g.Next(); pr != nil; pr = g.Next() {
			c.tried[i] = append(c.tried[i], pr)
			probes := make([]*gens.Probe, len(c.defaults))
			copy(probes, c.defaults)
			probes[i] = pr
			adjusts := 0
			for {
				out, faultAddr, segv := c.runOnce(probes, i)
				if out == typesys.Success {
					// Confirmation probes: a successful region size gets
					// re-probed under the other protections so access-mode
					// requirements leave crash evidence.
					for j, p := range probes {
						if noter, ok := c.gens[j].(interface{ NoteSuccess(*gens.Probe) }); ok {
							noter.NoteSuccess(p)
						}
					}
				}
				if !segv {
					break
				}
				// Attribute the fault to the generator owning the
				// address and let it adjust (grow) its test case.
				owner := -1
				for j, p := range probes {
					if p.Region.Owns(faultAddr) {
						owner = j
						break
					}
				}
				if owner < 0 {
					break
				}
				np := c.gens[owner].Adjust(probes[owner], faultAddr)
				if np == nil {
					break
				}
				adjusts++
				c.inj.mAdjusts.Inc()
				if c.inj.tr.Enabled() {
					c.inj.tr.Emit(obs.Event{
						Kind:   obs.KindArgAdjust,
						Func:   c.fn.Name,
						Arg:    owner,
						Probe:  probes[owner].Fund,
						Detail: np.Fund,
						Addr:   uint64(faultAddr),
					})
				}
				probes[owner] = np
				if owner == i {
					c.tried[i] = append(c.tried[i], np)
				}
			}
			c.inj.hAdaptive.Observe(int64(adjusts))
		}
	}
}

// productPhase exercises cross products of a few representative probes
// per argument (capped), approximating the paper's full cross product.
func (c *campaign) productPhase() {
	if len(c.gens) < 2 {
		return
	}
	sel := make([][]*gens.Probe, len(c.tried))
	for i, list := range c.tried {
		sel[i] = selectRepresentatives(list, 5)
	}
	total := 1
	for _, l := range sel {
		total *= len(l)
	}
	total = min(total, productCap)
	idx := make([]int, len(sel))
	for n := 0; n < total; n++ {
		probes := make([]*gens.Probe, len(sel))
		for i := range sel {
			probes[i] = sel[i][idx[i]]
		}
		c.runOnce(probes, -1)
		// Odometer increment.
		for i := 0; i < len(idx); i++ {
			idx[i]++
			if idx[i] < len(sel[i]) {
				break
			}
			idx[i] = 0
		}
	}
}

// selectRepresentatives keeps up to max probes with distinct
// fundamental types, biased to both ends of the sequence (the specials
// come first, the grown chain results last).
func selectRepresentatives(list []*gens.Probe, max int) []*gens.Probe {
	seen := make(map[string]bool)
	var out []*gens.Probe
	add := func(pr *gens.Probe) {
		if pr != nil && !seen[pr.Fund] && len(out) < max {
			seen[pr.Fund] = true
			out = append(out, pr)
		}
	}
	for _, pr := range list { // specials first (NULL, INVALID, size 0)
		if len(out) >= (max+1)/2 {
			break
		}
		add(pr)
	}
	for i := len(list) - 1; i >= 0; i-- { // final grown sizes
		add(list[i])
	}
	if len(out) == 0 {
		out = append(out, nil)
	}
	return out
}

// runOnce runs one exploration or cross-product experiment and
// records it for the §4.3 selection and the Table 1 classification.
// It returns the typesys outcome and, when the call died on a
// segmentation fault, the faulting address and segv true.
func (c *campaign) runOnce(probes []*gens.Probe, explored int) (_ typesys.CaseOutcome, faultAddr cmem.Addr, segv bool) {
	// Resolve nil slots to defaults up front: buildOrder tells defaults
	// from varied probes by pointer.
	for i, pr := range probes {
		if pr == nil {
			probes[i] = c.defaults[i]
		}
	}
	out, errnoSet, ok := c.experiment(probes, explored, "")
	if !ok {
		// Materialization failure is a harness problem, not an
		// experiment; skip silently.
		return typesys.ErrorReturn, 0, false
	}

	var caseOut typesys.CaseOutcome
	switch out.Kind {
	case csim.OutcomeReturn:
		if errnoSet {
			caseOut = typesys.ErrorReturn
			c.errVals[out.Ret]++
			c.errnos[out.Errno]++
		} else {
			caseOut = typesys.Success
		}
	case csim.OutcomeSegfault:
		caseOut = typesys.Crash
		c.result.Crashes++
		c.inj.mCrashes.Inc()
	case csim.OutcomeHang:
		caseOut = typesys.Crash
		c.result.Hangs++
		c.inj.mHangs.Inc()
	case csim.OutcomeAbort:
		caseOut = typesys.Crash
		c.result.Aborts++
		c.inj.mAborts.Inc()
	}
	c.runs.add(probes, caseOut, explored)
	return caseOut, out.Fault.Addr, out.Kind == csim.OutcomeSegfault
}

// experiment runs one sandboxed call, the unit of every injection
// phase. Like the paper's fresh child process per injection, it forks
// the campaign template, builds the whole probe vector in build order,
// calls the function under test, counts the experiment in
// Result.Calls, and emits its InjectionProbe/SandboxOutcome pair
// tagged with arg and phase: the explored index (-1 in the cross
// product) and "" for exploration, -1 and "infer" for dependent-size
// re-measurement. The child is released before it returns. ok is false
// when materialization failed; errnoSet reports whether the call set
// errno.
func (c *campaign) experiment(probes []*gens.Probe, arg int, phase string) (out csim.Outcome, errnoSet, ok bool) {
	timed := c.inj.timed
	var forkStart time.Time
	if timed {
		forkStart = time.Now() //healers:allow-nondeterminism fork-phase latency histogram, reporting only
	}
	child := c.template.Fork()
	if timed {
		c.inj.hPhaseFork.ObserveEx(time.Since(forkStart).Microseconds(), c.span.Trace)
	}
	defer child.Release()
	child.SetStepBudget(StepBudget)

	args := slices.Grow(c.argScratch[:0], len(probes))[:len(probes)]
	c.argScratch = args
	order := c.buildOrder(probes)
	var matStart time.Time
	if timed {
		matStart = time.Now() //healers:allow-nondeterminism materialize-phase latency histogram, reporting only
	}
	mat := child.Run(func() uint64 {
		for _, k := range order {
			args[k] = probes[k].Build(child)
		}
		return 0
	})
	if timed {
		c.inj.hPhaseMaterialize.ObserveEx(time.Since(matStart).Microseconds(), c.span.Trace)
	}
	if mat.Kind != csim.OutcomeReturn {
		return csim.Outcome{}, false, false
	}

	traced := c.inj.tr.Enabled()
	probeLabel := ""
	var psc obs.SpanContext
	if traced {
		// The probe span's parent is read back from the forked child's
		// memory, not from c.span directly — the trace crosses the fork
		// boundary by inheritance, and this is the read side of it.
		psc = obs.SpanContext{Trace: child.Mem.TraceID, Span: child.Mem.SpanID}.Child()
		funds := make([]string, len(probes))
		for i, pr := range probes {
			funds[i] = pr.Fund
		}
		probeLabel = strings.Join(funds, ", ")
		c.inj.tr.Emit(psc.Tag(obs.Event{
			Kind:  obs.KindInjectionProbe,
			Func:  c.fn.Name,
			Arg:   arg,
			Phase: phase,
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
			Arg:     arg,
			Phase:   phase,
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

// buildOrder returns the argument positions of probes in build order:
// positions still holding their campaign default probe first, in
// position order, then the varied positions. The order is a pure
// function of the vector, so a child's memory layout is reproducible
// from the vector alone; the committed golden vectors and traces were
// recorded under it. The slice aliases campaign scratch space, valid
// until the next call.
func (c *campaign) buildOrder(probes []*gens.Probe) []int {
	order := c.orderScratch[:0]
	for k, pr := range probes {
		if pr == c.defaults[k] {
			order = append(order, k)
		}
	}
	for k, pr := range probes {
		if pr != c.defaults[k] {
			order = append(order, k)
		}
	}
	c.orderScratch = order
	return order
}

// computeRobustVector builds the per-argument hierarchies and runs the
// §4.3 selection (typesys.RobustVector). Success coverage for an
// argument comes from its own exploration runs only (vectorRun.explored).
func (c *campaign) computeRobustVector() ([]string, error) {
	if len(c.gens) == 0 {
		return nil, nil
	}
	n := len(c.gens)
	hier := make([]*typesys.Hierarchy, n)
	for i, g := range c.gens {
		hier[i] = g.Hierarchy()
	}
	runs := c.runs.runs
	cases := make([]typesys.VectorCase, len(runs))
	funds := make([]*typesys.Type, n*len(runs))
	for k, run := range runs {
		vc := typesys.VectorCase{Funds: funds[k*n:][:n:n], Outcome: run.outcome, Explored: run.explored}
		for i, fund := range run.funds {
			t, found := hier[i].Lookup(fund)
			if !found {
				return nil, fmt.Errorf("fund %q of arg %d not in hierarchy", fund, i)
			}
			vc.Funds[i] = t
		}
		cases[k] = vc
	}
	result, err := typesys.RobustVector(hier, cases, typesys.RobustOptions{Conservative: c.inj.cfg.Conservative})
	if err != nil {
		return nil, err
	}
	names := make([]string, n)
	for i, t := range result {
		// A type's name is a substring of all its hierarchy's names;
		// the copy lets those go with the hierarchy, where results and
		// declarations outlive the campaign.
		names[i] = strings.Clone(t.Name())
	}
	c.result.RobustNames = names
	return names, nil
}

// buildDecl assembles the Figure 2 declaration, including the error
// return classification of §3.3 and the dependent-size inference.
func (c *campaign) buildDecl(robust []string) {
	d := &decl.FuncDecl{
		Name:    c.fn.Name,
		Version: c.fn.Version,
		Ret:     c.proto.Ret.String(),
	}

	// Error return classification (Table 1).
	switch {
	case c.proto.Ret.Kind == cparse.KindVoid:
		d.ErrClass = decl.ErrClassNoReturn
	case len(c.errVals) == 0:
		d.ErrClass = decl.ErrClassNotFound
	case len(c.errVals) == 1:
		d.ErrClass = decl.ErrClassConsistent
		for v := range c.errVals {
			d.HasErrorValue = true
			d.ErrorValue = v
		}
	default:
		d.ErrClass = decl.ErrClassInconsistent
		d.HasErrorValue = true
		d.ErrorValue = pickErrorValue(c.errVals)
	}
	c.result.ErrClass = d.ErrClass

	// Fallback error value for rejection when none was observed: NULL
	// for pointer returns, -1 otherwise (except void).
	if !d.HasErrorValue && d.ErrClass != decl.ErrClassNoReturn {
		d.HasErrorValue = true
		if c.proto.Ret.IsPointer() {
			d.ErrorValue = 0
		} else {
			d.ErrorValue = ^uint64(0)
		}
	}

	// Errno names, most common first; EINVAL is the rejection default.
	type en struct {
		e, n int
	}
	var ens []en
	for e, n := range c.errnos {
		ens = append(ens, en{e, n})
	}
	sort.Slice(ens, func(i, j int) bool {
		if ens[i].n != ens[j].n {
			return ens[i].n > ens[j].n
		}
		return ens[i].e < ens[j].e
	})
	for _, x := range ens {
		d.Errnos = append(d.Errnos, csim.ErrnoName(x.e))
	}
	d.ErrnoOnReject = csim.EINVAL

	if c.result.Unsafe() {
		d.Attribute = decl.AttrUnsafe
	} else {
		d.Attribute = decl.AttrSafe
	}

	for i, param := range c.proto.Params {
		rt := decl.RobustType{Base: typesys.TypeUnconstrained}
		if i < len(robust) {
			parsed, err := decl.ParseRobustType(robust[i])
			if err == nil {
				rt = parsed
			}
		}
		if rt.Parameterized() && rt.Size.Kind == decl.SizeFixed && rt.Size.N > 0 {
			rt.Size = c.inferSize(i, rt)
		}
		if k := rt.Kind(); k.Family == decl.FamilyArray && !k.Write && rt.Size.Kind == decl.SizeFixed {
			if upgraded, ok := c.inferBoundedRead(i, rt); ok {
				rt = upgraded
			}
		}
		d.Args = append(d.Args, decl.ArgDecl{CType: param.Type.String(), Robust: rt})
	}
	c.result.Decl = d
}

func pickErrorValue(vals map[uint64]int) uint64 {
	if _, ok := vals[0]; ok {
		return 0
	}
	if _, ok := vals[^uint64(0)]; ok {
		return ^uint64(0)
	}
	var best uint64
	bestN := -1
	for v, n := range vals {
		if n > bestN {
			best, bestN = v, n
		}
	}
	return best
}

// protOf maps a robust array type to the protection used when
// re-measuring minimal sizes (writes are measured with RW regions so
// read-modify-write functions still succeed).
func protOf(k decl.Kind) cmem.Prot {
	if k.Family == decl.FamilyArray && !k.Write {
		return cmem.ProtRead
	}
	return cmem.ProtRW
}
