package ballista

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"healers/internal/csim"
	"healers/internal/obs"
)

// Bucket classifies one test outcome for Figure 6.
type Bucket uint8

// Figure 6's three buckets. Crash folds together segfault, hang and
// abort, the failure kinds the wrapper must prevent.
const (
	BucketErrno Bucket = iota + 1
	BucketSilent
	BucketCrash
)

func (b Bucket) String() string {
	switch b {
	case BucketErrno:
		return "errno-set"
	case BucketSilent:
		return "silent"
	case BucketCrash:
		return "crash"
	}
	return fmt.Sprintf("Bucket(%d)", uint8(b))
}

// StrategyOutcome refines the Figure-6 bucket for the differential
// strategy matrix: the same test classified per wrapper mode. Reject
// mode never heals, so its outcomes stay within pass/reject/crash;
// Heal mode adds the healed classes.
type StrategyOutcome uint8

const (
	// StratPass: the call went through unmodified and returned without
	// setting errno.
	StratPass StrategyOutcome = iota + 1
	// StratReject: the wrapper refused the call (errno-set in Reject
	// mode, or an unrepairable argument in Heal mode).
	StratReject
	// StratHealSuccess: at least one argument was repaired and the
	// forwarded call completed silently.
	StratHealSuccess
	// StratHealDiverge: an argument was repaired but the forwarded call
	// still set errno — the repair changed observable behaviour rather
	// than silently absorbing the fault.
	StratHealDiverge
	// StratCrash: segfault, hang, or abort despite (or without) the
	// wrapper.
	StratCrash
)

func (o StrategyOutcome) String() string {
	switch o {
	case StratPass:
		return "pass"
	case StratReject:
		return "reject"
	case StratHealSuccess:
		return "heal-success"
	case StratHealDiverge:
		return "heal-diverge"
	case StratCrash:
		return "crash"
	}
	return fmt.Sprintf("StrategyOutcome(%d)", uint8(o))
}

// StrategyStats is implemented by callers (the wrapper interposer) that
// can report cumulative reject/heal counts; RunWith snapshots it around
// the main call to attribute the outcome to the strategy that produced
// it. Callers without it (the unwrapped library) classify on the
// outcome kind and errno alone.
type StrategyStats interface {
	StrategyCounts() (rejected, healed int64)
}

// FuncReport aggregates one function's outcomes.
type FuncReport struct {
	Name   string
	Errno  int
	Silent int
	Crash  int
	// Crash sub-kinds.
	Segfault int
	Hang     int
	Abort    int
}

// Tests returns the total tests run for the function.
func (r *FuncReport) Tests() int { return r.Errno + r.Silent + r.Crash }

// Report aggregates one configuration's run.
type Report struct {
	Config  string
	PerFunc map[string]*FuncReport
	// Outcomes holds the per-test strategy classification in suite
	// order (index-aligned with Suite.Tests), the raw material of the
	// strategy matrix and its mode-invariant tests.
	Outcomes []StrategyOutcome
}

// Totals sums the buckets across all functions.
func (r *Report) Totals() (errno, silent, crash, total int) {
	for _, fr := range r.PerFunc {
		errno += fr.Errno
		silent += fr.Silent
		crash += fr.Crash
	}
	return errno, silent, crash, errno + silent + crash
}

// CrashingFuncs returns the functions with at least one crash, sorted.
func (r *Report) CrashingFuncs() []string {
	var out []string
	for name, fr := range r.PerFunc {
		if fr.Crash > 0 {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// Rates returns the bucket percentages.
func (r *Report) Rates() (errnoPct, silentPct, crashPct float64) {
	e, s, c, t := r.Totals()
	if t == 0 {
		return 0, 0, 0
	}
	return 100 * float64(e) / float64(t), 100 * float64(s) / float64(t), 100 * float64(c) / float64(t)
}

// String renders a one-line summary.
func (r *Report) String() string {
	e, s, c, t := r.Totals()
	ep, sp, cp := r.Rates()
	return fmt.Sprintf("%s: %d tests — errno %d (%.2f%%), silent %d (%.2f%%), crash %d (%.2f%%), crashing funcs %d",
		r.Config, t, e, ep, s, sp, c, cp, len(r.CrashingFuncs()))
}

// CallerFactory builds the call path for one child process: the bare
// library for the unwrapped run, a fresh wrapper interposer otherwise.
// The caller is the test's own: one with a Release method is released
// after the test, so a factory must not hand one such caller to two
// tests.
type CallerFactory func(p *csim.Process) Caller

// stepBudget is the per-call hang budget of every test.
const stepBudget = 100_000

// RunOptions configures an observed suite run. The zero value runs
// sequentially with no instrumentation.
type RunOptions struct {
	// Obs, when enabled, receives one TestOutcome event per test
	// (streaming, in suite order when Workers <= 1) and a CampaignPhase
	// progress event every progressEvery tests and after the last.
	Obs *obs.Tracer
	// Metrics, when non-nil, registers per-bucket outcome counters
	// labeled by configuration, plus the sandbox boundary counters.
	Metrics *obs.Registry
	// Workers shards the suite across a goroutine pool. Each worker
	// forks its own private template, claims chunks of consecutive
	// tests from one shared cursor, forks a private child per test
	// from its template, and writes each classification at the test's
	// suite index, so the report is identical to the sequential run.
	// Dealing and outcome counting write no shared line per test:
	// the cursor and the outcome counters move once per chunk. 0 or 1
	// runs sequentially. With Workers > 1 trace events interleave by
	// completion; counters and the report stay deterministic.
	Workers int
}

// chunkSize is the number of consecutive tests a worker claims at
// once: large enough that claiming costs nothing per test, small
// enough that the last chunks even out the workers' finishing times.
const chunkSize = 32

// progressEvery is the number of tests between two progress events.
const progressEvery = 1000

// testResult is one executed test's classification, recorded at the
// test's suite index so parallel runs merge deterministically.
type testResult struct {
	bucket Bucket
	kind   csim.OutcomeKind // crash sub-kind; zero when not a crash
	strat  StrategyOutcome
}

// suiteRunner holds the per-configuration execution state shared by
// the sequential and sharded paths. Everything it touches concurrently
// is atomic (counters, the progress count) or internally locked (the
// tracer).
type suiteRunner struct {
	suite   *Suite
	config  string
	factory CallerFactory

	tr *obs.Tracer
	// outcomes are the per-bucket outcome counters, indexed by Bucket.
	outcomes [BucketCrash + 1]*obs.Counter
	sandbox  *csim.Metrics
	done     atomic.Int64
}

// releaser is a Caller holding per-test state (the wrapper
// interposer) that it hands back for reuse once the test is done.
type releaser interface{ Release() }

// runChunk runs the tests from start to end on template, records each
// result at its suite index, and adds the chunk's bucket counts to the
// outcome counters in one step, so a worker writes the counters, which
// every worker shares, once per chunk and not once per test.
func (r *suiteRunner) runChunk(template *csim.Process, start, end int, sc obs.SpanContext, f *Frame, results []testResult) {
	var n [BucketCrash + 1]int64
	for ti := start; ti < end; ti++ {
		res := r.runTest(template, &r.suite.Tests[ti], sc, f)
		results[ti] = res
		n[res.bucket]++
	}
	for b, c := range r.outcomes {
		if n[b] != 0 {
			c.Add(n[b])
		}
	}
}

// runTest forks a child from template, delivers one test, and
// classifies the outcome. It emits the per-test outcome event and the
// periodic progress event, both parented to sc (the suite span when
// sequential, the worker span when sharded); with tracing off it
// builds no event and reads no clock. The child, and the caller when
// it is a releaser, are released once the test is classified, so the
// next test's fork and factory call reuse them; f is the calling
// goroutine's argument frame.
func (r *suiteRunner) runTest(template *csim.Process, test *Test, sc obs.SpanContext, f *Frame) testResult {
	child := template.Fork()
	defer child.Release()
	child.SetStepBudget(stepBudget)
	child.Metrics = r.sandbox
	caller := r.factory(child)
	if rel, ok := caller.(releaser); ok {
		defer rel.Release()
	}
	var testStart time.Time
	if r.tr.Enabled() {
		testStart = time.Now()
	}
	res, out := r.deliver(child, caller, test, f)
	if r.tr.Enabled() {
		r.emit(test, sc, testStart, res, out)
	}
	return res
}

// deliver builds the test's arguments in child, into f, makes the call
// through caller and classifies what happened.
func (r *suiteRunner) deliver(child *csim.Process, caller Caller, test *Test, f *Frame) (testResult, csim.Outcome) {
	if cap(f.args) < len(test.Entries) {
		f.args = make([]uint64, len(test.Entries))
	}
	args := f.args[:len(test.Entries)]
	setup := child.Run(func() uint64 {
		for i, e := range test.Entries {
			args[i] = e.Build(child, caller, f)
		}
		return 0
	})
	if setup.Kind != csim.OutcomeReturn {
		// Setup trouble counts as silent: the test could not be
		// delivered (rare; kept for accounting completeness).
		return testResult{bucket: BucketSilent, strat: StratPass}, setup
	}

	// Snapshot the caller's strategy counters after setup (pool
	// construction may route calls through the wrapper) so the deltas
	// below belong to the main call alone.
	ss, _ := caller.(StrategyStats)
	var rej0, heal0 int64
	if ss != nil {
		rej0, heal0 = ss.StrategyCounts()
	}

	child.ClearErrno()
	out := child.Run(func() uint64 { return caller.Call(child, test.Func, args...) })
	switch out.Kind {
	case csim.OutcomeSegfault, csim.OutcomeHang, csim.OutcomeAbort:
		// Precedence crash > reject > heal > pass: a crash is terminal
		// whatever the wrapper did first.
		return testResult{bucket: BucketCrash, kind: out.Kind, strat: StratCrash}, out
	}
	bucket := BucketSilent
	if child.ErrnoSet() {
		bucket = BucketErrno
	}
	strat := StratPass
	if ss != nil {
		// A rejection means the call never reached the library even if
		// an earlier argument healed.
		rej1, heal1 := ss.StrategyCounts()
		switch {
		case rej1 > rej0:
			strat = StratReject
		case heal1 > heal0 && bucket == BucketErrno:
			strat = StratHealDiverge
		case heal1 > heal0:
			strat = StratHealSuccess
		}
	}
	if strat == StratPass && bucket == BucketErrno {
		// Unwrapped (or unhealed wrapped) errno-set: the library's own
		// refusal, kept distinct from StratPass so the matrix mirrors
		// Figure 6's errno bucket.
		strat = StratReject
	}
	return testResult{bucket: bucket, strat: strat}, out
}

// emit sends the test's outcome event and, every progressEvery tests
// and at the last one, the progress event.
func (r *suiteRunner) emit(test *Test, sc obs.SpanContext, testStart time.Time, res testResult, out csim.Outcome) {
	names := make([]string, len(test.Entries))
	for i, e := range test.Entries {
		names[i] = e.Name
	}
	r.tr.Emit(sc.Child().Tag(obs.Event{
		Kind:    obs.KindTestOutcome,
		Config:  r.config,
		Func:    test.Func,
		Probe:   strings.Join(names, ", "),
		Outcome: res.bucket.String(),
		Errno:   out.Errno,
		Steps:   out.Steps,
		TS:      testStart.UnixMicro(),
		DurUS:   time.Since(testStart).Microseconds(),
	}))
	if n := int(r.done.Add(1)); n%progressEvery == 0 || n == len(r.suite.Tests) {
		r.tr.Emit(sc.Tag(obs.Event{
			Kind:  obs.KindCampaignPhase,
			Phase: "ballista:" + r.config,
			N:     n,
			Total: len(r.suite.Tests),
		}))
	}
}

// RunWith executes the suite under one configuration with
// observability: streaming per-test outcome events, live progress, and
// bucket counters. With opt.Workers > 1 the tests are sharded across a
// goroutine pool and merged back in suite order.
func (s *Suite) RunWith(config string, template *csim.Process, factory CallerFactory, opt RunOptions) *Report {
	tr := opt.Obs      // nil-safe: a nil tracer is the disabled one
	reg := opt.Metrics // nil-safe
	runner := &suiteRunner{suite: s, config: config, factory: factory, tr: tr}
	for b := BucketErrno; b <= BucketCrash; b++ {
		runner.outcomes[b] = reg.Counter(fmt.Sprintf("healers_ballista_outcomes_total{config=%q,bucket=%q}", config, b))
	}
	if reg != nil {
		runner.sandbox = csim.NewMetrics(reg)
	}

	suiteSC := obs.NewTrace()
	suiteStart := time.Now()

	results := make([]testResult, len(s.Tests))
	if opt.Workers > 1 && len(s.Tests) > 1 {
		workers := opt.Workers
		if workers > len(s.Tests) {
			workers = len(s.Tests)
		}
		reg.Gauge(fmt.Sprintf("healers_ballista_workers{config=%q}", config)).Set(int64(workers))
		// Each worker forks its own template inside its goroutine:
		// copy-on-write forks only read the parent, the first fork
		// freezes it (serialized inside cmem), and a frozen Memory's
		// read paths write nothing — only a never-frozen child writes
		// its own page cache — so concurrent forks of (and reads from)
		// one shared template are race-free. Workers claim chunks of
		// consecutive tests from one cursor and write each result at
		// its suite index, so the cursor and the outcome counters,
		// which every worker writes, move once per chunk.
		var cursor atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wid := w
			wg.Add(1)
			go func() {
				defer wg.Done()
				wtpl := template.Fork()
				defer wtpl.Release()
				wsc := suiteSC.Child()
				workStart := time.Now()
				done := 0
				var frame Frame
				for {
					end := int(cursor.Add(chunkSize))
					start := end - chunkSize
					if start >= len(s.Tests) {
						break
					}
					end = min(end, len(s.Tests))
					runner.runChunk(wtpl, start, end, wsc, &frame, results)
					done += end - start
				}
				if tr.Enabled() {
					tr.Emit(wsc.Tag(obs.Event{
						Kind:   obs.KindSpan,
						Phase:  fmt.Sprintf("ballista-worker-%d", wid),
						Config: config,
						N:      done,
						Total:  len(s.Tests),
						TS:     workStart.UnixMicro(),
						DurUS:  time.Since(workStart).Microseconds(),
					}))
				}
			}()
		}
		wg.Wait()
	} else {
		var frame Frame
		for start := 0; start < len(s.Tests); start += chunkSize {
			runner.runChunk(template, start, min(start+chunkSize, len(s.Tests)), suiteSC, &frame, results)
		}
	}

	// Deterministic merge: aggregate in suite order, so PerFunc is the
	// same map the sequential loop built regardless of completion order.
	mergeStart := time.Now()
	report := &Report{
		Config:   config,
		PerFunc:  make(map[string]*FuncReport),
		Outcomes: make([]StrategyOutcome, len(s.Tests)),
	}
	for ti := range s.Tests {
		test := &s.Tests[ti]
		report.Outcomes[ti] = results[ti].strat
		fr := report.PerFunc[test.Func]
		if fr == nil {
			fr = &FuncReport{Name: test.Func}
			report.PerFunc[test.Func] = fr
		}
		switch results[ti].bucket {
		case BucketErrno:
			fr.Errno++
		case BucketSilent:
			fr.Silent++
		case BucketCrash:
			fr.Crash++
			switch results[ti].kind {
			case csim.OutcomeSegfault:
				fr.Segfault++
			case csim.OutcomeHang:
				fr.Hang++
			case csim.OutcomeAbort:
				fr.Abort++
			}
		}
	}
	reg.Histogram("healers_phase_merge_us", mergeBuckets).
		ObserveEx(time.Since(mergeStart).Microseconds(), suiteSC.Trace)
	if tr.Enabled() {
		tr.Emit(suiteSC.Tag(obs.Event{
			Kind:   obs.KindSpan,
			Phase:  "ballista:" + config,
			Config: config,
			N:      len(s.Tests),
			Total:  len(s.Tests),
			TS:     suiteStart.UnixMicro(),
			DurUS:  time.Since(suiteStart).Microseconds(),
		}))
	}
	return report
}

// mergeBuckets bound the suite-merge duration histogram (microseconds);
// the name matches the injector's merge histogram so both phases land
// in one family.
var mergeBuckets = []int64{1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000, 25000}

// Figure6 holds the paper's three-bar comparison.
type Figure6 struct {
	Unwrapped *Report
	FullAuto  *Report
	SemiAuto  *Report
	Tests     int
	Funcs     int
}

// Format renders the figure as the three stacked bars in text.
func (f *Figure6) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 6 — %d Ballista tests over %d functions\n", f.Tests, f.Funcs)
	fmt.Fprintf(&b, "%-18s %10s %10s %10s   %s\n", "configuration", "errno-set", "silent", "crash", "crashing funcs")
	for _, r := range []*Report{f.Unwrapped, f.FullAuto, f.SemiAuto} {
		e, s, c, _ := r.Totals()
		ep, sp, cp := r.Rates()
		fmt.Fprintf(&b, "%-18s %6d %3.2f%% %5d %3.2f%% %5d %3.2f%%   %d\n",
			r.Config, e, ep, s, sp, c, cp, len(r.CrashingFuncs()))
	}
	return b.String()
}

// FormatCrashes lists each configuration's crashing functions, then
// the per-function detail of the full-auto residuals.
func (f *Figure6) FormatCrashes() string {
	var b strings.Builder
	b.WriteString("\n")
	for _, r := range []*Report{f.Unwrapped, f.FullAuto, f.SemiAuto} {
		crashing := r.CrashingFuncs()
		fmt.Fprintf(&b, "crashing functions, %s (%d):\n  %v\n", r.Config, len(crashing), crashing)
	}
	if residual := f.FullAuto.CrashingFuncs(); len(residual) > 0 {
		b.WriteString("\nfull-auto residual detail (the corrupted-structure class):\n")
		for _, name := range residual {
			fr := f.FullAuto.PerFunc[name]
			fmt.Fprintf(&b, "  %-12s crash=%3d (segv %d, hang %d, abort %d) of %d tests\n",
				name, fr.Crash, fr.Segfault, fr.Hang, fr.Abort, fr.Tests())
		}
	}
	return b.String()
}
