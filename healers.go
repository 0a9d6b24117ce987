// Package healers is a reproduction of "An Automated Approach to
// Increasing the Robustness of C Libraries" (Fetzer & Xiao, DSN 2002).
//
// HEALERS hardens a C library it has no source for: it extracts the
// prototypes of the library's global functions from header files and
// manual pages, runs adaptive fault-injection experiments to compute a
// robust type for every argument, and generates a wrapper that checks
// arguments against those types before each call — returning an error
// code with errno set where the bare library would crash, hang or abort.
//
// Because Go cannot interpose on a real libc, the whole substrate is
// simulated: package cmem provides paged memory with per-page
// protection and faulting addresses, csim provides processes with
// errno/descriptors/signals, and clib implements a deliberately
// non-defensive C library whose fragilities match those the paper
// measured in glibc 2.2. Everything above that layer — the extraction
// pipeline, the type system, the fault injector, the wrapper — is the
// paper's system.
//
// The typical flow:
//
//	sys, _ := healers.NewSystem()
//	campaign, _ := sys.Inject(sys.CrashProne86())
//	decls := campaign.Decls()              // Figure 2 declarations
//	semi := healers.SemiAuto(decls)        // §6 manual edits
//	p := sys.NewProcess(nil)
//	w := sys.Wrap(p, semi)                 // the robustness wrapper
//	w.Call(p, "strcpy", dst, src)          // checked call
package healers

import (
	"healers/internal/analysis"
	"healers/internal/analysis/bodyfacts"
	"healers/internal/apps"
	"healers/internal/ballista"
	"healers/internal/clib"
	"healers/internal/corpus"
	"healers/internal/csim"
	"healers/internal/decl"
	"healers/internal/extract"
	"healers/internal/injector"
	"healers/internal/obs"
	"healers/internal/wrapgen"
	"healers/internal/wrapper"
)

// Re-exported types: the public names of the subsystems the examples
// and tools build on.
type (
	// Library is the simulated shared C library under test.
	Library = clib.Library
	// Process is a simulated Unix process hosting the library.
	Process = csim.Process
	// Campaign is the result of a fault-injection run.
	Campaign = injector.Campaign
	// InjectorConfig tunes fault injection.
	InjectorConfig = injector.Config
	// DeclSet is a set of Figure 2 function declarations.
	DeclSet = decl.DeclSet
	// FuncDecl is one Figure 2 function declaration.
	FuncDecl = decl.FuncDecl
	// Interposer is the runtime robustness wrapper for one process.
	Interposer = wrapper.Interposer
	// WrapperOptions configures an Interposer.
	WrapperOptions = wrapper.Options
	// Suite is a Ballista-style robustness test suite.
	Suite = ballista.Suite
	// Figure6 is the three-configuration robustness comparison.
	Figure6 = ballista.Figure6
	// Report is one Ballista run's aggregation.
	Report = ballista.Report
	// Mode selects the wrapper's response strategy for failed checks.
	Mode = wrapper.Mode
	// StrategyMatrix is the differential comparison of the wrapper
	// strategies over one suite.
	StrategyMatrix = ballista.StrategyMatrix
	// Measurement is one Table 2 row as measured.
	Measurement = apps.Measurement
	// Extraction is the phase-one output: prototypes plus statistics.
	Extraction = extract.Result
	// Prediction is the static robust-type pre-inference output.
	Prediction = analysis.Prediction
	// AnalysisReport is the static-vs-dynamic agreement report.
	AnalysisReport = analysis.Report
	// InjectorSeeds carries static size/read-only hints into a campaign.
	InjectorSeeds = injector.Seeds
	// InjectorCache memoizes per-function campaign results across runs:
	// in memory (NewInjectorCache), or persisted across restarts as a
	// checksummed, corruption-tolerant JSONL file (OpenInjectorCache).
	InjectorCache = injector.ResultCache
	// Tracer is the structured observability event tracer.
	Tracer = obs.Tracer
	// TraceEvent is one structured observability event.
	TraceEvent = obs.Event
	// TraceSink consumes tracer events (JSONL writer, text renderer,
	// bounded collector...).
	TraceSink = obs.Sink
	// Metrics is the atomic counter/gauge/histogram registry.
	Metrics = obs.Registry
)

// The wrapper's strategies for a call whose argument fails its check:
// reject it with errno (the paper's behaviour), heal the argument and
// forward the repaired call, or introspect the live allocation table to
// rescue false rejections of legal-but-small buffers.
const (
	ModeReject     = wrapper.ModeReject
	ModeHeal       = wrapper.ModeHeal
	ModeIntrospect = wrapper.ModeIntrospect
)

// ParseMode parses a -mode flag value ("reject", "heal", "introspect";
// empty means reject).
func ParseMode(s string) (Mode, error) { return wrapper.ParseMode(s) }

// NewTracer returns a tracer fanning out to the given sinks; with no
// sinks it is disabled at zero cost.
func NewTracer(sinks ...TraceSink) *Tracer { return obs.New(sinks...) }

// NewMetrics returns an empty metrics registry.
func NewMetrics() *Metrics { return obs.NewRegistry() }

// NewInjectorCache returns an empty campaign result cache; pass it via
// InjectorConfig.Cache so re-runs skip unchanged functions.
func NewInjectorCache() *InjectorCache { return injector.NewResultCache() }

// OpenInjectorCache opens (creating if absent) a persistent result
// cache: campaign results put through it survive process restarts, and
// corrupt entries are dropped and recomputed rather than served.
func OpenInjectorCache(path string) (*InjectorCache, error) {
	return injector.OpenDiskCache(path)
}

// Observability bundles the cross-cutting instrumentation threaded
// through a campaign: structured tracing (whose root spans time each
// phase) and metrics. The zero value disables both.
type Observability struct {
	Tracer  *Tracer
	Metrics *Metrics
	// Workers shards each Ballista configuration run across a goroutine
	// pool (0 or 1 = sequential). Reports are identical to sequential
	// runs; see ballista.RunOptions.Workers.
	Workers int
}

// System bundles the library with its extraction products.
type System struct {
	Library    *Library
	Corpus     *corpus.Corpus
	Extraction *Extraction
}

// NewSystem builds the simulated library, its header/man-page corpus,
// and runs the extraction pipeline over it.
func NewSystem() (*System, error) {
	lib := clib.New()
	c := corpus.Build(lib)
	ext, err := extract.Run(c)
	if err != nil {
		return nil, err
	}
	return &System{Library: lib, Corpus: c, Extraction: ext}, nil
}

// CrashProne86 returns the paper's evaluation set: the 86 POSIX
// functions previously found to suffer crash failures.
func (s *System) CrashProne86() []string { return s.Library.CrashProne86() }

// Inject runs the adaptive fault-injection campaign over the named
// functions (nil means every external function with a prototype) with
// the default configuration.
func (s *System) Inject(names []string) (*Campaign, error) {
	return s.InjectWith(names, injector.DefaultConfig())
}

// InjectWith runs the campaign with an explicit configuration. Parallel
// workers (cfg.Workers > 1) share the system's immutable library.
func (s *System) InjectWith(names []string, cfg InjectorConfig) (*Campaign, error) {
	return injector.New(s.Library, cfg).InjectAll(s.Extraction, names)
}

// Predict runs only the static pass: prototype-based robust-type
// pre-inference over the named functions (nil means every external
// function with a prototype). No fault injection is performed.
func (s *System) Predict(names []string) (*Prediction, error) {
	return analysis.Predict(s.Extraction, names)
}

// Analyze runs the full static-analysis pipeline: prediction, a cold
// and a seeded injection campaign, per-argument agreement
// classification, and static verification of the generated wrapper C.
func (s *System) Analyze(names []string, cfg InjectorConfig) (*AnalysisReport, error) {
	pred, err := analysis.Predict(s.Extraction, s.analyzed(names))
	if err != nil {
		return nil, err
	}
	return analysis.Run(s.Library, s.Extraction, pred, cfg)
}

// analyzed resolves the function list of an analysis (nil means the
// crash-prone 86).
func (s *System) analyzed(names []string) []string {
	if names == nil {
		return s.Library.CrashProne86()
	}
	return names
}

// PredictBodies runs the body-level static pass: robust types lowered
// from the checked-in bodyscan access summaries (internal/analysis/
// bodyfacts) rather than from prototypes alone. No fault injection is
// performed.
func (s *System) PredictBodies(names []string) (*Prediction, error) {
	return analysis.BodyPredict(bodyfacts.Facts(), names)
}

// AnalyzeBodies is Analyze with the body-level pass in place of the
// prototype pass: the seeded campaign and the agreement table both use
// predictions lowered from the committed bodyscan summaries.
func (s *System) AnalyzeBodies(names []string, cfg InjectorConfig) (*AnalysisReport, error) {
	pred, err := analysis.BodyPredict(bodyfacts.Facts(), s.analyzed(names))
	if err != nil {
		return nil, err
	}
	return analysis.Run(s.Library, s.Extraction, pred, cfg)
}

// UnmarshalDecls parses an archived <functions> declaration document
// (the output of DeclSet.MarshalSetXML, possibly manually edited).
func UnmarshalDecls(data []byte) (*DeclSet, error) { return decl.UnmarshalSetXML(data) }

// SemiAuto applies the paper's §6 manual edits (executable assertions
// for DIR tracking and FILE integrity) to a declaration set, returning
// the semi-automatic set.
func SemiAuto(decls *DeclSet) *DeclSet { return decl.ApplySemiAutoEdits(decls) }

// NewProcess returns a simulated process over fs (a fresh filesystem
// when nil).
func (s *System) NewProcess(fs *csim.FS) *Process { return csim.NewProcess(fs) }

// Wrap attaches a robustness wrapper to a process using the default
// (deployed) policy: violations return the function's error code with
// errno set.
func (s *System) Wrap(p *Process, decls *DeclSet) *Interposer {
	return wrapper.Attach(p, s.Library, decls, wrapper.DefaultOptions())
}

// WrapWith attaches a wrapper with explicit options (abort policy,
// stateless checking).
func (s *System) WrapWith(p *Process, decls *DeclSet, opts WrapperOptions) *Interposer {
	return wrapper.Attach(p, s.Library, decls, opts)
}

// WrapperSource emits the generated wrapper as C source in the shape of
// the paper's Figure 5.
func (s *System) WrapperSource(decls *DeclSet) string {
	return wrapgen.File(decls, wrapgen.Options{})
}

// GenerateSuite builds the deterministic Ballista-style suite over the
// 86 functions, trimmed to the paper's 11,995 tests.
func (s *System) GenerateSuite() (*Suite, error) {
	suite, err := ballista.Generate(s.Library, s.Extraction, 0)
	if err != nil {
		return nil, err
	}
	suite.Trim(11995)
	return suite, nil
}

// RunFigure6 evaluates the suite under the three configurations of the
// paper's Figure 6: unwrapped, fully automatic, semi-automatic.
func (s *System) RunFigure6(suite *Suite, fullAuto, semiAuto *DeclSet) *Figure6 {
	return s.RunFigure6WithMode(suite, fullAuto, semiAuto, Observability{}, ModeReject)
}

// RunFigure6WithMode is RunFigure6 with instrumentation threaded
// through every layer — per-test outcome events and progress from the
// suite runner, wrapper counters and violation events, sandbox
// boundary counters, and one root span per configuration
// (ballista:<config>) — and the wrapped configurations running under
// an explicit wrapper mode.
func (s *System) RunFigure6WithMode(suite *Suite, fullAuto, semiAuto *DeclSet, o Observability, mode Mode) *Figure6 {
	template := ballista.NewTemplate()
	lib := s.Library
	runOpts := ballista.RunOptions{Obs: o.Tracer, Metrics: o.Metrics, Workers: o.Workers}
	wrapOpts := wrapper.DefaultOptions()
	wrapOpts.Obs = o.Tracer
	wrapOpts.Metrics = o.Metrics
	wrapOpts.Mode = mode

	run := func(config string, factory func(p *Process) ballista.Caller) *Report {
		return suite.RunWith(config, template, factory, runOpts)
	}
	return &Figure6{
		Unwrapped: run("unwrapped", func(p *Process) ballista.Caller {
			return lib
		}),
		FullAuto: run("full-auto", func(p *Process) ballista.Caller {
			return wrapper.Attach(p, lib, fullAuto, wrapOpts)
		}),
		SemiAuto: run("semi-auto", func(p *Process) ballista.Caller {
			return wrapper.Attach(p, lib, semiAuto, wrapOpts)
		}),
		Tests: len(suite.Tests),
		Funcs: len(suite.PerFunc),
	}
}

// RunStrategyMatrix runs the identical suite under the unwrapped
// library and all three wrapper modes (semi-automatic declarations) in
// one pass, returning the aligned differential matrix. Each
// configuration gets its own root span (ballista:<config>); with
// o.Workers > 1 every configuration's run is sharded and the matrix is
// identical to the sequential one.
func (s *System) RunStrategyMatrix(suite *Suite, decls *DeclSet, o Observability) (*StrategyMatrix, error) {
	template := ballista.NewTemplate()
	lib := s.Library
	runOpts := ballista.RunOptions{Obs: o.Tracer, Metrics: o.Metrics, Workers: o.Workers}

	run := func(config string, mode Mode, wrapped bool) *Report {
		wrapOpts := wrapper.DefaultOptions()
		wrapOpts.Obs = o.Tracer
		wrapOpts.Metrics = o.Metrics
		wrapOpts.Mode = mode
		factory := func(p *Process) ballista.Caller {
			if !wrapped {
				return lib
			}
			return wrapper.Attach(p, lib, decls, wrapOpts)
		}
		return suite.RunWith(config, template, factory, runOpts)
	}
	unwrapped := run("unwrapped", ModeReject, false)
	reject := run("mode-reject", ModeReject, true)
	heal := run("mode-heal", ModeHeal, true)
	introspect := run("mode-introspect", ModeIntrospect, true)
	return ballista.NewStrategyMatrix(suite, unwrapped, reject, heal, introspect)
}

// MeasureTable2 runs the four utility-program workloads of Table 2
// under the given declarations and reports the overhead rows.
func (s *System) MeasureTable2(decls *DeclSet) []Measurement {
	return apps.MeasureAll(s.Library, decls)
}

// FormatTable2 renders Table 2 measurements next to the paper's values.
func FormatTable2(ms []Measurement) string { return apps.FormatTable2(ms) }
