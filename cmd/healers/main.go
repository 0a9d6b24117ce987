// Command healers drives the full HEALERS pipeline over the simulated
// C library: prototype extraction, fault injection, wrapper generation,
// and the paper's three evaluations.
//
// Usage:
//
//	healers extract                      # §3 extraction statistics
//	healers inject [flags] [func...]     # robust argument types (all 86 by default)
//	healers analyze [flags] [func...]    # static prediction vs dynamic agreement table
//	healers decl <func>...               # Figure 2 XML declarations, in campaign order
//	healers wrap [flags] [func...]       # Figure 5 C wrapper source
//	healers table1 [flags]               # Table 1 error-return classification
//	healers figure6 [flags]              # Figure 6 robustness evaluation + crash lists
//	healers strategy [flags]             # differential wrapper-strategy matrix
//	healers table2                       # Table 2 performance overhead
//	healers stats [flags]                # full campaign with metrics + phase profile
//	healers bitflip [func...]            # §9 future work: bit-flip injection
//	healers serve [flags]                # long-running HTTP campaign service
//
// Every command accepts every flag; flags precede the function names.
//
// Observability and campaign flags:
//
//	-trace out.jsonl       write every structured event as JSON lines
//	-trace-out out.json    write the campaign as Chrome trace-event JSON
//	                       (open in Perfetto / chrome://tracing)
//	-v                     print every structured event as one text line
//	                       on stdout: each probe, outcome, and adjustment
//	-metrics               print the metrics exposition after the report
//	-progress              stream campaign progress to stderr
//	-workers N             shard the campaign across N workers (0 = one
//	                       per CPU, 1 = sequential); results are
//	                       byte-identical to the sequential run
//	-conservative          inject with the stricter §4.3 robust-type variant
//
// A trace that cannot be written fails the command with exit status 1.
//
// Command-specific flags:
//
//	inject -seed=static|body|none  seed adaptive growth from a static pass
//	                           (static = prototype pass, body = bodyscan facts)
//	wrap/figure6/stats -mode M wrapper strategy: reject (default), heal
//	                           (repair failing arguments and forward), or
//	                           introspect (allocation-table rescue of
//	                           false rejections)
//	wrap -semi                 apply the §6 semi-automatic manual edits
//	wrap -abort                emit the debugging-phase abort policy
//	figure6 -stateless         add the stateless-wrapper ablation run
//	analyze -json              emit the agreement report as JSON (per
//	                           argument: predicted type, confidence, reason)
//	analyze -bodies            agreement table for the body-level bodyscan
//	                           pass instead of the prototype pass
//	serve -addr :8080          listen address for the campaign service
//	serve -cache results.jsonl persistent result cache shared across restarts
//	serve -pprof               mount net/http/pprof under /debug/pprof/
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"slices"
	"strings"
	"syscall"
	"time"

	"healers"
	"healers/internal/ballista"
	"healers/internal/bitflip"
	"healers/internal/injector"
	"healers/internal/obs"
	"healers/internal/report"
	"healers/internal/serve"
	"healers/internal/wrapgen"
	"healers/internal/wrapper"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "healers:", err)
		os.Exit(1)
	}
}

// obsFlags is the per-command observability configuration assembled
// from command-line flags.
type obsFlags struct {
	tracePath    *string
	traceOut     *string
	metrics      *bool
	progress     *bool
	verbose      *bool
	workers      *int
	conservative *bool

	out      io.Writer
	tracer   *obs.Tracer
	registry *obs.Registry
	file     *os.File
	jsonl    *obs.JSONLSink
	collect  *obs.CollectSink
	// roots are the trace's root spans, the top-level phases the stats
	// command profiles.
	roots []obs.Event
}

func registerObsFlags(fs *flag.FlagSet) *obsFlags {
	return &obsFlags{
		tracePath:    fs.String("trace", "", "write structured JSONL trace events to `file`"),
		traceOut:     fs.String("trace-out", "", "write the campaign as Chrome trace-event JSON to `file` (Perfetto-loadable)"),
		metrics:      fs.Bool("metrics", false, "print the metrics exposition after the report"),
		progress:     fs.Bool("progress", false, "stream campaign progress events to stderr"),
		verbose:      fs.Bool("v", false, "print every structured event as one text line on stdout"),
		workers:      fs.Int("workers", 1, "parallel campaign workers (`N`; 0 = one per CPU, 1 = sequential)"),
		conservative: fs.Bool("conservative", false, "use the stricter §4.3 robust-type variant"),
	}
}

// open builds the tracer and registry after flag parsing; reports go
// to out. The stats and serve commands always get a registry; stats
// also records the trace's root spans for its campaign profile.
func (of *obsFlags) open(cmd string, out io.Writer) error {
	of.out = out
	var sinks []obs.Sink
	if *of.tracePath != "" {
		f, err := os.Create(*of.tracePath)
		if err != nil {
			return err
		}
		of.file = f
		of.jsonl = obs.NewJSONLSink(f)
		sinks = append(sinks, of.jsonl)
	}
	if *of.verbose {
		sinks = append(sinks, obs.NewTextSink(out))
	}
	if *of.traceOut != "" {
		of.collect = obs.NewCollectSink(0)
		sinks = append(sinks, of.collect)
	}
	if *of.progress {
		sinks = append(sinks, obs.FuncSink(func(e obs.Event) {
			if e.Kind == obs.KindCampaignPhase {
				fmt.Fprintln(os.Stderr, e.String())
			}
		}))
	}
	if cmd == "stats" {
		// Sinks run under the tracer's lock, so the append is serialized.
		sinks = append(sinks, obs.FuncSink(func(e obs.Event) {
			if e.Kind == obs.KindSpan && e.Parent == 0 {
				of.roots = append(of.roots, e)
			}
		}))
	}
	of.tracer = obs.New(sinks...)
	if *of.metrics || cmd == "stats" || cmd == "serve" {
		of.registry = obs.NewRegistry()
	}
	return nil
}

// close writes the Chrome trace and closes the JSONL file. Every write
// failure of either comes back, so a lost trace fails the command.
func (of *obsFlags) close() error {
	var errs []error
	if of.collect != nil {
		data, err := obs.MarshalChromeTrace(of.collect.Events())
		if err == nil {
			err = os.WriteFile(*of.traceOut, data, 0o644)
		}
		if err != nil {
			errs = append(errs, fmt.Errorf("writing trace: %w", err))
		} else if dropped := of.collect.Dropped(); dropped > 0 {
			fmt.Fprintf(os.Stderr, "healers: trace truncated, %d events dropped at capacity\n", dropped)
		}
	}
	if of.file != nil {
		if err := errors.Join(of.jsonl.Err(), of.file.Close()); err != nil {
			errs = append(errs, fmt.Errorf("writing %s: %w", *of.tracePath, err))
		}
	}
	return errors.Join(errs...)
}

// finish prints the exposition when -metrics was requested.
func (of *obsFlags) finish() {
	if of.registry != nil {
		fmt.Fprintln(of.out)
		fmt.Fprint(of.out, report.Stats(of.registry, nil))
	}
}

func (of *obsFlags) injectorConfig() healers.InjectorConfig {
	cfg := injector.DefaultConfig()
	cfg.Obs = of.tracer
	cfg.Metrics = of.registry
	cfg.Workers = injector.ResolveWorkers(*of.workers)
	cfg.Conservative = *of.conservative
	return cfg
}

// observability threads the tracer, registry and workers into a suite run.
func (of *obsFlags) observability() healers.Observability {
	return healers.Observability{Tracer: of.tracer, Metrics: of.registry, Workers: injector.ResolveWorkers(*of.workers)}
}

// generateSuite builds the Ballista suite under its own root span, the
// profile's "generate" phase.
func (of *obsFlags) generateSuite(sys *healers.System) (*healers.Suite, error) {
	start := time.Now()
	suite, err := sys.GenerateSuite()
	if err != nil {
		return nil, err
	}
	if of.tracer.Enabled() {
		of.tracer.Emit(obs.NewTrace().Tag(obs.Event{
			Kind:  obs.KindSpan,
			Phase: "generate",
			N:     len(suite.Tests),
			Total: len(suite.Tests),
			TS:    start.UnixMicro(),
			DurUS: time.Since(start).Microseconds(),
		}))
	}
	return suite, nil
}

// runServe hosts the campaign service until SIGINT/SIGTERM, then
// drains in two stages. First the application drains: new submissions
// get 503 while status, vector, SSE, and metrics reads stay served;
// running campaigns finish (open SSE streams receive their done
// events); and the disk cache is synced and closed. Only then does the
// HTTP listener shut down. The ordering is what makes the drain
// observable — a client probing during the drain window sees an
// explicit 503, never a torn-down socket with work still in flight.
//
// The listener is resolved before the ready line is printed, so
// `-addr 127.0.0.1:0` works for harnesses (cmd/crashtest) that need an
// ephemeral port: the printed address is the bound one.
func runServe(addr, cachePath string, workers int, reg *obs.Registry, withPprof bool) error {
	srv, err := serve.New(serve.Options{
		CachePath: cachePath,
		Workers:   workers,
		Registry:  reg,
		Pprof:     withPprof,
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Close(ctx) //nolint:errcheck // release the cache lock on startup failure
		return err
	}
	httpSrv := &http.Server{Handler: srv.Handler()}

	// Register the handler before the ready line is printed: a harness
	// that signals the moment the server looks healthy must never catch
	// the default SIGTERM action in the gap before Notify runs.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	idle := make(chan struct{})
	go func() {
		defer close(idle)
		<-sig
		fmt.Fprintln(os.Stderr, "healers serve: draining")
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		if err := srv.Close(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "healers serve: drain:", err)
		}
		sctx, scancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer scancel()
		if err := httpSrv.Shutdown(sctx); err != nil {
			fmt.Fprintln(os.Stderr, "healers serve: shutdown:", err)
		}
		fmt.Fprintln(os.Stderr, "healers serve: drained")
	}()

	fmt.Fprintf(os.Stderr, "healers serve: listening on %s (cache %q, workers %d)\n",
		ln.Addr(), cachePath, injector.ResolveWorkers(workers))
	if err := httpSrv.Serve(ln); err != nil && err != http.ErrServerClosed {
		return err
	}
	<-idle
	return nil
}

// commands are the subcommands in usage order. run rejects any other
// name before it opens a trace file or builds the System.
var commands = []string{"extract", "inject", "analyze", "decl", "wrap", "table1", "figure6", "strategy", "table2", "stats", "bitflip", "serve"}

// cmdFlags are the command-specific flags. They share one FlagSet with
// the observability flags.
type cmdFlags struct {
	stateless, jsonOut, bodies, pprof, semi, abort *bool
	mode, seed, addr, cache                        *string
}

// newFlagSet registers every flag healers accepts.
func newFlagSet(cmd string) (*flag.FlagSet, *obsFlags, *cmdFlags) {
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	of := registerObsFlags(fs)
	return fs, of, &cmdFlags{
		stateless: fs.Bool("stateless", false, "figure6: add the stateless-wrapper ablation run"),
		mode:      fs.String("mode", "", "wrap/figure6/stats: wrapper strategy (reject|heal|introspect)"),
		seed:      fs.String("seed", "none", "inject: seed adaptive growth from a static pass (static|body|none)"),
		jsonOut:   fs.Bool("json", false, "analyze: emit the agreement report as JSON"),
		bodies:    fs.Bool("bodies", false, "analyze: use the body-level bodyscan facts instead of the prototype pass"),
		semi:      fs.Bool("semi", false, "wrap: apply the §6 semi-automatic manual edits"),
		abort:     fs.Bool("abort", false, "wrap: emit the debugging-phase abort policy"),
		addr:      fs.String("addr", ":8080", "serve: listen `address` for the campaign service"),
		cache:     fs.String("cache", "", "serve: persistent result cache `file` (JSONL; empty = in-memory)"),
		pprof:     fs.Bool("pprof", false, "serve: mount net/http/pprof under /debug/pprof/"),
	}
}

// run executes one subcommand, writing its report to w.
func run(args []string, w io.Writer) (err error) {
	if len(args) == 0 {
		return fmt.Errorf("usage: healers %s", strings.Join(commands, "|"))
	}
	cmd, rest := args[0], args[1:]
	if !slices.Contains(commands, cmd) {
		return fmt.Errorf("unknown command %q", cmd)
	}

	fs, of, cf := newFlagSet(cmd)
	if err := fs.Parse(rest); err != nil {
		return err
	}
	rest = fs.Args()
	if err := of.open(cmd, w); err != nil {
		return err
	}
	defer func() { err = errors.Join(err, of.close()) }()

	if cmd == "serve" {
		return runServe(*cf.addr, *cf.cache, *of.workers, of.registry, *cf.pprof)
	}

	sys, err := healers.NewSystem()
	if err != nil {
		return err
	}

	// orAll86 defaults an empty function list to the paper's 86.
	orAll86 := func(names []string) []string {
		if len(names) == 0 {
			return sys.CrashProne86()
		}
		return names
	}
	inject := func(names []string) (*healers.Campaign, error) {
		return sys.InjectWith(orAll86(names), of.injectorConfig())
	}

	switch cmd {
	case "extract":
		fmt.Fprint(w, report.Extraction(sys.Extraction.Stats))

	case "inject":
		names := orAll86(rest)
		cfg := of.injectorConfig()
		if *cf.seed != "none" {
			predict, ok := map[string]func([]string) (*healers.Prediction, error){
				"static": sys.Predict, "body": sys.PredictBodies,
			}[*cf.seed]
			if !ok {
				return fmt.Errorf("inject: -seed must be static, body, or none, got %q", *cf.seed)
			}
			pred, err := predict(names)
			if err != nil {
				return err
			}
			cfg.Seeds = pred.Seeds()
		}
		campaign, err := sys.InjectWith(names, cfg)
		if err != nil {
			return err
		}
		fmt.Fprint(w, report.Declarations(campaign))
		of.finish()

	case "analyze":
		var names []string
		if len(rest) > 0 {
			names = rest
		}
		analyze := sys.Analyze
		if *cf.bodies {
			analyze = sys.AnalyzeBodies
		}
		rep, err := analyze(names, of.injectorConfig())
		if err != nil {
			return err
		}
		if *cf.jsonOut {
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			if err := enc.Encode(rep); err != nil {
				return err
			}
		} else {
			fmt.Fprint(w, report.Analysis(rep))
		}
		of.finish()

	case "decl":
		if len(rest) == 0 {
			return fmt.Errorf("usage: healers decl <function>...")
		}
		campaign, err := inject(rest)
		if err != nil {
			return err
		}
		for _, name := range campaign.Order {
			xml, err := campaign.Results[name].Decl.EncodeXML()
			if err != nil {
				return err
			}
			fmt.Fprintln(w, string(xml))
		}

	case "wrap":
		if _, err := healers.ParseMode(*cf.mode); err != nil {
			return fmt.Errorf("wrap: %v", err)
		}
		campaign, err := inject(rest)
		if err != nil {
			return err
		}
		decls := campaign.Decls()
		if *cf.semi {
			decls = healers.SemiAuto(decls)
		}
		fmt.Fprint(w, wrapgen.ChecksHeader())
		fmt.Fprintln(w)
		fmt.Fprint(w, wrapgen.File(decls, wrapgen.Options{Mode: *cf.mode, AbortOnViolation: *cf.abort}))

	case "table1":
		campaign, err := inject(nil)
		if err != nil {
			return err
		}
		fmt.Fprint(w, report.Table1(campaign))
		of.finish()

	case "figure6", "stats":
		mode, err := healers.ParseMode(*cf.mode)
		if err != nil {
			return fmt.Errorf("%s: %v", cmd, err)
		}
		campaign, err := inject(nil)
		if err != nil {
			return err
		}
		decls := campaign.Decls()
		suite, err := of.generateSuite(sys)
		if err != nil {
			return err
		}
		fig := sys.RunFigure6WithMode(suite, decls, healers.SemiAuto(decls), of.observability(), mode)
		fmt.Fprint(w, fig.Format())
		if cmd == "stats" {
			fmt.Fprintln(w)
			fmt.Fprint(w, report.Stats(of.registry, of.roots))
		} else {
			fmt.Fprint(w, fig.FormatCrashes())
			of.finish()
		}
		if *cf.stateless {
			// Ablation: the full-auto wrapper without its stateful
			// tables — page probing and stack bounds only (§5.1's
			// comparison against the signal-handler approach of [2]).
			template := ballista.NewTemplate()
			opts := wrapper.DefaultOptions()
			opts.Stateless = true
			rep := suite.RunWith("full-auto-stateless", template,
				func(p *healers.Process) ballista.Caller {
					return wrapper.Attach(p, sys.Library, decls, opts)
				}, ballista.RunOptions{})
			fmt.Fprintf(w, "\nablation: %s\n", rep)
		}

	case "strategy":
		campaign, err := inject(nil)
		if err != nil {
			return err
		}
		semi := healers.SemiAuto(campaign.Decls())
		suite, err := of.generateSuite(sys)
		if err != nil {
			return err
		}
		m, err := sys.RunStrategyMatrix(suite, semi, of.observability())
		if err != nil {
			return err
		}
		fmt.Fprint(w, m.Format())
		if violations := m.InvariantViolations(suite); len(violations) > 0 {
			fmt.Fprintf(w, "\n%d mode-invariant violations:\n", len(violations))
			for _, v := range violations {
				fmt.Fprintln(w, " ", v)
			}
		}
		of.finish()

	case "bitflip":
		names := orAll86(rest)
		campaign, err := inject(names)
		if err != nil {
			return err
		}
		bf, err := bitflip.Evaluate(sys.Library, sys.Extraction,
			healers.SemiAuto(campaign.Decls()), names)
		if err != nil {
			return err
		}
		fmt.Fprint(w, bf.Format())

	case "table2":
		campaign, err := inject(nil)
		if err != nil {
			return err
		}
		fmt.Fprint(w, healers.FormatTable2(sys.MeasureTable2(healers.SemiAuto(campaign.Decls()))))
	}
	return nil
}
