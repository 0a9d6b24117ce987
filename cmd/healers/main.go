// Command healers drives the full HEALERS pipeline over the simulated
// C library: prototype extraction, fault injection, wrapper generation,
// and the paper's three evaluations.
//
// Usage:
//
//	healers extract                      # §3 extraction statistics
//	healers inject [flags] [func...]     # robust argument types (all 86 by default)
//	healers analyze [flags] [func...]    # static prediction vs dynamic agreement table
//	healers decl <func>                  # Figure 2 XML declaration for one function
//	healers wrap [func...]               # Figure 5 C wrapper source
//	healers table1 [flags]               # Table 1 error-return classification
//	healers figure6 [flags]              # Figure 6 robustness evaluation
//	healers strategy [flags]             # differential wrapper-strategy matrix
//	healers table2                       # Table 2 performance overhead
//	healers stats [flags]                # full campaign with metrics + phase profile
//	healers bitflip [func...]            # §9 future work: bit-flip injection
//	healers serve [flags]                # long-running HTTP campaign service
//
// Observability flags (inject, table1, figure6, stats):
//
//	-trace out.jsonl       write every structured event as JSON lines
//	-trace-out out.json    write the campaign as Chrome trace-event JSON
//	                       (open in Perfetto / chrome://tracing)
//	-metrics               print the metrics exposition after the report
//	-progress              stream campaign progress to stderr
//	-workers N             shard the campaign across N workers (0 = one
//	                       per CPU, 1 = sequential); results are
//	                       byte-identical to the sequential run
//
// Command-specific flags:
//
//	inject -seed=static|body|none  seed adaptive growth from a static pass
//	                           (static = prototype pass, body = bodyscan facts)
//	wrap/figure6/stats -mode M wrapper strategy: reject (default), heal
//	                           (repair failing arguments and forward), or
//	                           introspect (allocation-table rescue of
//	                           false rejections)
//	analyze -json              emit the agreement report as JSON
//	analyze -bodies            agreement table for the body-level bodyscan
//	                           pass instead of the prototype pass
//	serve -addr :8080          listen address for the campaign service
//	serve -cache results.jsonl persistent result cache shared across restarts
//	serve -pprof               mount net/http/pprof under /debug/pprof/
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
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
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "healers:", err)
		os.Exit(1)
	}
}

// obsFlags is the per-command observability configuration assembled
// from command-line flags.
type obsFlags struct {
	tracePath *string
	traceOut  *string
	metrics   *bool
	progress  *bool
	workers   *int

	tracer   *obs.Tracer
	registry *obs.Registry
	file     *os.File
	collect  *obs.CollectSink
	// roots are the trace's root spans, the top-level phases the stats
	// command profiles.
	roots []obs.Event
}

func registerObsFlags(fs *flag.FlagSet) *obsFlags {
	return &obsFlags{
		tracePath: fs.String("trace", "", "write structured JSONL trace events to `file`"),
		traceOut:  fs.String("trace-out", "", "write the campaign as Chrome trace-event JSON to `file` (Perfetto-loadable)"),
		metrics:   fs.Bool("metrics", false, "print the metrics exposition after the report"),
		progress:  fs.Bool("progress", false, "stream campaign progress events to stderr"),
		workers:   fs.Int("workers", 1, "parallel campaign workers (`N`; 0 = one per CPU, 1 = sequential)"),
	}
}

// open builds the tracer and registry after flag parsing. The stats
// and serve commands always get a registry; stats also records the
// trace's root spans for its campaign profile.
func (of *obsFlags) open(cmd string) error {
	var sinks []obs.Sink
	if *of.tracePath != "" {
		f, err := os.Create(*of.tracePath)
		if err != nil {
			return err
		}
		of.file = f
		sinks = append(sinks, obs.NewJSONLSink(f))
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

func (of *obsFlags) close() {
	if of.collect != nil {
		data, err := obs.MarshalChromeTrace(of.collect.Events())
		if err == nil {
			err = os.WriteFile(*of.traceOut, data, 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "healers: writing trace:", err)
		} else if dropped := of.collect.Dropped(); dropped > 0 {
			fmt.Fprintf(os.Stderr, "healers: trace truncated, %d events dropped at capacity\n", dropped)
		}
	}
	if of.file != nil {
		of.file.Close()
	}
}

// finish prints the exposition when -metrics was requested.
func (of *obsFlags) finish() {
	if of.registry != nil {
		fmt.Println()
		fmt.Print(report.Stats(of.registry, nil))
	}
}

func (of *obsFlags) injectorConfig() healers.InjectorConfig {
	cfg := injector.DefaultConfig()
	cfg.Obs = of.tracer
	cfg.Metrics = of.registry
	cfg.Workers = injector.ResolveWorkers(*of.workers)
	return cfg
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

func run(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: healers extract|inject|analyze|decl|wrap|table1|figure6|strategy|table2|stats|bitflip|serve")
	}
	cmd, rest := args[0], args[1:]

	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	of := registerObsFlags(fs)
	stateless := fs.Bool("stateless", false, "figure6: add the stateless-wrapper ablation run")
	modeFlag := fs.String("mode", "", "wrap/figure6/stats: wrapper strategy (reject|heal|introspect)")
	seedMode := fs.String("seed", "none", "inject: seed adaptive growth from a static pass (static|body|none)")
	jsonOut := fs.Bool("json", false, "analyze: emit the agreement report as JSON")
	useBodies := fs.Bool("bodies", false, "analyze: use the body-level bodyscan facts instead of the prototype pass")
	addr := fs.String("addr", ":8080", "serve: listen `address` for the campaign service")
	cachePath := fs.String("cache", "", "serve: persistent result cache `file` (JSONL; empty = in-memory)")
	withPprof := fs.Bool("pprof", false, "serve: mount net/http/pprof under /debug/pprof/")
	if err := fs.Parse(rest); err != nil {
		return err
	}
	rest = fs.Args()
	if err := of.open(cmd); err != nil {
		return err
	}
	defer of.close()

	if cmd == "serve" {
		return runServe(*addr, *cachePath, *of.workers, of.registry, *withPprof)
	}

	sys, err := healers.NewSystem()
	if err != nil {
		return err
	}

	inject := func(names []string) (*healers.Campaign, error) {
		if len(names) == 0 {
			names = sys.CrashProne86()
		}
		return sys.InjectWith(names, of.injectorConfig())
	}

	switch cmd {
	case "extract":
		fmt.Print(report.Extraction(sys.Extraction.Stats))
		return nil

	case "inject":
		names := rest
		if len(names) == 0 {
			names = sys.CrashProne86()
		}
		cfg := of.injectorConfig()
		switch *seedMode {
		case "static":
			pred, err := sys.Predict(names)
			if err != nil {
				return err
			}
			cfg.Seeds = pred.Seeds()
		case "body":
			pred, err := sys.PredictBodies(names)
			if err != nil {
				return err
			}
			cfg.Seeds = pred.Seeds()
		case "none":
		default:
			return fmt.Errorf("inject: -seed must be static, body, or none, got %q", *seedMode)
		}
		campaign, err := sys.InjectWith(names, cfg)
		if err != nil {
			return err
		}
		fmt.Print(report.Declarations(campaign))
		of.finish()
		return nil

	case "analyze":
		var names []string
		if len(rest) > 0 {
			names = rest
		}
		analyze := sys.Analyze
		if *useBodies {
			analyze = sys.AnalyzeBodies
		}
		rep, err := analyze(names, of.injectorConfig())
		if err != nil {
			return err
		}
		if *jsonOut {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			if err := enc.Encode(rep); err != nil {
				return err
			}
		} else {
			fmt.Print(report.Analysis(rep))
		}
		of.finish()
		return nil

	case "decl":
		if len(rest) != 1 {
			return fmt.Errorf("usage: healers decl <function>")
		}
		campaign, err := inject(rest)
		if err != nil {
			return err
		}
		d := campaign.Results[rest[0]].Decl
		xml, err := d.EncodeXML()
		if err != nil {
			return err
		}
		fmt.Println(string(xml))
		return nil

	case "wrap":
		if _, err := healers.ParseMode(*modeFlag); err != nil {
			return fmt.Errorf("wrap: %v", err)
		}
		campaign, err := inject(rest)
		if err != nil {
			return err
		}
		fmt.Print(wrapgen.ChecksHeader())
		fmt.Println()
		fmt.Print(wrapgen.File(campaign.Decls(), wrapgen.Options{Mode: *modeFlag}))
		return nil

	case "table1":
		campaign, err := inject(nil)
		if err != nil {
			return err
		}
		fmt.Print(report.Table1(campaign))
		of.finish()
		return nil

	case "figure6", "stats":
		mode, err := healers.ParseMode(*modeFlag)
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
		fig := sys.RunFigure6WithMode(suite, decls, healers.SemiAuto(decls), healers.Observability{
			Tracer:  of.tracer,
			Metrics: of.registry,
			Workers: injector.ResolveWorkers(*of.workers),
		}, mode)
		fmt.Print(fig.Format())
		if cmd == "stats" {
			fmt.Println()
			fmt.Print(report.Stats(of.registry, of.roots))
		} else {
			of.finish()
		}
		if *stateless {
			// Ablation: the full-auto wrapper without its stateful
			// tables — page probing and stack bounds only (§5.1's
			// comparison against the signal-handler approach of [2]).
			template := ballista.NewTemplate()
			opts := wrapper.DefaultOptions()
			opts.Stateless = true
			rep := suite.Run("full-auto-stateless", template,
				func(p *healers.Process) ballista.Caller {
					return wrapper.Attach(p, sys.Library, decls, opts)
				}, 0)
			fmt.Printf("\nablation: %s\n", rep)
		}
		return nil

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
		m, err := sys.RunStrategyMatrix(suite, semi, healers.Observability{
			Tracer:  of.tracer,
			Metrics: of.registry,
			Workers: injector.ResolveWorkers(*of.workers),
		})
		if err != nil {
			return err
		}
		fmt.Print(m.Format())
		if violations := m.InvariantViolations(suite); len(violations) > 0 {
			fmt.Printf("\n%d mode-invariant violations:\n", len(violations))
			for _, v := range violations {
				fmt.Println(" ", v)
			}
		}
		of.finish()
		return nil

	case "bitflip":
		names := rest
		if len(names) == 0 {
			names = sys.CrashProne86()
		}
		campaign, err := inject(names)
		if err != nil {
			return err
		}
		bf, err := bitflip.Evaluate(sys.Library, sys.Extraction,
			healers.SemiAuto(campaign.Decls()), names, bitflip.Config{})
		if err != nil {
			return err
		}
		fmt.Print(bf.Format())
		return nil

	case "table2":
		campaign, err := inject(nil)
		if err != nil {
			return err
		}
		ms := sys.MeasureTable2(healers.SemiAuto(campaign.Decls()))
		fmt.Print(healers.FormatTable2(ms))
		return nil
	}
	return fmt.Errorf("unknown command %q", cmd)
}
