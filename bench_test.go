// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (§3 statistics, Table 1, Figure 6, Table 2) plus the
// ablations DESIGN.md calls out. Regenerate everything with
//
//	go test -bench=. -benchmem
//
// The per-experiment metrics (crash rates, class counts) are attached
// to the benchmark output via ReportMetric so the rows the paper
// reports appear alongside the timing.
package healers_test

import (
	"strings"
	"sync"
	"testing"

	"healers"
	"healers/internal/apps"
	"healers/internal/ballista"
	"healers/internal/clib"
	"healers/internal/cmem"
	"healers/internal/corpus"
	"healers/internal/csim"
	"healers/internal/decl"
	"healers/internal/extract"
	"healers/internal/gens"
	"healers/internal/injector"
	"healers/internal/wrapper"
)

// shared fixture: the injection campaign is expensive, so benchmarks
// that only need its decls share one run.
var (
	fixtureOnce sync.Once
	fixtureSys  *healers.System
	fixtureCamp *healers.Campaign
)

func fixture(b *testing.B) (*healers.System, *healers.Campaign) {
	b.Helper()
	fixtureOnce.Do(func() {
		sys, err := healers.NewSystem()
		if err != nil {
			panic(err)
		}
		campaign, err := sys.Inject(sys.CrashProne86())
		if err != nil {
			panic(err)
		}
		fixtureSys, fixtureCamp = sys, campaign
	})
	return fixtureSys, fixtureCamp
}

// BenchmarkExtraction regenerates the §3 statistics: prototype
// discovery over the shared object, man pages and header tree.
func BenchmarkExtraction(b *testing.B) {
	lib := clib.New()
	c := corpus.Build(lib)
	var stats extract.Stats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := extract.Run(c)
		if err != nil {
			b.Fatal(err)
		}
		stats = res.Stats
	}
	b.ReportMetric(100*stats.InternalFraction(), "internal-%")
	b.ReportMetric(100*stats.ManCoverage(), "man-coverage-%")
	b.ReportMetric(100*stats.FoundRate(), "prototypes-found-%")
}

// BenchmarkTable1 regenerates Table 1: the full fault-injection
// campaign over the 86 functions and the error-return classification.
func BenchmarkTable1(b *testing.B) {
	sys, _ := fixture(b)
	var tab injector.Table1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		campaign, err := sys.Inject(sys.CrashProne86())
		if err != nil {
			b.Fatal(err)
		}
		tab = campaign.Table1()
	}
	b.ReportMetric(float64(tab.NoReturn), "no-return(8)")
	b.ReportMetric(float64(tab.Consistent), "consistent(39)")
	b.ReportMetric(float64(tab.Inconsistent), "inconsistent(2)")
	b.ReportMetric(float64(tab.NotFound), "not-found(37)")
}

// benchSuite builds the 11,995-test suite once.
var (
	suiteOnce sync.Once
	suiteVal  *healers.Suite
)

func benchSuite(b *testing.B) *healers.Suite {
	b.Helper()
	sys, _ := fixture(b)
	suiteOnce.Do(func() {
		s, err := sys.GenerateSuite()
		if err != nil {
			panic(err)
		}
		suiteVal = s
	})
	return suiteVal
}

// figure6Config runs one bar of Figure 6 per iteration and reports its
// crash percentage and crashing-function count as metrics.
func figure6Config(b *testing.B, config string, decls *healers.DeclSet) {
	sys, _ := fixture(b)
	suite := benchSuite(b)
	var rep *healers.Report
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		template := ballista.NewTemplate()
		factory := func(p *healers.Process) ballista.Caller {
			if decls == nil {
				return sys.Library
			}
			return wrapper.Attach(p, sys.Library, decls, wrapper.DefaultOptions())
		}
		rep = suite.RunWith(config, template, factory, ballista.RunOptions{})
	}
	_, _, crashPct := rep.Rates()
	b.ReportMetric(crashPct, "crash-%")
	b.ReportMetric(float64(len(rep.CrashingFuncs())), "crashing-funcs")
}

// BenchmarkFigure6Unwrapped regenerates the first bar of Figure 6
// (paper: 74.18% crash, 77 crashing functions).
func BenchmarkFigure6Unwrapped(b *testing.B) {
	figure6Config(b, "unwrapped", nil)
}

// BenchmarkFigure6FullAuto regenerates the second bar (paper: 0.93%
// crash, 16 crashing functions).
func BenchmarkFigure6FullAuto(b *testing.B) {
	_, campaign := fixture(b)
	figure6Config(b, "full-auto", campaign.Decls())
}

// BenchmarkFigure6SemiAuto regenerates the third bar (paper: 0% crash).
func BenchmarkFigure6SemiAuto(b *testing.B) {
	_, campaign := fixture(b)
	figure6Config(b, "semi-auto", healers.SemiAuto(campaign.Decls()))
}

// BenchmarkTable2 regenerates the Table 2 rows, one application per
// sub-benchmark.
func BenchmarkTable2(b *testing.B) {
	sys, campaign := fixture(b)
	decls := healers.SemiAuto(campaign.Decls())
	for _, profile := range apps.All() {
		b.Run(profile.Name, func(b *testing.B) {
			var m healers.Measurement
			for i := 0; i < b.N; i++ {
				m = apps.Measure(sys.Library, decls, profile)
			}
			b.ReportMetric(m.WrappedPerSec, "wrapped-calls/s")
			b.ReportMetric(100*m.LibShare, "lib-share-%")
			b.ReportMetric(100*m.CheckOverhead, "check-overhead-%")
			b.ReportMetric(100*m.ExecOverhead, "exec-overhead-%")
		})
	}
}

// BenchmarkWrapperPerCall measures the per-call cost the wrapper adds
// to a cheap library function (the microcost behind Table 2).
func BenchmarkWrapperPerCall(b *testing.B) {
	sys, campaign := fixture(b)
	p := csim.NewProcess(nil)
	// The step counter only resets inside a sandboxed Run; raw repeated
	// calls need an effectively unlimited budget.
	p.SetStepBudget(1 << 60)
	w := wrapper.Attach(p, sys.Library, campaign.Decls(), wrapper.DefaultOptions())
	s, _ := p.Mem.MmapRegion(16, cmem.ProtRW)
	p.Mem.WriteCString(s, "benchmark")

	b.Run("direct", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sys.Library.Call(p, "strlen", uint64(s))
		}
	})
	b.Run("wrapped", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			w.Call(p, "strlen", uint64(s))
		}
	})
}

// BenchmarkAdaptiveVsStatic is the DESIGN.md ablation: discovering
// asctime's 44-byte requirement with the paper's adaptive guard-page
// growth versus a static grid of candidate sizes. The adaptive probe
// count tracks the actual boundary; the static grid must sample sizes
// blindly and still brackets the answer more coarsely.
func BenchmarkAdaptiveVsStatic(b *testing.B) {
	lib := clib.New()
	fn := lib.MustLookup("asctime")
	template := injector.NewTemplateProcess()

	runAt := func(p *csim.Process, pr *gens.Probe) csim.Outcome {
		args := make([]uint64, 1)
		p.Run(func() uint64 { args[0] = pr.Build(p); return 0 })
		p.ClearErrno()
		return p.Run(func() uint64 { return fn.Impl(p, args) })
	}

	b.Run("adaptive", func(b *testing.B) {
		var calls, found int
		for i := 0; i < b.N; i++ {
			g := gens.NewArrayGen(8192, 256)
			pr := g.ChainProbe(cmem.ProtRead)
			calls = 0
			for {
				child := template.Fork()
				child.SetStepBudget(100_000)
				out := runAt(child, pr)
				calls++
				if out.Kind == csim.OutcomeReturn {
					found = pr.Size
					break
				}
				if out.Kind != csim.OutcomeSegfault {
					break
				}
				np := g.Adjust(pr, out.Fault.Addr)
				if np == nil {
					break
				}
				pr = np
			}
		}
		b.ReportMetric(float64(calls), "probes")
		b.ReportMetric(float64(found), "found-size(44)")
	})

	b.Run("static-grid", func(b *testing.B) {
		// A static tester tries a fixed size grid; the finest boundary
		// it can report is the smallest succeeding grid point.
		grid := []int{0, 8, 16, 32, 64, 128, 256, 512, 1024}
		var calls, found int
		for i := 0; i < b.N; i++ {
			g := gens.NewArrayGen(8192, 256)
			calls = 0
			found = 0
			for _, size := range grid {
				pr := gens.SizedProbe(g, size, cmem.ProtRead)
				child := template.Fork()
				child.SetStepBudget(100_000)
				out := runAt(child, pr)
				calls++
				if out.Kind == csim.OutcomeReturn && found == 0 {
					found = size
				}
			}
		}
		b.ReportMetric(float64(calls), "probes")
		b.ReportMetric(float64(found), "found-size(64-not-44)")
	})
}

// BenchmarkStatefulVsStateless is the second ablation: the cost of the
// wrapper's memory check through the allocation table versus stateless
// page probing, for a large heap buffer.
func BenchmarkStatefulVsStateless(b *testing.B) {
	sys, campaign := fixture(b)
	decls := campaign.Decls()

	setup := func(stateless bool) (*csim.Process, *wrapper.Interposer, uint64, uint64) {
		p := csim.NewProcess(nil)
		p.SetStepBudget(1 << 60)
		opts := wrapper.DefaultOptions()
		opts.Stateless = stateless
		w := wrapper.Attach(p, sys.Library, decls, opts)
		dst := w.Call(p, "malloc", 64<<10)
		src, _ := p.Mem.MmapRegion(128, cmem.ProtRW)
		p.Mem.WriteCString(src, "payload for the destination buffer")
		return p, w, dst, uint64(src)
	}

	b.Run("stateful", func(b *testing.B) {
		p, w, dst, src := setup(false)
		for i := 0; i < b.N; i++ {
			w.Call(p, "strcpy", dst, src)
		}
	})
	b.Run("stateless", func(b *testing.B) {
		p, w, dst, src := setup(true)
		for i := 0; i < b.N; i++ {
			w.Call(p, "strcpy", dst, src)
		}
	})
}

// BenchmarkCheckCache is the §7 improvement the paper cites from [3]:
// caching pointer-validity results. Repeated calls on the same FILE
// argument skip re-validation until allocation state changes.
func BenchmarkCheckCache(b *testing.B) {
	sys, campaign := fixture(b)
	decls := campaign.Decls()
	setup := func(cache bool) (*csim.Process, *wrapper.Interposer, uint64) {
		fs := csim.NewFS()
		fs.Create("/bench.txt", []byte(strings.Repeat("data ", 4096)))
		p := csim.NewProcess(fs)
		p.SetStepBudget(1 << 60)
		opts := wrapper.DefaultOptions()
		opts.CacheChecks = cache
		w := wrapper.Attach(p, sys.Library, decls, opts)
		fp := p.Fopen("/bench.txt", "r+")
		return p, w, uint64(fp)
	}
	b.Run("uncached", func(b *testing.B) {
		p, w, fp := setup(false)
		for i := 0; i < b.N; i++ {
			w.Call(p, "fputc", 'x', fp)
		}
	})
	b.Run("cached", func(b *testing.B) {
		p, w, fp := setup(true)
		for i := 0; i < b.N; i++ {
			w.Call(p, "fputc", 'x', fp)
		}
	})
}

// BenchmarkDeclRoundTrip measures Figure 2 XML encode/decode.
func BenchmarkDeclRoundTrip(b *testing.B) {
	_, campaign := fixture(b)
	d := campaign.Results["asctime"].Decl
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data, err := d.EncodeXML()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := decl.UnmarshalXML(data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStaticSeededInjection is the PR's ablation: the full 86-
// function campaign cold versus seeded with the static prediction's
// size/read-only hints. The seeds must not change any robust vector
// (asserted by TestSeededVectorsIdentical in internal/analysis); here
// we quantify what they buy — sandboxed injection calls and wall time.
func BenchmarkStaticSeededInjection(b *testing.B) {
	sys, _ := fixture(b)
	names := sys.CrashProne86()
	pred, err := sys.Predict(names)
	if err != nil {
		b.Fatal(err)
	}
	totalCalls := func(c *healers.Campaign) int {
		var n int
		for _, name := range c.Order {
			n += c.Results[name].Calls
		}
		return n
	}

	var coldCalls, seededCalls int
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			campaign, err := sys.InjectWith(names, injector.DefaultConfig())
			if err != nil {
				b.Fatal(err)
			}
			coldCalls = totalCalls(campaign)
		}
		b.ReportMetric(float64(coldCalls), "inject-calls")
	})
	b.Run("seeded", func(b *testing.B) {
		cfg := injector.DefaultConfig()
		cfg.Seeds = pred.Seeds()
		for i := 0; i < b.N; i++ {
			campaign, err := sys.InjectWith(names, cfg)
			if err != nil {
				b.Fatal(err)
			}
			seededCalls = totalCalls(campaign)
		}
		b.ReportMetric(float64(seededCalls), "inject-calls")
		if coldCalls > 0 {
			b.ReportMetric(100*float64(coldCalls-seededCalls)/float64(coldCalls), "calls-saved-%")
		}
	})
}
