package injector

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"healers/internal/clib"
	"healers/internal/cparse"
	"healers/internal/obs"
)

// Parallel campaign scheduling. The paper's fault-injection campaigns
// are embarrassingly parallel — every experiment runs in a fresh child
// process (§3.3), and functions share nothing but the read-only
// extraction products. The scheduler shards the function list across a
// worker pool and merges per-function results back at their input
// positions, so the report is bit-for-bit the sequential one.
//
// Isolation invariants the scheduler relies on (audited for this
// design; violating any of them is a bug):
//
//   - clib.Library is immutable after New: registration happens only
//     inside New, and Lookup/Call are map reads. Workers may share one
//     library; Config.LibFactory removes even that sharing.
//   - All per-call C state (memory, errno, descriptors, statics such
//     as strtok's scan position) lives in the csim.Process, and every
//     function campaign builds its own template process, forking a
//     private copy-on-write child per experiment. Every read path of a
//     frozen cmem.Memory is write-free — only an unfrozen, never-cloned
//     Memory such as the experiment child writes its private page
//     cache — and fork refcounts are atomic, so a template may even be
//     forked from several goroutines at once (ballista's workers do);
//     here each campaign owns its template outright.
//   - Generators (gens.*) and the per-function campaign struct are
//     allocated inside InjectFunction; nothing escapes.
//   - The shared observability spine is concurrency-safe by
//     construction: obs.Tracer serializes Emit under a mutex, and all
//     registry instruments are atomics. Aggregate counters therefore
//     equal the sequential run; only event interleaving differs.

// ResolveWorkers maps the -workers flag convention to a worker count:
// n > 0 is used as-is, n == 0 means one worker per available CPU
// (GOMAXPROCS), and negative values fall back to sequential.
func ResolveWorkers(n int) int {
	switch {
	case n == 0:
		return runtime.GOMAXPROCS(0)
	case n < 0:
		return 1
	}
	return n
}

// shadow returns a copy of the injector for one worker, substituting
// the worker's private library when lib is non-nil. Instrument
// pointers are shared — counters are atomic, so worker increments
// aggregate exactly as the sequential run's would.
func (inj *Injector) shadow(lib *clib.Library) *Injector {
	s := *inj
	if lib != nil {
		s.lib = lib
	}
	return &s
}

// injectParallel runs the tasks on Config.Workers goroutines, writing
// each result at its input index. The first failure (by input order)
// is returned after all workers drain, so errors are as deterministic
// as the sequential run's. Each worker gets a span child of campSC and
// function campaigns parent to their worker's span — the causal tree
// is stable under any Workers value, only the fan-out layer differs.
func (inj *Injector) injectParallel(tasks []task, table *cparse.TypeTable, results []*Result, campSC obs.SpanContext) error {
	workers := inj.cfg.Workers
	if workers > len(tasks) {
		workers = len(tasks)
	}
	reg := inj.cfg.Metrics // nil-safe
	reg.Gauge("healers_injector_workers").Set(int64(workers))

	var started atomic.Int64
	errs := make([]error, len(tasks))
	// Buffered to the full task list: the feeder deposits every job and
	// closes before a single worker needs to synchronize with it, so
	// workers never rendezvous on an unbuffered channel handoff between
	// functions.
	jobs := make(chan task, len(tasks))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wid := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lib *clib.Library
			if inj.cfg.LibFactory != nil {
				lib = inj.cfg.LibFactory()
			}
			worker := inj.shadow(lib)
			wFuncs := reg.Counter(fmt.Sprintf("healers_injector_worker_functions_total{worker=%q}", fmt.Sprint(wid)))
			wCalls := reg.Counter(fmt.Sprintf("healers_injector_worker_calls_total{worker=%q}", fmt.Sprint(wid)))
			// Per-worker copy-on-write accounting: forks this worker
			// performed, pages it shared at fork time, and pages its
			// children copied on first write.
			wForks := reg.Counter(fmt.Sprintf("healers_injector_worker_forks_total{worker=%q}", fmt.Sprint(wid)))
			wShared := reg.Counter(fmt.Sprintf("healers_injector_worker_pages_shared_total{worker=%q}", fmt.Sprint(wid)))
			wCopied := reg.Counter(fmt.Sprintf("healers_injector_worker_pages_copied_total{worker=%q}", fmt.Sprint(wid)))
			wsc := campSC.Child()
			workStart := time.Now() //healers:allow-nondeterminism worker busy-time metric, reporting only
			done := 0
			for t := range jobs {
				// The progress event costs a mutex-serialized Emit per
				// function; skip building it entirely when nothing listens.
				if worker.tr.Enabled() {
					worker.tr.Emit(wsc.Tag(obs.Event{
						Kind:  obs.KindCampaignPhase,
						Phase: "inject",
						Func:  t.name,
						N:     int(started.Add(1)),
						Total: len(tasks),
					}))
				}
				res, _, err := worker.injectOne(t.fi, table, wsc)
				if err != nil {
					errs[t.idx] = err
					continue
				}
				results[t.idx] = res
				wFuncs.Inc()
				wCalls.Add(int64(res.Calls))
				wForks.Add(res.Fork.Forks)
				wShared.Add(res.Fork.PagesShared)
				wCopied.Add(res.Fork.PagesCopied)
				done++
			}
			if worker.tr.Enabled() {
				worker.tr.Emit(wsc.Tag(obs.Event{
					Kind:  obs.KindSpan,
					Phase: fmt.Sprintf("inject-worker-%d", wid),
					N:     done,
					Total: len(tasks),
					TS:    workStart.UnixMicro(),
					DurUS: time.Since(workStart).Microseconds(),
				}))
			}
		}()
	}
	for _, t := range tasks {
		jobs <- t
	}
	close(jobs)
	wg.Wait()

	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// VectorSignature renders the campaign's robust-type vectors, error
// classifications, and errno lists as one canonical text block, one
// line per function in Order. Two campaigns over the same inputs are
// equivalent iff their signatures are byte-identical — the determinism
// oracle for parallel runs, the result cache, and the committed golden
// file.
func (c *Campaign) VectorSignature() string {
	var b []byte
	for _, name := range c.Order {
		r := c.Results[name]
		b = append(b, name...)
		b = append(b, ':', ' ')
		b = append(b, r.ErrClass.String()...)
		if d := r.Decl; d != nil {
			b = append(b, " ret="...)
			b = append(b, fmt.Sprintf("%#x", d.ErrorValue)...)
			for _, e := range d.Errnos {
				b = append(b, ' ')
				b = append(b, e...)
			}
		}
		for _, rn := range r.RobustNames {
			b = append(b, " | "...)
			b = append(b, rn...)
		}
		b = append(b, '\n')
	}
	return string(b)
}
