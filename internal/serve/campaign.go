package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime/pprof"
	"sort"
	"sync"
	"time"

	"healers/internal/analysis"
	"healers/internal/clib"
	"healers/internal/crashpoint"
	"healers/internal/injector"
	"healers/internal/obs"
)

// CampaignRequest is the POST /v1/campaigns body. The zero value is a
// valid request: the paper's 86 crash-prone functions, server-default
// workers, cold seeds.
type CampaignRequest struct {
	// Functions names the prototype set to inject; empty means the 86
	// crash-prone evaluation functions.
	Functions []string `json:"functions,omitempty"`
	// Workers overrides the server's campaign parallelism for this
	// campaign (0 = server default; the injector convention applies).
	Workers int `json:"workers,omitempty"`
	// Conservative selects the stricter robust-type variant of §4.3.
	Conservative bool `json:"conservative,omitempty"`
	// Seed is "static" to seed adaptive growth from the static
	// pre-inference, or "none"/"" for a cold campaign.
	Seed string `json:"seed,omitempty"`
	// Profile opts this campaign into CPU profile capture: the run is
	// wrapped in runtime/pprof's CPU profiler and the pprof data served
	// at /v1/campaigns/{id}/profile. One profile runs at a time
	// process-wide; a campaign that loses the race runs unprofiled.
	Profile bool `json:"profile,omitempty"`
}

// CampaignStatus is the JSON representation of one campaign, returned
// by submissions, status reads, listings, and the final SSE event.
type CampaignStatus struct {
	ID    string `json:"id"`
	State string `json:"state"` // running | done | failed
	// Deduped is set on a POST response that joined an existing
	// campaign instead of starting a new one.
	Deduped bool `json:"deduped,omitempty"`
	// Functions is the prototype-set size; Done counts functions whose
	// injection has started (the SSE progress position).
	Functions    int    `json:"functions"`
	Done         int    `json:"done"`
	Workers      int    `json:"workers"`
	Conservative bool   `json:"conservative,omitempty"`
	Seed         string `json:"seed,omitempty"`
	// Unsafe and Calls summarize a completed campaign.
	Unsafe int    `json:"unsafe,omitempty"`
	Calls  int    `json:"calls,omitempty"`
	Error  string `json:"error,omitempty"`
	// VectorSHA256 fingerprints the vector text served by /vectors.
	VectorSHA256 string `json:"vector_sha256,omitempty"`
	ElapsedMS    int64  `json:"elapsed_ms"`
}

// campaign is one submitted prototype set and its run state.
type campaign struct {
	id      string
	req     CampaignRequest
	names   []string
	workers int
	hub     *hub
	created time.Time

	// sc is the campaign's HTTP-origin root span, allocated at submit
	// time; the injector's campaign span becomes its child via context
	// propagation. collect retains the full event stream for /trace.
	sc      obs.SpanContext
	collect *obs.CollectSink

	done chan struct{} // closed by finish

	mu       sync.Mutex
	state    string
	err      string
	sig      string
	sigSHA   string
	unsafe   int
	calls    int
	profile  []byte // pprof CPU profile when requested and captured
	finished time.Time
}

// campaignID content-addresses a submission: the configuration axes
// that influence results (conservative, seed mode) plus every
// function's name and full prototype text, sorted. Workers are
// excluded on purpose — vectors are byte-identical at any parallelism,
// so submissions differing only in workers dedupe to one campaign.
func campaignID(req CampaignRequest, names []string, protos []string) string {
	h := sha256.New()
	// Profile is part of the address even though it never changes the
	// vectors: a profiled campaign produces a different artifact set, so
	// it must not dedupe onto an unprofiled record (or vice versa).
	fmt.Fprintf(h, "campaign-v1|%t|%s|%t\n", req.Conservative, normalizeSeed(req.Seed), req.Profile)
	for i, name := range names {
		fmt.Fprintf(h, "%s\x00%s\n", name, protos[i])
	}
	return fmt.Sprintf("c-%x", h.Sum(nil)[:12])
}

func normalizeSeed(s string) string {
	if s == "static" {
		return "static"
	}
	return "none"
}

// resolveFunctions expands an empty set to the 86 and validates every
// name against the extraction, returning sorted names with their
// prototype texts.
func (s *Server) resolveFunctions(names []string) ([]string, []string, error) {
	if len(names) == 0 {
		names = s.lib.CrashProne86()
	}
	out := make([]string, 0, len(names))
	seen := make(map[string]bool, len(names))
	for _, name := range names {
		if seen[name] {
			continue
		}
		seen[name] = true
		out = append(out, name)
	}
	sort.Strings(out)
	protos := make([]string, len(out))
	for i, name := range out {
		fi, ok := s.ext.Lookup(name)
		if !ok || fi.Proto == nil {
			return nil, nil, fmt.Errorf("unknown function %q", name)
		}
		protos[i] = fi.Proto.String()
	}
	return out, protos, nil
}

// maxSubmitBody caps a POST /v1/campaigns body; a larger one is
// refused with 413 rather than silently truncated.
const maxSubmitBody = 1 << 20

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxSubmitBody))
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		writeError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", tooBig.Limit)
		return
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, "reading body: %v", err)
		return
	}
	var req CampaignRequest
	if len(body) > 0 {
		if err := json.Unmarshal(body, &req); err != nil {
			writeError(w, http.StatusBadRequest, "bad request body: %v", err)
			return
		}
	}
	switch req.Seed {
	case "", "none", "static":
	default:
		writeError(w, http.StatusBadRequest, "seed must be \"static\" or \"none\", got %q", req.Seed)
		return
	}
	names, protos, err := s.resolveFunctions(req.Functions)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	id := campaignID(req, names, protos)

	s.mu.Lock()
	if c, ok := s.campaigns[id]; ok {
		s.mu.Unlock()
		s.mDeduped.Inc()
		st := c.status()
		st.Deduped = true
		writeJSON(w, http.StatusOK, st)
		return
	}
	if s.draining {
		s.mu.Unlock()
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	workers := req.Workers
	if workers == 0 {
		workers = s.workers
	}
	c := &campaign{
		id:      id,
		req:     req,
		names:   names,
		workers: injector.ResolveWorkers(workers),
		hub:     newHub(),
		created: time.Now(),
		sc:      obs.NewTrace(),
		collect: obs.NewCollectSink(0),
		done:    make(chan struct{}),
		state:   "running",
	}
	s.campaigns[id] = c
	s.order = append(s.order, id)
	s.mSubmitted.Inc()
	s.gInflight.Add(1)
	s.wg.Add(1)
	go s.run(c)
	s.mu.Unlock()

	writeJSON(w, http.StatusAccepted, c.status())
}

// cpuProfileMu serializes per-campaign CPU profiling: the Go runtime
// supports one CPU profile at a time process-wide, so a campaign that
// cannot take the lock immediately runs unprofiled rather than queuing.
var cpuProfileMu sync.Mutex

// run executes one campaign on the worker-pool scheduler against the
// server's shared cache and metrics registry. The campaign's tracer
// fans out to the SSE hub (live progress) and the collect sink (the
// /trace export); the injector's span tree parents to the HTTP-origin
// span via context propagation.
func (s *Server) run(c *campaign) {
	defer s.wg.Done()
	defer s.gInflight.Add(-1)

	cfg := injector.DefaultConfig()
	cfg.Workers = c.workers
	cfg.Conservative = c.req.Conservative
	cfg.Cache = s.cache
	cfg.Metrics = s.reg
	tr := obs.New(c.hub, c.collect)
	cfg.Obs = tr
	if normalizeSeed(c.req.Seed) == "static" {
		pred, err := analysis.Predict(s.ext, c.names)
		if err != nil {
			c.finish(nil, err)
			s.mFailed.Inc()
			return
		}
		cfg.Seeds = pred.Seeds()
	}

	var profBuf bytes.Buffer
	profiling := false
	if c.req.Profile && cpuProfileMu.TryLock() {
		if err := pprof.StartCPUProfile(&profBuf); err == nil {
			profiling = true
		} else {
			cpuProfileMu.Unlock()
		}
	}

	start := time.Now()
	ctx := obs.ContextWithSpan(context.Background(), c.sc)
	camp, err := injector.New(clib.New(), cfg).InjectAllContext(ctx, s.ext, c.names)

	if profiling {
		pprof.StopCPUProfile()
		cpuProfileMu.Unlock()
	}

	// The HTTP-origin root span closes once the campaign returns, so the
	// exported tree has a single root covering the whole request.
	tr.Emit(c.sc.Tag(obs.Event{
		Kind:  obs.KindSpan,
		Phase: "http-campaign",
		N:     len(c.names),
		Total: len(c.names),
		TS:    start.UnixMicro(),
		DurUS: time.Since(start).Microseconds(),
	}))

	// Campaign commit: before the campaign is published as done, every
	// result it appended to the disk cache is forced to stable storage,
	// so an acknowledged campaign survives not just process death (the
	// writes already did) but power loss. The crashpoints bracketing
	// the sync are the whitebox seams cmd/crashtest kills at.
	if err == nil && s.cache.Persistent() {
		crashpoint.Hit(crashpoint.ServeCommitBefore)
		if serr := s.cache.Sync(); serr != nil {
			// A failed fsync, or a failed append that poisoned the log,
			// must not pretend durability: the campaign still completes
			// (results are correct and in memory), but the commit counter
			// stays put and the failure is counted.
			s.reg.Counter("healers_serve_commit_errors_total").Inc()
		} else {
			s.mCommits.Inc()
		}
		crashpoint.Hit(crashpoint.ServeCommitAfter)
	}

	if profiling {
		c.mu.Lock()
		c.profile = profBuf.Bytes()
		c.mu.Unlock()
	}
	c.finish(camp, err)
	if err != nil {
		s.mFailed.Inc()
	} else {
		s.mDone.Inc()
	}
}

// finish records the campaign outcome and releases every waiter (SSE
// streams, status polls blocked on done).
func (c *campaign) finish(camp *injector.Campaign, err error) {
	c.mu.Lock()
	c.finished = time.Now()
	if err != nil {
		c.state = "failed"
		c.err = err.Error()
	} else {
		c.state = "done"
		c.sig = camp.VectorSignature()
		c.sigSHA = fmt.Sprintf("%x", sha256.Sum256([]byte(c.sig)))
		c.unsafe = camp.UnsafeCount()
		for _, r := range camp.Results {
			c.calls += r.Calls
		}
	}
	c.mu.Unlock()
	close(c.done)
}

// status snapshots the campaign for JSON rendering.
func (c *campaign) status() CampaignStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := CampaignStatus{
		ID:           c.id,
		State:        c.state,
		Functions:    len(c.names),
		Done:         c.hub.count(),
		Workers:      c.workers,
		Conservative: c.req.Conservative,
		Seed:         normalizeSeed(c.req.Seed),
		Unsafe:       c.unsafe,
		Calls:        c.calls,
		Error:        c.err,
		VectorSHA256: c.sigSHA,
	}
	end := c.finished
	if end.IsZero() {
		end = time.Now()
	}
	st.ElapsedMS = end.Sub(c.created).Milliseconds()
	return st
}

// vectors returns the campaign's vector text once done.
func (c *campaign) vectors() (string, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sig, c.state == "done"
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	list := make([]CampaignStatus, 0, len(s.order))
	for _, id := range s.order {
		list = append(list, s.campaigns[id].status())
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{"campaigns": list})
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	c, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no campaign %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, c.status())
}

// handleVectors serves the canonical robust-type vector block — the
// same bytes Campaign.VectorSignature produces on the CLI path, and
// the same bytes pinned in the committed golden file.
func (s *Server) handleVectors(w http.ResponseWriter, r *http.Request) {
	c, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no campaign %q", r.PathValue("id"))
		return
	}
	sig, done := c.vectors()
	if !done {
		writeError(w, http.StatusConflict, "campaign %s is %s", c.id, c.status().State)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, sig) //nolint:errcheck
}

// handleTrace serves the campaign's causal tree in Chrome trace-event
// JSON — loadable directly in Perfetto (ui.perfetto.dev) or
// chrome://tracing. Available while the campaign runs (a prefix of the
// tree) and after it completes (the full tree, rooted at the
// HTTP-origin span).
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	c, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no campaign %q", r.PathValue("id"))
		return
	}
	data, err := obs.MarshalChromeTrace(c.collect.Events())
	if err != nil {
		writeError(w, http.StatusInternalServerError, "building trace: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Disposition", fmt.Sprintf("attachment; filename=%s-trace.json", c.id))
	w.Write(data) //nolint:errcheck
}

// handleProfile serves the campaign's captured CPU profile (pprof
// format) for submissions that set "profile": true.
func (s *Server) handleProfile(w http.ResponseWriter, r *http.Request) {
	c, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no campaign %q", r.PathValue("id"))
		return
	}
	c.mu.Lock()
	prof := c.profile
	state := c.state
	c.mu.Unlock()
	if state == "running" {
		writeError(w, http.StatusConflict, "campaign %s is still running", c.id)
		return
	}
	if len(prof) == 0 {
		if !c.req.Profile {
			writeError(w, http.StatusNotFound, "campaign %s was not submitted with \"profile\": true", c.id)
		} else {
			writeError(w, http.StatusNotFound, "campaign %s lost the profiler to a concurrent profiled campaign", c.id)
		}
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Disposition", fmt.Sprintf("attachment; filename=%s.pprof", c.id))
	w.Write(prof) //nolint:errcheck
}

// handleEvents streams campaign progress as server-sent events: one
// `progress` event per function as its injection starts (replayed from
// the beginning for late subscribers), then a final `done` event
// carrying the completed CampaignStatus.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	c, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no campaign %q", r.PathValue("id"))
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)

	replay, ch, cancel := c.hub.subscribe()
	defer cancel()
	for _, p := range replay {
		writeSSE(w, "progress", p)
	}
	fl.Flush()

	for {
		select {
		case p := <-ch:
			writeSSE(w, "progress", p)
			fl.Flush()
		case <-c.done:
			// The campaign emits no further events; drain what raced in,
			// then hand the client the final status.
			for {
				select {
				case p := <-ch:
					writeSSE(w, "progress", p)
				default:
					writeSSE(w, "done", c.status())
					fl.Flush()
					return
				}
			}
		case <-r.Context().Done():
			return
		}
	}
}

func writeSSE(w io.Writer, event string, data any) {
	payload, err := json.Marshal(data)
	if err != nil {
		return
	}
	fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, payload)
}
