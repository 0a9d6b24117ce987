package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"healers/internal/obs"
	"healers/internal/serve"
)

// serveCycle is the service path: a real `healers serve` child driven
// over HTTP. Each cycle starts the child on an empty cache, runs the 86
// cold, lets two closed-loop clients make their ops, restarts the child
// over the populated cache and runs the 86 again, now warm.
type serveCycle struct {
	clients, opsPerClient int

	golden map[string]string
	names  []string // the 86, sorted
	rng    *rand.Rand
}

// maxOpFuncs bounds how many of the 86 one client op asks for.
const maxOpFuncs = 24

func (w *serveCycle) setup(e *env) error {
	golden, err := loadGoldenVectors(e.root)
	if err != nil {
		return err
	}
	w.golden, w.names = golden, sortedKeys(golden)
	w.rng = rand.New(rand.NewSource(e.seed))
	// One checked cold campaign through a child and its drain, so the
	// loop starts with the binary, the client and the path warm.
	cache := filepath.Join(e.tmp, "setup-cache.jsonl")
	defer os.Remove(cache)
	c, err := startChild(e, cache)
	if err != nil {
		return err
	}
	rec := newRecorder()
	w.campaignOp(e, c, serve.CampaignRequest{}, w.names, 0, rec)
	if err := c.terminate(); err != nil {
		return err
	}
	if rec.failed > 0 {
		return fmt.Errorf("warm-up campaign through healers serve failed")
	}
	return nil
}

func (w *serveCycle) iteration(e *env, it int, parent spanID, rec *recorder) error {
	cache := filepath.Join(e.tmp, fmt.Sprintf("cache-%d.jsonl", it))
	defer os.Remove(cache)
	seeds := make([]int64, w.clients)
	for i := range seeds {
		seeds[i] = w.rng.Int63()
	}
	cycleStart := time.Now()

	// (a) Start on an empty cache.
	c1, err := timedStart(e, cache, "serve.ready_empty", parent, rec)
	if err != nil {
		return err
	}
	// (b) The 86 cold: injection, DiskCache.Put, the fsync at commit.
	if d, ok := w.campaignOp(e, c1, serve.CampaignRequest{}, w.names, parent, rec); ok {
		rec.sample("serve.cold_ms", ms(d))
	}
	// (c) Closed-loop clients.
	var wg sync.WaitGroup
	okOps := make([]int, w.clients)
	for i := range seeds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			okOps[i] = w.client(e, c1, i, rand.New(rand.NewSource(seeds[i])), parent, rec)
		}()
	}
	wg.Wait()
	if m, err := scrapeMetrics(c1.baseURL); err == nil {
		if lookups := m["healers_cache_hits"] + m["healers_cache_misses"]; lookups > 0 {
			rec.sample("cache.hit_ratio", float64(m["healers_cache_hits"])/float64(lookups))
		}
		rec.sample("flight.joins", float64(m["healers_flight_joins"]))
	} else {
		fmt.Fprintf(e.log, "serve-cycle: scraping /metrics: %v\n", err)
	}
	rss1, err := peakRSS(c1.cmd.Process.Pid)
	if err != nil {
		return err
	}
	// (d) Drain, then restart over the populated cache.
	sp := e.tr.start("serve.drain", parent)
	start := time.Now()
	err = c1.terminate()
	rec.sample("serve.drain_ms", ms(time.Since(start)))
	e.tr.end(sp)
	if err != nil {
		return err
	}
	c2, err := timedStart(e, cache, "serve.restart", parent, rec)
	if err != nil {
		return err
	}
	// (e) The 86 again, served warm from the reloaded cache.
	if d, ok := w.campaignOp(e, c2, serve.CampaignRequest{}, w.names, parent, rec); ok {
		rec.sample("serve.warm_ms", ms(d))
	}
	rss2, err := peakRSS(c2.cmd.Process.Pid)
	if err != nil {
		return err
	}
	if err := c2.terminate(); err != nil {
		return err
	}
	rec.childRSS(max(rss1, rss2))
	served := 0
	for _, n := range okOps {
		served += n
	}
	rec.addWork(float64(served), time.Since(cycleStart))
	return nil
}

// timedStart starts a child over cache and records exec→healthy as the
// sample name+"_ms".
func timedStart(e *env, cache, name string, parent spanID, rec *recorder) (*child, error) {
	sp := e.tr.start(name, parent)
	start := time.Now()
	c, err := startChild(e, cache)
	rec.sample(name+"_ms", ms(time.Since(start)))
	e.tr.end(sp)
	return c, err
}

// client runs one closed-loop client: each op draws 1–24 of the 86 and
// a seed mode, and one op in ten re-posts an earlier request unchanged,
// which the server answers from its campaign record. It returns how
// many ops came back correct.
func (w *serveCycle) client(e *env, c *child, id int, rng *rand.Rand, parent spanID, rec *recorder) int {
	lane := e.tr.startLane("serve.client", parent, id+1)
	defer e.tr.end(lane)
	var history []serve.CampaignRequest
	ok := 0
	for i := 0; i < w.opsPerClient; i++ {
		var req serve.CampaignRequest
		if len(history) > 0 && rng.Intn(10) == 0 {
			req = history[rng.Intn(len(history))]
		} else {
			perm := rng.Perm(len(w.names))[:1+rng.Intn(maxOpFuncs)]
			for _, j := range perm {
				req.Functions = append(req.Functions, w.names[j])
			}
			sort.Strings(req.Functions)
			req.Seed = "none"
			if rng.Intn(2) == 0 {
				// Static-seeded vectors are byte-identical to cold ones,
				// so the same goldens check them.
				req.Seed = "static"
			}
			history = append(history, req)
		}
		if d, good := w.campaignOp(e, c, req, req.Functions, lane, rec); good {
			rec.latency(d)
			ok++
		}
	}
	return ok
}

// campaignOp is one client op: POST the request, follow /events until
// done, fetch /vectors and check them against the goldens. It returns
// POST-sent to vectors-received.
func (w *serveCycle) campaignOp(e *env, c *child, req serve.CampaignRequest, names []string, parent spanID, rec *recorder) (time.Duration, bool) {
	fail := func(format string, args ...any) (time.Duration, bool) {
		fmt.Fprintf(e.log, "serve-cycle: "+format+"\n", args...)
		rec.outcome(false)
		return 0, false
	}
	start := time.Now()
	sp := e.tr.start("serve.post", parent)
	st, err := submit(c.baseURL, req)
	e.tr.end(sp)
	rec.sample("serve.post_ms", ms(time.Since(start)))
	if err != nil {
		return fail("POST: %v", err)
	}
	t := time.Now()
	sp = e.tr.start("serve.done_wait", parent)
	final, err := followEvents(c.baseURL, st.ID)
	e.tr.end(sp)
	rec.sample("serve.done_wait_ms", ms(time.Since(t)))
	if err != nil {
		return fail("events of %s: %v", st.ID, err)
	}
	if final.State != "done" {
		return fail("campaign %s ended %s: %s", st.ID, final.State, final.Error)
	}
	t = time.Now()
	sp = e.tr.start("serve.vectors", parent)
	block, err := getVectors(c.baseURL, st.ID)
	e.tr.end(sp)
	rec.sample("serve.vectors_ms", ms(time.Since(t)))
	d := time.Since(start)
	if err != nil {
		return fail("vectors of %s: %v", st.ID, err)
	}
	sp = e.tr.start("bench.check_vectors", parent)
	wrong := wrongLines(block, w.golden, names)
	e.tr.end(sp)
	if wrong > 0 {
		return fail("campaign %s: %d functions differ from %s", st.ID, wrong, goldenVectorsPath)
	}
	rec.outcome(true)
	return d, true
}

// httpClient serves both client connections; the timeout bounds every
// request, the event stream included, so a wedged child fails the run
// instead of hanging it.
var httpClient = &http.Client{Timeout: 60 * time.Second}

func submit(base string, req serve.CampaignRequest) (serve.CampaignStatus, error) {
	var st serve.CampaignStatus
	body, err := json.Marshal(req)
	if err != nil {
		return st, err
	}
	resp, err := httpClient.Post(base+"/v1/campaigns", "application/json", bytes.NewReader(body))
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return st, err
	}
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("status %d: %s", resp.StatusCode, raw)
	}
	return st, json.Unmarshal(raw, &st)
}

// followEvents reads a campaign's server-sent events until the done
// event and returns the final status it carries.
func followEvents(base, id string) (serve.CampaignStatus, error) {
	var final serve.CampaignStatus
	resp, err := httpClient.Get(base + "/v1/campaigns/" + id + "/events")
	if err != nil {
		return final, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return final, fmt.Errorf("status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	event, data := "", ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "" && event == "done":
			if err := json.Unmarshal([]byte(data), &final); err != nil {
				return final, fmt.Errorf("decoding done event: %w", err)
			}
			// Read the stream's end, so the connection goes back to the
			// pool for the client's next op.
			_, err := io.Copy(io.Discard, resp.Body)
			return final, err
		case line == "":
			event, data = "", ""
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data = strings.TrimPrefix(line, "data: ")
		}
	}
	if err := sc.Err(); err != nil {
		return final, err
	}
	return final, fmt.Errorf("event stream ended before done")
}

func getVectors(base, id string) (string, error) {
	resp, err := httpClient.Get(base + "/v1/campaigns/" + id + "/vectors")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("status %d: %s", resp.StatusCode, raw)
	}
	return string(raw), nil
}

func scrapeMetrics(base string) (map[string]int64, error) {
	resp, err := httpClient.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", resp.StatusCode)
	}
	return obs.ParseExposition(string(raw))
}

// child is one `healers serve` process, watched through its stderr: the
// ready line carries the bound address.
type child struct {
	cmd        *exec.Cmd
	set        *children
	baseURL    string
	stderrDone chan struct{}

	mu   sync.Mutex
	tail []string // the last stderr lines, for error messages
}

// children holds every child a run started until it is reaped, so the
// run can kill what an error path left running.
type children struct {
	mu sync.Mutex
	m  map[*child]bool
}

func newChildren() *children { return &children{m: make(map[*child]bool)} }

// stopAll kills and reaps every child still running.
func (cs *children) stopAll() {
	cs.mu.Lock()
	var live []*child
	for c := range cs.m {
		live = append(live, c)
	}
	cs.mu.Unlock()
	for _, c := range live {
		c.kill()
	}
}

// childTimeout bounds a child's start-up and its drain.
const childTimeout = 30 * time.Second

// startChild runs `healers serve` on an ephemeral port over cachePath
// and returns once /healthz answers.
func startChild(e *env, cachePath string) (*child, error) {
	bin := e.healers
	cmd := exec.Command(bin, "serve", "-addr", "127.0.0.1:0", "-cache", cachePath, "-workers", "0")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s serve: %w", bin, err)
	}
	c := &child{cmd: cmd, set: e.children, stderrDone: make(chan struct{})}
	c.set.mu.Lock()
	c.set.m[c] = true
	c.set.mu.Unlock()

	addrCh := make(chan string, 1)
	go func() {
		defer close(c.stderrDone)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			c.mu.Lock()
			c.tail = append(c.tail[max(len(c.tail)-4, 0):], line)
			c.mu.Unlock()
			if _, rest, ok := strings.Cut(line, "listening on "); ok {
				addr, _, _ := strings.Cut(rest, " ")
				select {
				case addrCh <- addr:
				default:
				}
			}
		}
	}()

	select {
	case addr := <-addrCh:
		c.baseURL = "http://" + addr
	case <-c.stderrDone:
		err := c.reap()
		return nil, fmt.Errorf("healers serve exited before ready (%v): %s", err, c.lastLines())
	case <-time.After(childTimeout):
		c.kill()
		return nil, fmt.Errorf("healers serve printed no address within %s: %s", childTimeout, c.lastLines())
	}
	// The ready line comes just before Serve; poll /healthz so no op can
	// race the accept loop.
	for deadline := time.Now().Add(childTimeout); ; {
		resp, err := httpClient.Get(c.baseURL + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return c, nil
			}
		}
		if time.Now().After(deadline) {
			c.kill()
			return nil, fmt.Errorf("healers serve at %s never became healthy: %v", c.baseURL, err)
		}
		time.Sleep(time.Millisecond)
	}
}

func (c *child) lastLines() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return strings.Join(c.tail, " | ")
}

// reap waits for stderr to reach EOF and then for the process. The
// order matters: Wait closes the stderr pipe as soon as the process
// exits, which would drop lines the scanner has not read yet.
func (c *child) reap() error {
	<-c.stderrDone
	err := c.cmd.Wait()
	c.set.mu.Lock()
	delete(c.set.m, c)
	c.set.mu.Unlock()
	return err
}

func (c *child) kill() {
	c.cmd.Process.Kill() //nolint:errcheck // already dead is fine
	c.reap()             //nolint:errcheck // killed on purpose
}

// terminate sends SIGTERM and waits for the clean exit of a drain.
func (c *child) terminate() error {
	if err := c.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("SIGTERM: %w", err)
	}
	done := make(chan error, 1)
	go func() { done <- c.reap() }()
	select {
	case err := <-done:
		httpClient.CloseIdleConnections()
		if err != nil {
			return fmt.Errorf("healers serve exited uncleanly after SIGTERM (%v): %s", err, c.lastLines())
		}
		return nil
	case <-time.After(childTimeout):
		c.cmd.Process.Kill() //nolint:errcheck // already dead is fine
		<-done
		return fmt.Errorf("healers serve did not drain within %s", childTimeout)
	}
}

// ensureHealers returns the healers binary to start, building it from
// the repository's source when none was given.
func ensureHealers(root, bin string) (string, error) {
	if bin == "" {
		bin = filepath.Join(root, ".bench_build", "healers")
		cmd := exec.Command("go", "build", "-o", bin, "./cmd/healers")
		cmd.Dir = root
		if out, err := cmd.CombinedOutput(); err != nil {
			return "", fmt.Errorf("building healers: %v\n%s", err, out)
		}
	}
	abs, err := filepath.Abs(bin)
	if err != nil {
		return "", err
	}
	if _, err := os.Stat(abs); err != nil {
		return "", err
	}
	return abs, nil
}
