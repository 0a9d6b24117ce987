package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"
)

// postRaw POSTs an arbitrary body and returns code + decoded error.
func postRaw(t *testing.T, url, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(url+"/v1/campaigns", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	var e apiError
	json.Unmarshal(raw, &e) //nolint:errcheck // empty error is fine for 2xx
	return resp.StatusCode, e.Error
}

func TestHTTPBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})

	if code, msg := postRaw(t, ts.URL, "{not json"); code != http.StatusBadRequest {
		t.Errorf("malformed JSON: code %d (%s), want 400", code, msg)
	}
	if code, msg := postRaw(t, ts.URL, `{"functions":["no_such_function"]}`); code != http.StatusBadRequest ||
		!strings.Contains(msg, "no_such_function") {
		t.Errorf("unknown function: code %d msg %q, want 400 naming the function", code, msg)
	}
	if code, msg := postRaw(t, ts.URL, `{"seed":"dynamic"}`); code != http.StatusBadRequest ||
		!strings.Contains(msg, "dynamic") {
		t.Errorf("bad seed: code %d msg %q, want 400 naming the seed", code, msg)
	}
}

// TestHTTPOversizedBody pins the 1 MiB submit limit: a body one byte
// past it is refused with 413 whether or not its prefix is valid JSON,
// and a body of exactly the limit is accepted.
func TestHTTPOversizedBody(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	valid := `{"functions":["strcpy"]}`
	pad := func(n int) string { return strings.Repeat(" ", n-len(valid)) }

	if code, msg := postRaw(t, ts.URL, valid+pad(2<<20)); code != http.StatusRequestEntityTooLarge {
		t.Errorf("valid JSON padded to 2 MiB: code %d (%s), want 413", code, msg)
	}
	if code, msg := postRaw(t, ts.URL, strings.Repeat("x", 2<<20)); code != http.StatusRequestEntityTooLarge {
		t.Errorf("2 MiB non-JSON: code %d (%s), want 413", code, msg)
	}
	if code, msg := postRaw(t, ts.URL, valid+pad(maxSubmitBody+1)); code != http.StatusRequestEntityTooLarge {
		t.Errorf("limit+1 bytes: code %d (%s), want 413", code, msg)
	}
	if code, msg := postRaw(t, ts.URL, valid+pad(maxSubmitBody)); code != http.StatusAccepted {
		t.Errorf("exactly the limit: code %d (%s), want 202", code, msg)
	}
}

func TestHTTPUnknownCampaign(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	for _, path := range []string{
		"/v1/campaigns/c-nope",
		"/v1/campaigns/c-nope/vectors",
		"/v1/campaigns/c-nope/events",
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: code %d, want 404", path, resp.StatusCode)
		}
	}
}

// TestHTTPVectorsBeforeDone pins the 409: vectors of a campaign that
// has not finished are unavailable, not empty. The running campaign is
// planted directly so the test cannot race a real one to completion.
func TestHTTPVectorsBeforeDone(t *testing.T) {
	srv, ts := newTestServer(t, Options{Workers: 1})
	c := &campaign{
		id:      "c-planted",
		names:   []string{"strcpy"},
		workers: 1,
		hub:     newHub(),
		created: time.Now(),
		done:    make(chan struct{}),
		state:   "running",
	}
	srv.mu.Lock()
	srv.campaigns[c.id] = c
	srv.order = append(srv.order, c.id)
	srv.mu.Unlock()

	resp, err := http.Get(ts.URL + "/v1/campaigns/c-planted/vectors")
	if err != nil {
		t.Fatalf("GET vectors: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("vectors before done: code %d, want 409", resp.StatusCode)
	}

	// Status still reads fine while running.
	resp, err = http.Get(ts.URL + "/v1/campaigns/c-planted")
	if err != nil {
		t.Fatalf("GET status: %v", err)
	}
	var st CampaignStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode: %v", err)
	}
	resp.Body.Close()
	if st.State != "running" || st.ID != "c-planted" {
		t.Errorf("status %+v", st)
	}

	// Unblock the planted campaign so Close's drain isn't held up (the
	// planted record has no goroutine, but closing done keeps any
	// lingering SSE reader honest).
	c.finish(nil, io.ErrUnexpectedEOF)
}

func TestHTTPListAndHealthz(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	a := submit(t, ts, CampaignRequest{Functions: []string{"strlen"}}, http.StatusAccepted)
	b := submit(t, ts, CampaignRequest{Functions: []string{"abs"}}, http.StatusAccepted)
	consumeSSE(t, ts, a.ID)
	consumeSSE(t, ts, b.ID)

	resp, err := http.Get(ts.URL + "/v1/campaigns")
	if err != nil {
		t.Fatalf("GET list: %v", err)
	}
	var list struct {
		Campaigns []CampaignStatus `json:"campaigns"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatalf("decode list: %v", err)
	}
	resp.Body.Close()
	if len(list.Campaigns) != 2 || list.Campaigns[0].ID != a.ID || list.Campaigns[1].ID != b.ID {
		t.Errorf("list %+v, want [%s %s] in submission order", list.Campaigns, a.ID, b.ID)
	}

	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET healthz: %v", err)
	}
	var hz struct {
		Status    string `json:"status"`
		Campaigns int    `json:"campaigns"`
		Draining  bool   `json:"draining"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatalf("decode healthz: %v", err)
	}
	resp.Body.Close()
	if hz.Status != "ok" || hz.Campaigns != 2 || hz.Draining {
		t.Errorf("healthz %+v", hz)
	}
}

// TestHTTPDrain pins the graceful-shutdown contract: a draining server
// refuses new campaigns with 503 but keeps serving reads — status,
// vectors, metrics — and still answers duplicate submissions of an
// existing campaign from its record.
func TestHTTPDrain(t *testing.T) {
	srv, ts := newTestServer(t, Options{Workers: 1})
	st := submit(t, ts, CampaignRequest{Functions: []string{"strcpy"}}, http.StatusAccepted)
	consumeSSE(t, ts, st.ID)

	srv.BeginDrain()

	if code, msg := postRaw(t, ts.URL, `{"functions":["memcpy"]}`); code != http.StatusServiceUnavailable ||
		!strings.Contains(msg, "draining") {
		t.Errorf("new submission while draining: code %d msg %q, want 503", code, msg)
	}
	// An identical submission still resolves to the finished campaign.
	if got := submit(t, ts, CampaignRequest{Functions: []string{"strcpy"}}, http.StatusOK); !got.Deduped {
		t.Errorf("duplicate submission while draining: %+v, want deduped", got)
	}
	if vec := getVectors(t, ts, st.ID, http.StatusOK); vec == "" {
		t.Error("vectors unavailable while draining")
	}
	if g := scrapeGauges(t, ts); g["healers_cache_misses"] != 1 {
		t.Errorf("metrics unavailable or wrong while draining: %v", g["healers_cache_misses"])
	}
}

// TestSSELateSubscriber subscribes only after the campaign completed:
// the replay buffer must deliver the full progress history followed by
// the done event.
func TestSSELateSubscriber(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	names := []string{"strcpy", "memcpy", "fopen"}
	st := submit(t, ts, CampaignRequest{Functions: names}, http.StatusAccepted)
	consumeSSE(t, ts, st.ID) // wait for completion

	events := consumeSSE(t, ts, st.ID) // late: pure replay
	if len(events) != len(names)+1 {
		t.Fatalf("late subscriber got %d events, want %d progress + done", len(events), len(names))
	}
	for i, e := range events[:len(names)] {
		var p ProgressEvent
		if err := json.Unmarshal([]byte(e.data), &p); err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		if p.Total != len(names) {
			t.Errorf("event %d total %d, want %d", i, p.Total, len(names))
		}
	}
	if events[len(events)-1].event != "done" {
		t.Fatalf("late subscriber's last event %q, want done", events[len(events)-1].event)
	}
}

// TestHTTPPprofContentionProfiles: -pprof must arm the mutex and block
// samplers (a bare pprof mount without them serves empty contention
// profiles) and the scrape must carry the page-pool series.
func TestHTTPPprofContentionProfiles(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, Pprof: true})
	defer func() {
		// Don't leave sampling on for the rest of the package's tests.
		runtime.SetMutexProfileFraction(0)
		runtime.SetBlockProfileRate(0)
	}()
	if frac := runtime.SetMutexProfileFraction(-1); frac != 1 {
		t.Errorf("mutex profile fraction = %d, want 1 under -pprof", frac)
	}
	for _, prof := range []string{"mutex", "block"} {
		resp, err := http.Get(ts.URL + "/debug/pprof/" + prof + "?debug=1")
		if err != nil {
			t.Fatalf("GET %s profile: %v", prof, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s profile: status %d", prof, resp.StatusCode)
		}
		if !strings.Contains(string(body), "cycles/second") {
			t.Errorf("%s profile served no sampler header:\n%.200s", prof, body)
		}
	}

	// One campaign so the pool has seen traffic, then the scrape must
	// expose the pool's gets/puts/misses as gauges.
	st := submit(t, ts, CampaignRequest{Functions: []string{"strcpy"}}, http.StatusAccepted)
	consumeSSE(t, ts, st.ID)
	g := scrapeGauges(t, ts)
	for _, name := range []string{"healers_cmem_pool_gets", "healers_cmem_pool_puts", "healers_cmem_pool_misses"} {
		if _, ok := g[name]; !ok {
			t.Fatalf("scrape missing %s", name)
		}
	}
	if g["healers_cmem_pool_gets"] == 0 {
		t.Error("pool gets gauge zero after a campaign")
	}
}
