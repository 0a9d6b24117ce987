package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// soakSets are the overlapping prototype sets the soak clients submit:
// distinct campaigns that share functions, so the shared cache sees
// both cross-campaign reuse and true concurrency.
var soakSets = [][]string{
	{"strcpy", "memcpy", "fopen"},
	{"strcpy", "memcpy", "asctime"},
	{"fopen", "qsort", "strlen"},
	{"strcpy", "qsort", "asctime", "strlen"},
}

// uniqueFunctions returns the distinct function names across soakSets.
func uniqueFunctions() []string {
	seen := make(map[string]bool)
	var out []string
	for _, set := range soakSets {
		for _, name := range set {
			if !seen[name] {
				seen[name] = true
				out = append(out, name)
			}
		}
	}
	return out
}

// TestSoakConcurrentClients hammers one server with concurrent
// submissions — several clients per campaign, campaigns overlapping in
// their function sets — and asserts the single-flight/cache contract:
// every function computes exactly once no matter how many campaigns
// want it concurrently, and every lookup is accounted for as a cache
// hit, a computation, or a flight join. Run under -race this is also
// the service's concurrency soak.
func TestSoakConcurrentClients(t *testing.T) {
	const clientsPerSet = 4

	srv, ts := newTestServer(t, Options{Workers: 2})

	// A scraper hammers /metrics throughout, checking that every
	// mid-campaign snapshot of the cache gauges is cross-field
	// consistent: entries present can only come from computations or
	// disk loads already counted.
	stopScrape := make(chan struct{})
	var scrapes atomic.Int64
	var scraperWG sync.WaitGroup
	scraperWG.Add(1)
	go func() {
		defer scraperWG.Done()
		for {
			select {
			case <-stopScrape:
				return
			default:
			}
			g, err := tryScrapeGauges(ts)
			if err != nil {
				t.Errorf("scrape: %v", err)
				return
			}
			if g["healers_cache_entries"] > g["healers_cache_misses"]+g["healers_cache_loaded"] {
				t.Errorf("inconsistent scrape: entries %d > misses %d + loaded %d",
					g["healers_cache_entries"], g["healers_cache_misses"], g["healers_cache_loaded"])
				return
			}
			scrapes.Add(1)
		}
	}()

	var wg sync.WaitGroup
	ids := make([][]string, len(soakSets))
	for si, set := range soakSets {
		ids[si] = make([]string, clientsPerSet)
		for ci := 0; ci < clientsPerSet; ci++ {
			wg.Add(1)
			go func(si, ci int, set []string) {
				defer wg.Done()
				st := submitAny(t, ts, CampaignRequest{Functions: set})
				ids[si][ci] = st.ID
				consumeSSE(t, ts, st.ID)
			}(si, ci, set)
		}
	}
	wg.Wait()
	close(stopScrape)
	scraperWG.Wait()
	if t.Failed() {
		return
	}
	if scrapes.Load() == 0 {
		t.Fatal("metrics scraper never completed a scrape")
	}

	// All clients of one set joined a single campaign; campaigns with
	// different sets stayed distinct.
	campaigns := make(map[string]bool)
	for si, set := range ids {
		for ci := 1; ci < clientsPerSet; ci++ {
			if set[ci] != set[0] {
				t.Fatalf("set %d clients split across campaigns %s and %s", si, set[0], set[ci])
			}
		}
		if campaigns[set[0]] {
			t.Fatalf("distinct sets deduped to one campaign %s", set[0])
		}
		campaigns[set[0]] = true
	}

	// The single-flight contract: each unique function computed exactly
	// once, and every per-function lookup across every campaign was a
	// hit, a computation, or a join — nothing double-computed, nothing
	// lost.
	unique := uniqueFunctions()
	lookups := 0
	for _, set := range soakSets {
		lookups += len(set)
	}
	cst := srv.cache.Stats()
	if cst.Misses != int64(len(unique)) {
		t.Errorf("cache misses %d, want %d (one computation per unique function)", cst.Misses, len(unique))
	}
	if cst.Entries != int64(len(unique)) {
		t.Errorf("cache entries %d, want %d", cst.Entries, len(unique))
	}
	if got := cst.Hits + cst.Misses + cst.Joins; got != int64(lookups) {
		t.Errorf("hits %d + misses %d + joins %d = %d, want %d lookups",
			cst.Hits, cst.Misses, cst.Joins, got, lookups)
	}
	if cst.InFlight != 0 {
		t.Errorf("cache still has %d in-flight computations", cst.InFlight)
	}

	// Functions shared between campaigns served identical vector lines
	// from the shared cache, no matter which campaign computed them.
	lines := make(map[string]map[string]string) // func -> campaign id -> vector line
	for si := range soakSets {
		vec := getVectors(t, ts, ids[si][0], http.StatusOK)
		for _, line := range strings.Split(strings.TrimRight(vec, "\n"), "\n") {
			name, _, ok := strings.Cut(line, ":")
			if !ok {
				t.Fatalf("set %d: malformed vector line %q", si, line)
			}
			if lines[name] == nil {
				lines[name] = make(map[string]string)
			}
			lines[name][ids[si][0]] = line
		}
	}
	for name, byCampaign := range lines {
		var want string
		for id, line := range byCampaign {
			if want == "" {
				want = line
			} else if line != want {
				t.Errorf("function %s served different vectors across campaigns (e.g. %s): %q vs %q",
					name, id, line, want)
			}
		}
	}
	g := scrapeGauges(t, ts)
	if g["healers_serve_campaigns"] != int64(len(soakSets)) {
		t.Errorf("server holds %d campaigns, want %d", g["healers_serve_campaigns"], len(soakSets))
	}
	deduped := counterValue(t, ts, `healers_serve_campaigns_deduped_total`)
	if want := int64(len(soakSets) * (clientsPerSet - 1)); deduped != want {
		t.Errorf("deduped submissions %d, want %d", deduped, want)
	}
}

// submitAny is submit without a fixed status-code expectation: under
// racing duplicate submissions a client gets either 202 (it created
// the campaign) or 200 (it joined one).
func submitAny(t *testing.T, ts *httptest.Server, req CampaignRequest) CampaignStatus {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(ts.URL+"/v1/campaigns", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		t.Fatalf("POST: code %d (body %s)", resp.StatusCode, raw)
	}
	var st CampaignStatus
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatalf("decode: %v", err)
	}
	return st
}

// tryScrapeGauges fetches /metrics and parses every bare `name value`
// line into a map. It never touches *testing.T, so it is safe from the
// scraper goroutine.
func tryScrapeGauges(ts *httptest.Server) (map[string]int64, error) {
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: code %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		return nil, fmt.Errorf("GET /metrics: Content-Type %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	out := make(map[string]int64)
	for _, line := range strings.Split(string(raw), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		n, err := strconv.ParseInt(val, 10, 64)
		if err != nil {
			continue // histogram sums etc. may not be integers
		}
		out[name] = n
	}
	return out, nil
}

// scrapeGauges is tryScrapeGauges for the test goroutine.
func scrapeGauges(t *testing.T, ts *httptest.Server) map[string]int64 {
	t.Helper()
	g, err := tryScrapeGauges(ts)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// counterValue reads one named series from /metrics.
func counterValue(t *testing.T, ts *httptest.Server, name string) int64 {
	t.Helper()
	g := scrapeGauges(t, ts)
	v, ok := g[name]
	if !ok {
		t.Fatalf("metric %s absent from exposition", name)
	}
	return v
}

// TestSoakMetricsRequestCounters spot-checks the HTTP request counters
// the instrument wrapper maintains: route patterns, not raw paths.
func TestSoakMetricsRequestCounters(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	st := submit(t, ts, CampaignRequest{Functions: []string{"strlen"}}, http.StatusAccepted)
	consumeSSE(t, ts, st.ID)
	getVectors(t, ts, st.ID, http.StatusOK)

	submitted := counterValue(t, ts,
		fmt.Sprintf("healers_http_requests_total{method=%q,path=%q,code=\"202\"}", "POST", "/v1/campaigns"))
	if submitted != 1 {
		t.Errorf("202 submit counter = %d, want 1", submitted)
	}
	vectors := counterValue(t, ts,
		fmt.Sprintf("healers_http_requests_total{method=%q,path=%q,code=\"200\"}", "GET", "/v1/campaigns/{id}/vectors"))
	if vectors != 1 {
		t.Errorf("vectors counter = %d, want 1", vectors)
	}
}
