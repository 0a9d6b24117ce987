package healers_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"healers"
	"healers/internal/injector"
	"healers/internal/obs"
	"healers/internal/serve"
)

// TestMetricCatalogue pins the metric names. One process runs a
// 2-worker campaign, a campaign-service session scraped over HTTP, and
// a sharded strategy-matrix run over a suite subset, all into one
// registry; the registered families must equal DESIGN.md's "Metric
// catalogue" table, name and type. An unlisted family or a stale row
// fails the test.
func TestMetricCatalogue(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign + serve session + strategy matrix")
	}
	reg := healers.NewMetrics()
	names := []string{"asctime", "strcpy", "fgets", "close"}

	sys, err := healers.NewSystem()
	if err != nil {
		t.Fatal(err)
	}
	cfg := injector.DefaultConfig()
	cfg.Workers = 2
	cfg.Metrics = reg
	campaign, err := sys.InjectWith(names, cfg)
	if err != nil {
		t.Fatal(err)
	}

	scrape := serveSession(t, reg, names)
	if _, err := obs.ParseExposition(scrape); err != nil {
		t.Fatalf("/metrics does not parse: %v", err)
	}

	full, err := sys.GenerateSuite()
	if err != nil {
		t.Fatal(err)
	}
	sub := &healers.Suite{PerFunc: map[string]int{}}
	for i := 0; i < len(full.Tests); i += 40 {
		sub.Tests = append(sub.Tests, full.Tests[i])
		sub.PerFunc[full.Tests[i].Func]++
	}
	if _, err := sys.RunStrategyMatrix(sub, healers.SemiAuto(campaign.Decls()),
		healers.Observability{Metrics: reg, Workers: 2}); err != nil {
		t.Fatal(err)
	}

	got := registeredFamilies(reg)
	want, optional := readCatalogue(t)
	for name, typ := range got {
		switch w, ok := want[name]; {
		case !ok:
			t.Errorf("registered %s %s is not in the DESIGN.md metric catalogue", typ, name)
		case w != typ:
			t.Errorf("%s is registered as a %s, catalogued as a %s", name, typ, w)
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok && !optional[name] {
			t.Errorf("catalogued %s was never registered (stale row?)", name)
		}
	}
}

// serveSession submits one campaign to a campaign service sharing reg,
// waits for it to finish, and returns the /metrics scrape.
func serveSession(t *testing.T, reg *obs.Registry, names []string) string {
	t.Helper()
	srv, err := serve.New(serve.Options{Registry: reg, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Close(ctx); err != nil {
			t.Errorf("serve Close: %v", err)
		}
	}()

	body, _ := json.Marshal(serve.CampaignRequest{Functions: names})
	resp, err := http.Post(ts.URL+"/v1/campaigns", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var st serve.CampaignStatus
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(60 * time.Second); st.State != "done"; {
		if st.State == "failed" || time.Now().After(deadline) {
			t.Fatalf("campaign %s ended in state %q", st.ID, st.State)
		}
		time.Sleep(10 * time.Millisecond)
		resp, err := http.Get(ts.URL + "/v1/campaigns/" + st.ID)
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
	}

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	scrape, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(scrape)
}

// registeredFamilies maps every family in reg to its type. Label blocks
// are stripped, and so are the _p50/_p95/_p99 gauges /metrics
// materializes from each histogram at scrape time: they are views of
// the histogram, not families of their own.
func registeredFamilies(reg *obs.Registry) map[string]string {
	snap := reg.Snapshot()
	out := map[string]string{}
	family := func(name string) string {
		if i := strings.IndexByte(name, '{'); i >= 0 {
			return name[:i]
		}
		return name
	}
	for name := range snap.Histograms {
		out[family(name)] = "histogram"
	}
	for name := range snap.Counters {
		out[family(name)] = "counter"
	}
	for name := range snap.Gauges {
		fam := family(name)
		if base := strings.TrimRight(fam, "0123456789"); strings.HasSuffix(base, "_p") {
			if _, ok := snap.Histograms[strings.TrimSuffix(base, "_p")]; ok {
				continue
			}
		}
		out[fam] = "gauge"
	}
	return out
}

// readCatalogue parses the DESIGN.md "Metric catalogue" table into
// name → type. A dagger after a name marks a family registered only on
// its failure path, which a healthy run cannot be required to show.
func readCatalogue(t *testing.T) (types map[string]string, optional map[string]bool) {
	t.Helper()
	data, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(data), "\n## Metric catalogue\n")
	if !ok {
		t.Fatal(`DESIGN.md has no "## Metric catalogue" section`)
	}
	section, _, _ = strings.Cut(section, "\n## ")
	types, optional = map[string]string{}, map[string]bool{}
	for _, line := range strings.Split(section, "\n") {
		cells := strings.Split(line, "|")
		if len(cells) != 5 || !strings.HasPrefix(strings.TrimSpace(cells[1]), "`healers_") {
			continue
		}
		name := strings.TrimSpace(cells[1])
		if strings.HasSuffix(name, "†") {
			name = strings.TrimSpace(strings.TrimSuffix(name, "†"))
			optional[strings.Trim(name, "`")] = true
		}
		name = strings.Trim(name, "`")
		if _, dup := types[name]; dup {
			t.Errorf("catalogue lists %s twice", name)
		}
		types[name] = strings.TrimSpace(cells[2])
	}
	if len(types) == 0 {
		t.Fatal("metric catalogue table is empty")
	}
	return types, optional
}
