package obs

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. A nil *Counter
// is the disabled counter: Inc and Add do nothing and Value is 0, so a
// hot path that builds its instruments per object can skip building
// them when nobody will read them.
//
// A counter may have a parent (SetParent): every increment then also
// lands in the parent, and in its parent in turn. Many short-lived
// per-object counters can so feed one registry family, which is their
// sum by construction, while each object still reads its own count.
type Counter struct {
	v      atomic.Int64
	parent *Counter
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n to c and to every ancestor.
func (c *Counter) Add(n int64) {
	for ; c != nil; c = c.parent {
		c.v.Add(n)
	}
}

// SetParent makes every later increment of c also increment p (nil
// detaches). Set it before c is shared between goroutines: the link
// itself is not synchronized.
func (c *Counter) SetParent(p *Counter) { c.parent = p }

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value.
type Gauge struct {
	v atomic.Int64
}

// Set stores n.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adjusts the gauge by n.
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket integer histogram: bounds are inclusive
// upper bounds ("le" semantics), with an implicit +Inf bucket at the
// end. Observations are lock-free atomic adds.
type Histogram struct {
	bounds  []int64
	buckets []atomic.Int64 // len(bounds)+1, non-cumulative
	count   atomic.Int64
	sum     atomic.Int64
	// exemplar is the most recent span-scoped observation — a trace ID
	// plus the value it observed — so a tail-latency bucket links back
	// to a concrete campaign trace instead of an anonymous count.
	exemplar atomic.Pointer[HistExemplar]
}

// HistExemplar ties one observed value to the trace it came from.
type HistExemplar struct {
	Trace uint64 `json:"trace"`
	Value int64  `json:"value"`
}

func newHistogram(bounds []int64) *Histogram {
	b := append([]int64(nil), bounds...)
	sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
	return &Histogram{bounds: b, buckets: make([]atomic.Int64, len(b)+1)}
}

// Observe records one value. Like a nil *Counter, a nil *Histogram
// is disabled: Observe and ObserveEx do nothing.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	i := sort.Search(len(h.bounds), func(i int) bool { return h.bounds[i] >= v })
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// ObserveEx records one value and, when trace is nonzero, publishes it
// as the histogram's exemplar.
func (h *Histogram) ObserveEx(v int64, trace uint64) {
	h.Observe(v)
	if h != nil && trace != 0 {
		h.exemplar.Store(&HistExemplar{Trace: trace, Value: v})
	}
}

// Exemplar returns the most recent span-scoped observation, or nil if
// none was recorded.
func (h *Histogram) Exemplar() *HistExemplar { return h.exemplar.Load() }

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Quantile estimates the q-th quantile (0 < q <= 1) by linear
// interpolation within the bucket that crosses the target rank — the
// standard Prometheus histogram_quantile estimate. The lowest bucket
// interpolates from 0 and the +Inf bucket clamps to the highest finite
// bound. Returns 0 when the histogram is empty.
func (h *Histogram) Quantile(q float64) int64 {
	total := h.count.Load()
	if total == 0 || q <= 0 {
		return 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	cum := int64(0)
	for i := range h.buckets {
		n := h.buckets[i].Load()
		if n == 0 {
			cum += n
			continue
		}
		if float64(cum+n) >= rank {
			if i >= len(h.bounds) {
				// +Inf bucket: the best point estimate is the largest
				// finite bound (or 0 with no finite buckets at all).
				if len(h.bounds) == 0 {
					return 0
				}
				return h.bounds[len(h.bounds)-1]
			}
			lo := int64(0)
			if i > 0 {
				lo = h.bounds[i-1]
			}
			hi := h.bounds[i]
			frac := (rank - float64(cum)) / float64(n)
			return lo + int64(frac*float64(hi-lo))
		}
		cum += n
	}
	if len(h.bounds) == 0 {
		return 0
	}
	return h.bounds[len(h.bounds)-1]
}

// Snapshot returns the bounds and per-bucket (non-cumulative) counts;
// the final bucket is the +Inf overflow.
func (h *Histogram) Snapshot() (bounds []int64, buckets []int64) {
	bounds = append([]int64(nil), h.bounds...)
	buckets = make([]int64, len(h.buckets))
	for i := range h.buckets {
		buckets[i] = h.buckets[i].Load()
	}
	return bounds, buckets
}

// Registry is a named collection of counters, gauges, and histograms
// with a Prometheus-style text exposition and a JSON snapshot. All
// accessor methods are get-or-create and nil-safe: calling them on a
// nil *Registry returns a detached, fully functional instrument, so
// instrumented code never branches on whether metrics are enabled.
//
// Metric names may carry Prometheus-style labels in the name itself
// (`healers_ballista_outcomes_total{config="full-auto"}`); the
// exposition groups such series under one TYPE header per family.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return &Counter{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return &Gauge{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// bucket bounds on first use. An existing histogram keeps its original
// bounds regardless of the bounds argument.
func (r *Registry) Histogram(name string, bounds []int64) *Histogram {
	if r == nil {
		return newHistogram(bounds)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// family strips a name's label block, so labeled series group under
// one TYPE line.
func family(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}

// Exposition renders every metric in the Prometheus text format,
// sorted by name, histograms with cumulative le buckets.
func (r *Registry) Exposition() string {
	if r == nil {
		return ""
	}
	r.mu.Lock()
	defer r.mu.Unlock()

	var b strings.Builder
	emitFamily := func(names []string, kind string, write func(name string)) {
		sort.Strings(names)
		lastFam := ""
		for _, name := range names {
			if f := family(name); f != lastFam {
				fmt.Fprintf(&b, "# TYPE %s %s\n", f, kind)
				lastFam = f
			}
			write(name)
		}
	}

	counterNames := make([]string, 0, len(r.counters))
	for name := range r.counters {
		counterNames = append(counterNames, name)
	}
	emitFamily(counterNames, "counter", func(name string) {
		fmt.Fprintf(&b, "%s %d\n", name, r.counters[name].Value())
	})

	gaugeNames := make([]string, 0, len(r.gauges))
	for name := range r.gauges {
		gaugeNames = append(gaugeNames, name)
	}
	emitFamily(gaugeNames, "gauge", func(name string) {
		fmt.Fprintf(&b, "%s %d\n", name, r.gauges[name].Value())
	})

	histNames := make([]string, 0, len(r.hists))
	for name := range r.hists {
		histNames = append(histNames, name)
	}
	emitFamily(histNames, "histogram", func(name string) {
		h := r.hists[name]
		bounds, buckets := h.Snapshot()
		cum := int64(0)
		for i, bound := range bounds {
			cum += buckets[i]
			fmt.Fprintf(&b, "%s_bucket{le=\"%d\"} %d\n", name, bound, cum)
		}
		cum += buckets[len(buckets)-1]
		fmt.Fprintf(&b, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
		fmt.Fprintf(&b, "%s_sum %d\n", name, h.Sum())
		fmt.Fprintf(&b, "%s_count %d\n", name, h.Count())
	})

	return b.String()
}

// HistogramSnapshot is one histogram's state in a Snapshot.
type HistogramSnapshot struct {
	Bounds []int64 `json:"bounds"`
	// Buckets are non-cumulative; the final entry is the +Inf overflow.
	Buckets []int64 `json:"buckets"`
	Count   int64   `json:"count"`
	Sum     int64   `json:"sum"`
	// P50/P95/P99 are bucket-interpolated quantile estimates.
	P50 int64 `json:"p50,omitempty"`
	P95 int64 `json:"p95,omitempty"`
	P99 int64 `json:"p99,omitempty"`
	// Exemplar links the histogram to a recent contributing trace.
	Exemplar *HistExemplar `json:"exemplar,omitempty"`
}

// Snapshot is a point-in-time copy of every metric, the JSON companion
// to Exposition.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot copies the registry state.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.counters) > 0 {
		s.Counters = make(map[string]int64, len(r.counters))
		for name, c := range r.counters {
			s.Counters[name] = c.Value()
		}
	}
	if len(r.gauges) > 0 {
		s.Gauges = make(map[string]int64, len(r.gauges))
		for name, g := range r.gauges {
			s.Gauges[name] = g.Value()
		}
	}
	if len(r.hists) > 0 {
		s.Histograms = make(map[string]HistogramSnapshot, len(r.hists))
		for name, h := range r.hists {
			bounds, buckets := h.Snapshot()
			s.Histograms[name] = HistogramSnapshot{
				Bounds: bounds, Buckets: buckets, Count: h.Count(), Sum: h.Sum(),
				P50: h.Quantile(0.50), P95: h.Quantile(0.95), P99: h.Quantile(0.99),
				Exemplar: h.Exemplar(),
			}
		}
	}
	return s
}

// SnapshotJSON renders the snapshot as indented JSON.
func (r *Registry) SnapshotJSON() ([]byte, error) {
	return json.MarshalIndent(r.Snapshot(), "", "  ")
}
