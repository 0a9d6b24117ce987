package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"
)

func TestTracerSequenceAndFanOutOrder(t *testing.T) {
	var order []string
	a := FuncSink(func(e Event) { order = append(order, "a") })
	b := FuncSink(func(e Event) { order = append(order, "b") })
	tr := New(a, b)

	if !tr.Enabled() {
		t.Fatal("tracer with sinks should be enabled")
	}
	tr.Emit(Event{Kind: KindWrapperCall, Func: "strcpy"})
	tr.Emit(Event{Kind: KindWrapperCall, Func: "strlen"})

	// Every event visits every sink in attachment order.
	want := []string{"a", "b", "a", "b"}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("fan-out order = %v, want %v", order, want)
	}
	if tr.Seq() != 2 {
		t.Fatalf("Seq() = %d, want 2", tr.Seq())
	}
}

func TestTracerAssignsMonotonicSeq(t *testing.T) {
	var seqs []uint64
	tr := New(FuncSink(func(e Event) { seqs = append(seqs, e.Seq) }))
	for i := 0; i < 5; i++ {
		tr.Emit(Event{Kind: KindInjectionProbe})
	}
	if !reflect.DeepEqual(seqs, []uint64{1, 2, 3, 4, 5}) {
		t.Fatalf("seqs = %v", seqs)
	}
}

func TestNopAndNilTracerDisabled(t *testing.T) {
	var nilTr *Tracer
	if nilTr.Enabled() {
		t.Error("nil tracer should be disabled")
	}
	nilTr.Emit(Event{Kind: KindWrapperCall}) // must not panic
	if nilTr.Seq() != 0 {
		t.Error("nil tracer Seq should be 0")
	}
	if New().Enabled() {
		t.Error("sinkless tracer should be disabled")
	}
}

func TestNopTracerEmitAllocatesNothing(t *testing.T) {
	for name, tr := range map[string]*Tracer{"nil": nil, "sinkless": New()} {
		allocs := testing.AllocsPerRun(100, func() {
			if tr.Enabled() {
				t.Fatalf("%s tracer enabled", name)
			}
			tr.Emit(Event{Kind: KindSandboxOutcome, Func: "strcpy", Outcome: "return"})
		})
		if allocs != 0 {
			t.Fatalf("disabled (%s) Emit allocates %v per call, want 0", name, allocs)
		}
	}
}

func TestNilRegistryInstrumentsAllocateNothingPerOp(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	g := r.Gauge("y")
	h := r.Histogram("z", []int64{1, 10})
	allocs := testing.AllocsPerRun(100, func() {
		c.Inc()
		g.Set(7)
		h.Observe(5)
	})
	if allocs != 0 {
		t.Fatalf("detached instrument ops allocate %v per run, want 0", allocs)
	}
	if c.Value() == 0 || h.Count() == 0 {
		t.Fatal("detached instruments must still function")
	}
}

// TestCounterParentLink covers the parent link: each child keeps its
// own count, the parent holds the sum across children incremented
// concurrently (run under -race), a nil parent is a plain counter, and
// an increment allocates nothing either way.
func TestCounterParentLink(t *testing.T) {
	reg := NewRegistry()
	parent := reg.Counter("healers_test_events_total")
	const children, perChild = 8, 1000
	kids := make([]Counter, children)
	var wg sync.WaitGroup
	for i := range kids {
		kids[i].SetParent(parent)
		wg.Add(1)
		go func(c *Counter, n int) {
			defer wg.Done()
			for j := 0; j < n; j++ {
				c.Inc()
			}
			c.Add(int64(n))
		}(&kids[i], perChild+i)
	}
	wg.Wait()
	var sum int64
	for i := range kids {
		if got, want := kids[i].Value(), int64(2*(perChild+i)); got != want {
			t.Errorf("child %d = %d, want its own %d", i, got, want)
		}
		sum += kids[i].Value()
	}
	if got := reg.Counter("healers_test_events_total").Value(); got != sum {
		t.Errorf("parent = %d, want the children's sum %d", got, sum)
	}

	var lone Counter
	lone.SetParent(nil)
	lone.Inc()
	if lone.Value() != 1 {
		t.Errorf("counter without a parent = %d, want 1", lone.Value())
	}

	var linked Counter
	linked.SetParent(parent)
	before := parent.Value()
	for _, c := range []*Counter{&lone, &linked} {
		if allocs := testing.AllocsPerRun(100, c.Inc); allocs != 0 {
			t.Errorf("Inc allocates %v per run, want 0", allocs)
		}
	}
	if got := parent.Value() - before; got != linked.Value() {
		t.Errorf("parent gained %d, linked child counted %d", got, linked.Value())
	}
}

func TestKindTextRoundTrip(t *testing.T) {
	for k := KindInjectionProbe; k <= KindTestOutcome; k++ {
		text, err := k.MarshalText()
		if err != nil {
			t.Fatalf("MarshalText(%d): %v", k, err)
		}
		var back Kind
		if err := back.UnmarshalText(text); err != nil {
			t.Fatalf("UnmarshalText(%q): %v", text, err)
		}
		if back != k {
			t.Fatalf("round trip %d -> %q -> %d", k, text, back)
		}
	}
	var k Kind
	if err := k.UnmarshalText([]byte("no-such-kind")); err == nil {
		t.Fatal("unknown kind name should not parse")
	}
	if _, err := Kind(200).MarshalText(); err == nil {
		t.Fatal("unknown kind value should not marshal")
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	events := []Event{
		{Kind: KindInjectionProbe, Func: "memcpy", Arg: 1, Probe: "RW_FIXED[3], RONLY_FIXED[0], INT_16"},
		{Kind: KindArgAdjust, Func: "memcpy", Arg: 0, Probe: "RW_FIXED[3]", Detail: "RW_FIXED[4]", Addr: 0x2000},
		{Kind: KindSandboxOutcome, Func: "memcpy", Outcome: "segfault", Addr: 0xdead0000, Steps: 42},
		{Kind: KindSandboxOutcome, Func: "close", Outcome: "return", Ret: ^uint64(0), Errno: 9, Err: "EBADF"},
		{Kind: KindCheckViolation, Func: "strcpy", Arg: 1, Probe: "CSTR", Detail: "unreadable",
			Errno: 14, Err: "EFAULT", Policy: "return-error"},
		{Kind: KindWrapperCall, Func: "fclose", Outcome: "checked", Steps: 12},
		{Kind: KindCampaignPhase, Phase: "inject", Func: "abs", N: 3, Total: 86},
		{Kind: KindTestOutcome, Config: "full-auto", Func: "fgets", Probe: "BUF, INT, FILE", Outcome: "errno-set"},
	}

	var buf bytes.Buffer
	tr := New(NewJSONLSink(&buf))
	for _, e := range events {
		tr.Emit(e)
	}

	parsed, err := ParseJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed) != len(events) {
		t.Fatalf("parsed %d events, want %d", len(parsed), len(events))
	}
	for i, e := range events {
		e.Seq = uint64(i + 1) // the tracer stamps sequence numbers
		if !reflect.DeepEqual(parsed[i], e) {
			t.Errorf("event %d round trip:\n got %+v\nwant %+v", i, parsed[i], e)
		}
	}
}

// failingWriter accepts limit bytes, then fails every write.
type failingWriter struct {
	limit, writes int
}

var errDiskFull = errors.New("disk full")

func (w *failingWriter) Write(p []byte) (int, error) {
	w.writes++
	if w.limit < len(p) {
		return 0, errDiskFull
	}
	w.limit -= len(p)
	return len(p), nil
}

// TestJSONLSinkKeepsFirstWriteError: a failed write never reaches the
// emitter, stops the sink, and stays available from Err.
func TestJSONLSinkKeepsFirstWriteError(t *testing.T) {
	w := &failingWriter{limit: 100} // room for one event line
	sink := NewJSONLSink(w)
	tr := New(sink)
	for i := 0; i < 10; i++ {
		tr.Emit(Event{Kind: KindWrapperCall, Func: "fclose", Outcome: "checked"})
	}
	if !errors.Is(sink.Err(), errDiskFull) {
		t.Fatalf("Err() = %v, want the write error", sink.Err())
	}
	if w.writes != 2 {
		t.Errorf("%d writes, want 2: the sink must stop at the first failure", w.writes)
	}
	if err := NewJSONLSink(&bytes.Buffer{}).Err(); err != nil {
		t.Errorf("fresh sink Err() = %v", err)
	}
}

func TestParseJSONLErrors(t *testing.T) {
	if _, err := ParseJSONL(strings.NewReader("{\"seq\":1,\"kind\":\"wrapper-call\"}\nnot json\n")); err == nil {
		t.Fatal("malformed line should fail")
	}
	events, err := ParseJSONL(strings.NewReader("\n\n"))
	if err != nil || len(events) != 0 {
		t.Fatalf("blank lines: events=%v err=%v", events, err)
	}
}

func TestHistogramBucketBoundaries(t *testing.T) {
	h := newHistogram([]int64{10, 100})
	// le semantics: a value equal to a bound lands in that bound's bucket.
	for _, v := range []int64{0, 5, 10} {
		h.Observe(v)
	}
	for _, v := range []int64{11, 100} {
		h.Observe(v)
	}
	h.Observe(101) // +Inf overflow

	bounds, buckets := h.Snapshot()
	if !reflect.DeepEqual(bounds, []int64{10, 100}) {
		t.Fatalf("bounds = %v", bounds)
	}
	if !reflect.DeepEqual(buckets, []int64{3, 2, 1}) {
		t.Fatalf("buckets = %v, want [3 2 1]", buckets)
	}
	if h.Count() != 6 {
		t.Fatalf("Count = %d", h.Count())
	}
	if h.Sum() != 0+5+10+11+100+101 {
		t.Fatalf("Sum = %d", h.Sum())
	}
}

func TestHistogramSortsBounds(t *testing.T) {
	h := newHistogram([]int64{100, 10}) // deliberately unsorted
	h.Observe(50)
	bounds, buckets := h.Snapshot()
	if !reflect.DeepEqual(bounds, []int64{10, 100}) {
		t.Fatalf("bounds not sorted: %v", bounds)
	}
	if !reflect.DeepEqual(buckets, []int64{0, 1, 0}) {
		t.Fatalf("buckets = %v", buckets)
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	if r.Counter("c") != r.Counter("c") {
		t.Error("same name should return same counter")
	}
	if r.Gauge("g") != r.Gauge("g") {
		t.Error("same name should return same gauge")
	}
	h1 := r.Histogram("h", []int64{1, 2})
	h2 := r.Histogram("h", []int64{9, 99}) // bounds ignored on reuse
	if h1 != h2 {
		t.Error("same name should return same histogram")
	}
	bounds, _ := h2.Snapshot()
	if !reflect.DeepEqual(bounds, []int64{1, 2}) {
		t.Errorf("reused histogram lost its original bounds: %v", bounds)
	}
}

func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("healers_calls_total").Add(5)
	r.Counter(`healers_outcomes_total{config="b"}`).Add(2)
	r.Counter(`healers_outcomes_total{config="a"}`).Add(1)
	r.Gauge("healers_depth").Set(-3)
	h := r.Histogram("healers_steps", []int64{10, 100})
	h.Observe(7)
	h.Observe(10)
	h.Observe(55)
	h.Observe(1000)

	want := `# TYPE healers_calls_total counter
healers_calls_total 5
# TYPE healers_outcomes_total counter
healers_outcomes_total{config="a"} 1
healers_outcomes_total{config="b"} 2
# TYPE healers_depth gauge
healers_depth -3
# TYPE healers_steps histogram
healers_steps_bucket{le="10"} 2
healers_steps_bucket{le="100"} 3
healers_steps_bucket{le="+Inf"} 4
healers_steps_sum 1072
healers_steps_count 4
`
	if got := r.Exposition(); got != want {
		t.Errorf("Exposition mismatch:\n got:\n%s\nwant:\n%s", got, want)
	}
}

func TestExpositionNilAndEmpty(t *testing.T) {
	var nilReg *Registry
	if nilReg.Exposition() != "" {
		t.Error("nil registry exposition should be empty")
	}
	if NewRegistry().Exposition() != "" {
		t.Error("empty registry exposition should be empty")
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("c").Add(3)
	r.Gauge("g").Set(-1)
	r.Histogram("h", []int64{5}).Observe(4)

	data, err := r.SnapshotJSON()
	if err != nil {
		t.Fatal(err)
	}
	var s Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	if s.Counters["c"] != 3 || s.Gauges["g"] != -1 {
		t.Fatalf("snapshot = %+v", s)
	}
	hs := s.Histograms["h"]
	if hs.Count != 1 || hs.Sum != 4 || !reflect.DeepEqual(hs.Buckets, []int64{1, 0}) {
		t.Fatalf("histogram snapshot = %+v", hs)
	}
}

func TestTextSinkRendersEventString(t *testing.T) {
	var buf bytes.Buffer
	tr := New(NewTextSink(&buf))
	tr.Emit(Event{Kind: KindSandboxOutcome, Func: "asctime", Probe: "NULL",
		Outcome: "return", Ret: 0, Err: "EINVAL"})
	want := "#1 asctime(NULL) -> return 0x0 (errno EINVAL) [0 steps]\n"
	if got := buf.String(); got != want {
		t.Fatalf("text line = %q, want %q", got, want)
	}
}
