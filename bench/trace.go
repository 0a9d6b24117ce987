package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"healers/internal/obs"
)

// spanID names a recorded span; 0 is "no span" (an untraced call site
// or a root's parent).
type spanID int

// span is one timed call across a layer boundary, recorded from the
// benchmark side. Spans of one iteration share iter, the ID of the
// iteration's root span.
type span struct {
	name       string
	parent     spanID
	iter       spanID
	lane       int
	start, end time.Duration // since the tracer started
}

// tracer keeps the spans of a traced run in memory; they are written
// out once, when the run ends. A nil tracer records nothing, so
// untraced runs pass nil and pay one comparison per call site.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span under parent on the parent's lane.
func (t *tracer) start(name string, parent spanID) spanID {
	return t.startLane(name, parent, -1)
}

// startLane opens a span on an explicit lane; concurrent callers (the
// serve clients) each take their own so their spans do not overlap.
func (t *tracer) startLane(name string, parent spanID, lane int) spanID {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	s := span{name: name, parent: parent, start: now, end: now}
	id := spanID(len(t.spans) + 1)
	s.iter = id
	if parent != 0 {
		p := t.spans[parent-1]
		s.iter, s.lane = p.iter, p.lane
	}
	if lane >= 0 {
		s.lane = lane
	}
	t.spans = append(t.spans, s)
	return id
}

// derived records a span under parent that no call site timed: a share
// of the parent's interval that the program's own counters attribute to
// a phase. It starts at offset from the parent's start and is clipped to
// the parent's end.
func (t *tracer) derived(name string, parent spanID, offset, length time.Duration) {
	if t == nil || parent == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.spans[parent-1]
	start := min(p.start+offset, p.end)
	t.spans = append(t.spans, span{name: name, parent: parent, iter: p.iter, lane: p.lane,
		start: start, end: min(start+length, p.end)})
}

func (t *tracer) end(id spanID) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id-1].end = now
	t.mu.Unlock()
}

// selfTimes attributes every iteration's wall to span names. A span's
// self time is its duration minus the part its children cover. Where
// children overlap (concurrent clients), each child's subtree is scaled
// by covered/summed so the iteration's rows still add up to its wall.
// The roots' own self time is the benchmark's bookkeeping between layer
// calls and is reported as "unattributed".
func (t *tracer) selfTimes() (rows map[string]float64, calls map[string]int, wall float64) {
	kids := make([][]int, len(t.spans))
	for i, s := range t.spans {
		if s.parent != 0 {
			kids[s.parent-1] = append(kids[s.parent-1], i)
		}
	}
	rows, calls = make(map[string]float64), make(map[string]int)
	var attribute func(i int, weight float64)
	attribute = func(i int, weight float64) {
		s := t.spans[i]
		var ivs [][2]time.Duration
		sum := 0.0
		for _, k := range kids[i] {
			c := t.spans[k]
			lo, hi := max(c.start, s.start), min(c.end, s.end)
			if hi > lo {
				ivs = append(ivs, [2]time.Duration{lo, hi})
			}
			sum += ms(c.end - c.start)
		}
		covered := ms(unionLen(ivs))
		name := s.name
		if s.parent == 0 {
			name = "unattributed"
		}
		rows[name] += weight * (ms(s.end-s.start) - covered)
		calls[name]++
		scale := 1.0
		if sum > 0 {
			scale = covered / sum
		}
		for _, k := range kids[i] {
			attribute(k, weight*scale)
		}
	}
	for i, s := range t.spans {
		if s.parent == 0 {
			wall += ms(s.end - s.start)
			attribute(i, 1)
		}
	}
	return rows, calls, wall
}

// unionLen is the total length covered by a set of intervals.
func unionLen(ivs [][2]time.Duration) time.Duration {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total time.Duration
	var cur [2]time.Duration
	for i, iv := range ivs {
		switch {
		case i == 0:
			cur = iv
		case iv[0] > cur[1]:
			total += cur[1] - cur[0]
			cur = iv
		case iv[1] > cur[1]:
			cur[1] = iv[1]
		}
	}
	if len(ivs) > 0 {
		total += cur[1] - cur[0]
	}
	return total
}

// report prints the self-time table of the traced iterations and checks
// that the rows account for the iteration wall.
func (t *tracer) report(w io.Writer, workload string) error {
	rows, calls, wall := t.selfTimes()
	names := sortedKeys(rows)
	sort.SliceStable(names, func(i, j int) bool { return rows[names[i]] > rows[names[j]] })
	fmt.Fprintf(w, "trace: self time of %s over %d traced iterations, wall %.1f ms\n", workload, calls["unattributed"], wall)
	fmt.Fprintf(w, "  %-34s %8s %12s %8s\n", "span", "calls", "self_ms", "share")
	total := 0.0
	for _, n := range names {
		total += rows[n]
		fmt.Fprintf(w, "  %-34s %8d %12.2f %7.2f%%\n", n, calls[n], rows[n], 100*rows[n]/wall)
	}
	fmt.Fprintf(w, "  %-34s %8s %12.2f %7.2f%%\n", "total", "", total, 100*total/wall)
	if math.Abs(total-wall) > 1e-6*math.Max(wall, 1) {
		return fmt.Errorf("trace: self times sum to %.3f ms, iteration wall is %.3f ms", total, wall)
	}
	return nil
}

// writeChrome writes the spans as Chrome trace-event JSON, loadable in
// Perfetto or chrome://tracing, and validates what it wrote.
// The process is named after the workload, so the trace nests workload,
// iteration, then layer call.
func (t *tracer) writeChrome(path, workload string) error {
	ct := obs.ChromeTrace{DisplayTimeUnit: "ms"}
	ct.TraceEvents = append(ct.TraceEvents, obs.ChromeTraceEvent{
		Name: "process_name", Ph: "M", PID: 1, TID: 0,
		Args: map[string]any{"name": "bench " + workload},
	})
	for i, s := range t.spans {
		ct.TraceEvents = append(ct.TraceEvents, obs.ChromeTraceEvent{
			Name: s.name, Cat: "bench", Ph: "X",
			TS:  s.start.Microseconds(),
			Dur: max((s.end - s.start).Microseconds(), 1),
			PID: 1, TID: int64(s.lane),
			Args: map[string]any{"id": i + 1, "parent": int(s.parent), "iter": int(s.iter)},
		})
	}
	data, err := json.Marshal(ct)
	if err != nil {
		return err
	}
	if _, err := obs.ValidateChromeTrace(data); err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
