package apps

import (
	"fmt"
	"strings"
	"time"

	"healers/internal/clib"
	"healers/internal/csim"
	"healers/internal/decl"
	"healers/internal/wrapper"
)

// timingCaller measures the time spent inside library calls — the
// paper's "measurement wrapper" that determines call frequency and the
// percentage of execution time spent in the wrapped C library.
type timingCaller struct {
	inner Caller
	calls int
	spent time.Duration
}

func (t *timingCaller) Call(p *csim.Process, name string, args ...uint64) uint64 {
	t.calls++
	start := time.Now()
	ret := t.inner.Call(p, name, args...)
	t.spent += time.Since(start)
	return ret
}

// Measurement is one application's Table 2 row as measured.
type Measurement struct {
	Name          string
	Calls         int
	WrappedPerSec float64
	LibShare      float64 // fraction of unwrapped execution inside the library
	CheckOverhead float64 // checking time / wrapped execution time
	ExecOverhead  float64 // (wrapped - unwrapped) / unwrapped
	Paper         PaperRow
}

// Measure runs the profile unwrapped and wrapped and derives the
// Table 2 quantities.
func Measure(lib *clib.Library, decls *decl.DeclSet, profile *Profile) Measurement {
	run := func(wrapped bool) (total, inLib time.Duration, calls int) {
		fs := csim.NewFS()
		if profile.Setup != nil {
			profile.Setup(fs)
		}
		p := csim.NewProcess(fs)
		p.SetStepBudget(1 << 31)
		var base Caller = lib
		if wrapped {
			base = wrapper.Attach(p, lib, decls, wrapper.DefaultOptions())
		}
		tc := &timingCaller{inner: base}
		start := time.Now()
		profile.Run(p, tc)
		return time.Since(start), tc.spent, tc.calls
	}

	// Three runs each, keeping the fastest, to damp scheduler and
	// frequency-scaling jitter — compute-dominated profiles like gzip
	// make so few calls that noise would otherwise swamp the overhead.
	// The sides alternate (plain, wrapped, plain, ...), so load that
	// drifts during the runs lands on both.
	var plainTotal, plainLib, wrapTotal, wrapLib time.Duration
	var calls int
	for i := 0; i < 3; i++ {
		if t, l, _ := run(false); i == 0 || t < plainTotal {
			plainTotal, plainLib = t, l
		}
		if t, l, c := run(true); i == 0 || t < wrapTotal {
			wrapTotal, wrapLib, calls = t, l, c
		}
	}

	m := Measurement{
		Name:  profile.Name,
		Calls: calls,
		Paper: profile.Paper,
	}
	if wrapTotal > 0 {
		m.WrappedPerSec = float64(calls) / wrapTotal.Seconds()
		m.CheckOverhead = float64(wrapLib-plainLib) / float64(wrapTotal)
		if m.CheckOverhead < 0 {
			m.CheckOverhead = 0
		}
	}
	if plainTotal > 0 {
		m.LibShare = float64(plainLib) / float64(plainTotal)
		m.ExecOverhead = float64(wrapTotal-plainTotal) / float64(plainTotal)
		if m.ExecOverhead < 0 {
			m.ExecOverhead = 0
		}
	}
	return m
}

// MeasureAll runs every Table 2 workload.
func MeasureAll(lib *clib.Library, decls *decl.DeclSet) []Measurement {
	var out []Measurement
	for _, profile := range All() {
		out = append(out, Measure(lib, decls, profile))
	}
	return out
}

// FormatTable2 renders the measurements next to the paper's numbers.
func FormatTable2(ms []Measurement) string {
	var b strings.Builder
	b.WriteString("Table 2 — execution overhead of four utility programs (measured | paper)\n")
	fmt.Fprintf(&b, "%-22s", "Applications")
	for _, m := range ms {
		fmt.Fprintf(&b, "%18s", m.Name)
	}
	b.WriteString("\n")
	fmt.Fprintf(&b, "%-22s", "#wrapped func/sec")
	for _, m := range ms {
		fmt.Fprintf(&b, "%10.0f |%5.0f", m.WrappedPerSec, m.Paper.WrappedPerSec)
	}
	b.WriteString("\n")
	fmt.Fprintf(&b, "%-22s", "time in library")
	for _, m := range ms {
		fmt.Fprintf(&b, "%9.2f%% |%4.2f%%", 100*m.LibShare, 100*m.Paper.LibShare)
	}
	b.WriteString("\n")
	fmt.Fprintf(&b, "%-22s", "checking overhead")
	for _, m := range ms {
		fmt.Fprintf(&b, "%9.2f%% |%4.2f%%", 100*m.CheckOverhead, 100*m.Paper.CheckOverhead)
	}
	b.WriteString("\n")
	fmt.Fprintf(&b, "%-22s", "execution overhead")
	for _, m := range ms {
		fmt.Fprintf(&b, "%9.2f%% |%4.2f%%", 100*m.ExecOverhead, 100*m.Paper.ExecOverhead)
	}
	b.WriteString("\n")
	return b.String()
}
