// Package report renders the paper's tables and statistics as text for
// the command-line tools and the benchmark harness.
package report

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"healers/internal/extract"
	"healers/internal/injector"
	"healers/internal/obs"
)

// Extraction renders the §3 statistics next to the paper's values.
func Extraction(s extract.Stats) string {
	var b strings.Builder
	b.WriteString("Extraction statistics (measured | paper §3)\n")
	fmt.Fprintf(&b, "  global functions            %6d |    —\n", s.Total)
	fmt.Fprintf(&b, "  internal (leading _)        %5.1f%% | >34%%\n", 100*s.InternalFraction())
	fmt.Fprintf(&b, "  with manual page            %5.1f%% | 51.1%%\n", 100*s.ManCoverage())
	fmt.Fprintf(&b, "  man pages without headers   %5.1f%% |  1.2%%\n", 100*s.ManNoHeaderRate())
	fmt.Fprintf(&b, "  man pages with wrong headers%5.1f%% |  7.7%%\n", 100*s.ManWrongHeaderRate())
	fmt.Fprintf(&b, "  prototypes found            %5.1f%% | 96.0%%\n", 100*s.FoundRate())
	fmt.Fprintf(&b, "  found via man page          %6d |    —\n", s.FoundViaMan)
	fmt.Fprintf(&b, "  found via header search     %6d |    —\n", s.FoundViaSearch)
	return b.String()
}

// Table1 renders the error-return-code classification next to the
// paper's Table 1.
func Table1(c *injector.Campaign) string {
	t := c.Table1()
	pct := func(n int) float64 {
		if t.Total() == 0 {
			return 0
		}
		return 100 * float64(n) / float64(t.Total())
	}
	var b strings.Builder
	b.WriteString("Table 1 — error return code determination (measured | paper)\n")
	fmt.Fprintf(&b, "  %-30s %4d %5.1f%% |  8  9.3%%\n", "No Return Code", t.NoReturn, pct(t.NoReturn))
	fmt.Fprintf(&b, "  %-30s %4d %5.1f%% | 39 45.3%%\n", "Consistent Error Return Code", t.Consistent, pct(t.Consistent))
	fmt.Fprintf(&b, "  %-30s %4d %5.1f%% |  2  2.3%%\n", "Inconsistent Error Return Code", t.Inconsistent, pct(t.Inconsistent))
	fmt.Fprintf(&b, "  %-30s %4d %5.1f%% | 37 43.0%%\n", "No Error Return Code Found", t.NotFound, pct(t.NotFound))
	fmt.Fprintf(&b, "  inconsistent functions: %s (paper: fdopen, freopen)\n",
		strings.Join(c.InconsistentNames(), ", "))
	fmt.Fprintf(&b, "  unsafe functions: %d of %d\n", c.UnsafeCount(), t.Total())
	return b.String()
}

// Stats renders the observability report of a campaign: the per-phase
// profile first (when root spans were recorded), then the latency
// quantiles of every populated histogram, then every registered
// counter, gauge, and histogram in exposition format. roots are the
// trace's root KindSpan events (Parent == 0) in completion order: each
// top-level phase of the run is one root span.
func Stats(reg *obs.Registry, roots []obs.Event) string {
	var b strings.Builder
	if len(roots) > 0 {
		b.WriteString(profile(roots))
		b.WriteByte('\n')
	}
	if reg != nil {
		if q := Quantiles(reg); q != "" {
			b.WriteString(q)
			b.WriteByte('\n')
		}
		b.WriteString("Metrics\n")
		exp := reg.Exposition()
		if exp == "" {
			b.WriteString("  (no metrics registered)\n")
		} else {
			b.WriteString(exp)
		}
	}
	return b.String()
}

// profile renders the campaign profile from root spans: per-phase
// duration, share of the total, and throughput where the phase
// reported an item count (Event.N).
func profile(roots []obs.Event) string {
	var total time.Duration
	for _, e := range roots {
		total += time.Duration(e.DurUS) * time.Microsecond
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Campaign profile — %d phases, total %s\n", len(roots), total.Round(time.Millisecond))
	for _, e := range roots {
		dur := time.Duration(e.DurUS) * time.Microsecond
		pct := 0.0
		if total > 0 {
			pct = 100 * float64(dur) / float64(total)
		}
		fmt.Fprintf(&b, "  %-18s %10s %5.1f%%", e.Phase, dur.Round(time.Millisecond), pct)
		if e.N > 0 {
			rate := 0.0
			if dur > 0 {
				rate = float64(e.N) / dur.Seconds()
			}
			fmt.Fprintf(&b, "  (%d items, %.0f/s)", e.N, rate)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Quantiles renders p50/p95/p99 for every populated histogram, with the
// exemplar trace ID of the last observation when one was recorded — the
// bridge from an aggregate ("p99 fork is 210µs") to one concrete trace
// that can be pulled up in a viewer. Empty when no histogram has data.
func Quantiles(reg *obs.Registry) string {
	snap := reg.Snapshot()
	if len(snap.Histograms) == 0 {
		return ""
	}
	names := make([]string, 0, len(snap.Histograms))
	for name, h := range snap.Histograms {
		if h.Count > 0 {
			names = append(names, name)
		}
	}
	if len(names) == 0 {
		return ""
	}
	sort.Strings(names)
	var b strings.Builder
	b.WriteString("Latency quantiles (bucket-interpolated)\n")
	for _, name := range names {
		h := snap.Histograms[name]
		fmt.Fprintf(&b, "  %-28s n=%-6d p50=%-8d p95=%-8d p99=%-8d",
			name, h.Count, h.P50, h.P95, h.P99)
		if h.Exemplar != nil {
			fmt.Fprintf(&b, " exemplar=%d@trace %016x", h.Exemplar.Value, h.Exemplar.Trace)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Declarations renders every unsafe declaration's robust types on one
// line each, sorted.
func Declarations(c *injector.Campaign) string {
	var b strings.Builder
	for _, name := range c.Order {
		r := c.Results[name]
		d := r.Decl
		var args []string
		for _, a := range d.Args {
			args = append(args, a.Robust.String())
		}
		fmt.Fprintf(&b, "%-14s %-6s (%s) errno-class=%s\n",
			name, d.Attribute, strings.Join(args, ", "), d.ErrClass)
	}
	return b.String()
}
