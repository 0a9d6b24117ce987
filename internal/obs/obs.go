// Package obs is the zero-dependency observability substrate of the
// HEALERS reproduction: a structured event tracer with pluggable sinks
// and an atomic metrics registry (counters, gauges, fixed-bucket
// histograms). Phase timing is not a separate mechanism: every timed
// phase is a KindSpan event of the causal trace (trace.go), and the
// campaign profile is read back from the root spans.
//
// The paper's deliverables (Table 1, Figure 6, Table 2) are aggregate
// observations over millions of sandboxed calls; obs is the layer that
// carries those observations out of the hot paths. Everything here is
// designed so that a disabled tracer (nil, or without sinks) and a nil
// registry add no allocations to the instrumented code: events are
// plain value structs built only behind Tracer.Enabled() guards, and
// counters obtained from a nil registry still work, they are simply
// detached from any exposition. Code that builds instruments per
// short-lived object (the wrapper attaches one interposer per Ballista
// test) can skip even that: a nil *Counter or *Histogram is disabled.
package obs

import (
	"fmt"
	"sync"
)

// Kind identifies the type of a trace event.
type Kind uint8

// Event kinds, one per instrumentation point in the Fig. 1 pipeline.
const (
	// KindInjectionProbe is one fault-injection experiment about to run:
	// the function, the argument under exploration, and the probe vector.
	KindInjectionProbe Kind = iota + 1
	// KindArgAdjust is one step of the §4.1 adaptive loop: a fault was
	// attributed to an argument's generator and its test case grew.
	KindArgAdjust
	// KindSandboxOutcome is the result of one sandboxed call: return
	// value with errno, segfault with faulting address, hang, or abort.
	KindSandboxOutcome
	// KindCheckViolation is a wrapper rejection: function, argument,
	// violated robust type, errno delivered, and the policy applied.
	KindCheckViolation
	// KindWrapperCall is one call that traversed the wrapper (checked
	// or passthru); rejected calls emit KindCheckViolation instead.
	KindWrapperCall
	// KindCampaignPhase is campaign progress: phase name plus an
	// n-of-total position (per-function injection, suite progress).
	KindCampaignPhase
	// KindTestOutcome is one Ballista test's classified bucket under
	// one configuration.
	KindTestOutcome
	// KindStaticSeed summarizes how static pre-inference seeds fared on
	// one function's campaign: chains jumped, minimality confirms,
	// mispredictions that fell back to cold growth.
	KindStaticSeed
	// KindSpan is one completed timed phase of the causal tree: the
	// campaign root, a scheduler worker, a per-function injection, or
	// an HTTP-origin span. Phase names it, TS/DurUS time it, and
	// Trace/Span/Parent place it in the tree.
	KindSpan
	// KindHealAction is one argument repair (ModeHeal) or
	// allocation-table rescue (ModeIntrospect) performed by the
	// wrapper: Func/Arg locate it, Probe carries the robust type, and
	// Detail the action applied ("truncate", "substitute-fd",
	// "introspect-rescue", ...).
	KindHealAction
)

var kindNames = [...]string{
	KindInjectionProbe: "injection-probe",
	KindArgAdjust:      "arg-adjust",
	KindSandboxOutcome: "sandbox-outcome",
	KindCheckViolation: "check-violation",
	KindWrapperCall:    "wrapper-call",
	KindCampaignPhase:  "campaign-phase",
	KindTestOutcome:    "test-outcome",
	KindStaticSeed:     "static-seed",
	KindSpan:           "span",
	KindHealAction:     "heal-action",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// MarshalText renders the kind as its stable string name, so JSONL
// traces are self-describing rather than carrying raw enum numbers.
func (k Kind) MarshalText() ([]byte, error) {
	if int(k) >= len(kindNames) || kindNames[k] == "" {
		return nil, fmt.Errorf("obs: unknown event kind %d", uint8(k))
	}
	return []byte(kindNames[k]), nil
}

// UnmarshalText parses a kind name emitted by MarshalText.
func (k *Kind) UnmarshalText(text []byte) error {
	for i, name := range kindNames {
		if name == string(text) {
			*k = Kind(i)
			return nil
		}
	}
	return fmt.Errorf("obs: unknown event kind %q", text)
}

// Event is one structured trace record. It is a flat value struct —
// built on the stack, fanned out by value — so emitting with a
// disabled tracer allocates nothing. Fields are scoped by Kind; unused
// fields stay zero and are omitted from the JSONL encoding.
type Event struct {
	// Seq is the tracer-assigned monotonic sequence number.
	Seq  uint64 `json:"seq"`
	Kind Kind   `json:"kind"`
	// Func is the library function the event concerns.
	Func string `json:"func,omitempty"`
	// Config is the evaluation configuration (unwrapped, full-auto...).
	Config string `json:"config,omitempty"`
	// Phase names the campaign phase for KindCampaignPhase.
	Phase string `json:"phase,omitempty"`
	// Arg is the argument index for argument-scoped kinds.
	Arg int `json:"arg,omitempty"`
	// Probe is the test-case label: the fundamental-type vector of an
	// experiment, the old fund of an adjustment, or the violated robust
	// type of a rejection.
	Probe string `json:"probe,omitempty"`
	// Outcome classifies what happened (return/segfault/hang/abort for
	// sandbox outcomes, errno-set/silent/crash for test outcomes,
	// checked/passthru for wrapper calls).
	Outcome string `json:"outcome,omitempty"`
	// Ret is the raw return value of a returning sandboxed call.
	Ret uint64 `json:"ret,omitempty"`
	// Addr is the faulting address of a segfault or adjustment.
	Addr uint64 `json:"addr,omitempty"`
	// Errno is the numeric errno delivered with the event.
	Errno int `json:"errno,omitempty"`
	// Err is the symbolic errno name (EINVAL, EBADF, ...).
	Err string `json:"err,omitempty"`
	// Policy is the violation policy applied (return-error or abort).
	Policy string `json:"policy,omitempty"`
	// Detail carries free text: a rejection reason, or the new fund of
	// an adjustment.
	Detail string `json:"detail,omitempty"`
	// Steps is the simulated work the call consumed.
	Steps int `json:"steps,omitempty"`
	// N of Total is campaign progress for KindCampaignPhase.
	N     int `json:"n,omitempty"`
	Total int `json:"total,omitempty"`
	// Trace, Span, and Parent place the event in its campaign's causal
	// tree (trace.go). Zero means the emitter was not span-scoped.
	Trace  uint64 `json:"trace,omitempty"`
	Span   uint64 `json:"span,omitempty"`
	Parent uint64 `json:"parent,omitempty"`
	// TS is the event's wall-clock time in Unix microseconds and DurUS
	// its duration, for timed events (KindSpan, sandbox outcomes). The
	// microsecond unit is the Chrome trace-event convention.
	TS    int64 `json:"ts,omitempty"`
	DurUS int64 `json:"dur_us,omitempty"`
}

// String renders the event as one human-readable line (the TextSink
// format, also what `healers -v` prints).
func (e Event) String() string {
	switch e.Kind {
	case KindInjectionProbe:
		return fmt.Sprintf("#%d probe %s(%s) [arg %d]", e.Seq, e.Func, e.Probe, e.Arg)
	case KindArgAdjust:
		return fmt.Sprintf("#%d adjust %s arg%d: %s -> %s (fault at %#x)",
			e.Seq, e.Func, e.Arg, e.Probe, e.Detail, e.Addr)
	case KindSandboxOutcome:
		switch e.Outcome {
		case "return":
			return fmt.Sprintf("#%d %s(%s) -> return %#x (errno %s) [%d steps]",
				e.Seq, e.Func, e.Probe, e.Ret, e.Err, e.Steps)
		case "segfault":
			return fmt.Sprintf("#%d %s(%s) -> SIGSEGV at %#x [%d steps]",
				e.Seq, e.Func, e.Probe, e.Addr, e.Steps)
		default:
			return fmt.Sprintf("#%d %s(%s) -> %s [%d steps]",
				e.Seq, e.Func, e.Probe, e.Outcome, e.Steps)
		}
	case KindCheckViolation:
		return fmt.Sprintf("#%d violation %s arg%d: %s: %s -> %s (%s)",
			e.Seq, e.Func, e.Arg, e.Probe, e.Detail, e.Err, e.Policy)
	case KindWrapperCall:
		return fmt.Sprintf("#%d call %s [%s]", e.Seq, e.Func, e.Outcome)
	case KindCampaignPhase:
		if e.Func != "" {
			return fmt.Sprintf("#%d phase %s [%d/%d] %s", e.Seq, e.Phase, e.N, e.Total, e.Func)
		}
		return fmt.Sprintf("#%d phase %s [%d/%d]", e.Seq, e.Phase, e.N, e.Total)
	case KindTestOutcome:
		return fmt.Sprintf("#%d [%s] %s(%s) -> %s", e.Seq, e.Config, e.Func, e.Probe, e.Outcome)
	case KindStaticSeed:
		return fmt.Sprintf("#%d seed %s: %s", e.Seq, e.Func, e.Detail)
	case KindSpan:
		return fmt.Sprintf("#%d span %s [%dus] trace=%x span=%x parent=%x",
			e.Seq, e.Phase, e.DurUS, e.Trace, e.Span, e.Parent)
	case KindHealAction:
		return fmt.Sprintf("#%d heal %s arg%d (%s): %s", e.Seq, e.Func, e.Arg, e.Probe, e.Detail)
	}
	return fmt.Sprintf("#%d %s", e.Seq, e.Kind)
}

// Sink consumes tracer events. Sinks are invoked in attachment order
// under the tracer's lock, so a sink sees events in sequence order and
// need not be internally synchronized against other emitters.
type Sink interface {
	Emit(e Event)
}

// FuncSink adapts a plain function to the Sink interface.
type FuncSink func(Event)

// Emit implements Sink.
func (f FuncSink) Emit(e Event) { f(e) }

// Tracer assigns sequence numbers and fans events out to its sinks.
// Emit is safe for concurrent use. A tracer with no sinks is disabled:
// Emit returns immediately and allocates nothing, so instrumented hot
// paths pay only a nil/len check when tracing is off.
type Tracer struct {
	mu    sync.Mutex
	seq   uint64
	sinks []Sink
}

// New returns a tracer fanning out to sinks; the sink set is fixed for
// the tracer's lifetime. With no sinks the tracer is disabled, and so
// is a nil *Tracer, so instrumented code holds either unconditionally.
func New(sinks ...Sink) *Tracer { return &Tracer{sinks: sinks} }

// Enabled reports whether any sink is attached. Hot paths use it to
// skip building event payloads entirely.
func (t *Tracer) Enabled() bool { return t != nil && len(t.sinks) > 0 }

// Emit assigns the next sequence number and delivers e to every sink
// in attachment order. Disabled tracers (nil or no sinks) return
// immediately.
func (t *Tracer) Emit(e Event) {
	if !t.Enabled() {
		return
	}
	t.mu.Lock()
	t.seq++
	e.Seq = t.seq
	for _, s := range t.sinks {
		s.Emit(e)
	}
	t.mu.Unlock()
}

// Seq returns the number of events emitted so far.
func (t *Tracer) Seq() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.seq
}
