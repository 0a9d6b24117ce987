// Package wrapper implements the robustness wrapper of paper §5: a
// layer that interposes between an application and the C library,
// checks every argument of an unsafe function against its declared
// robust type before the call, and returns the function's error code
// with errno set instead of letting the library crash.
//
// Memory validation follows §5.1's three-tier strategy: a stateful
// allocation table (maintained by intercepting malloc/free and friends)
// gives exact bounds — including overflows that stay inside a mapped
// page; stack buffers are bounded by their frame (the Libsafe check);
// anything else falls back to stateless page probing. FILE pointers are
// validated through fileno+fstat (§5.2); DIR pointers can only be
// validated with the stateful table enabled by the semi-automatic
// declarations' executable assertions.
package wrapper

import (
	"fmt"
	"sync"

	"healers/internal/clib"
	"healers/internal/cmem"
	"healers/internal/csim"
	"healers/internal/decl"
	"healers/internal/obs"
)

// Policy selects what a wrapper does when it detects a violation.
type Policy uint8

// Violation policies (paper §2: a debugging wrapper may abort, a
// deployed wrapper returns an error and logs).
const (
	PolicyReturnError Policy = iota + 1
	PolicyAbort
)

// Options configure an interposer.
type Options struct {
	Policy Policy
	// Stateless disables the allocation/DIR tables, leaving only page
	// probing and stack bounds (the ablation the paper discusses
	// against [2]'s signal-handler approach).
	Stateless bool
	// Only restricts checking to the named functions when non-nil —
	// §2's "a system developer could decide which functions should be
	// wrapped". Everything else passes through (state interception for
	// malloc/opendir still runs).
	Only map[string]bool
	// Obs, when non-nil, receives structured wrapper events: one
	// WrapperCall per checked or forwarded call and one CheckViolation
	// per rejection. The CheckViolation stream, carrying the errno
	// delivered and the policy applied, is the deployed wrapper's
	// violation log ("log invalid inputs" in §2's life-cycle
	// discussion); an obs.TextSink renders it one line per rejection.
	// A nil (or sink-less) tracer costs nothing on the call path.
	Obs *obs.Tracer
	// Metrics, when non-nil, makes each event counter Stats reads feed
	// its registry family, and registers the heal counters and the
	// per-call check-work histogram.
	Metrics *obs.Registry
	// CacheChecks enables the pointer-validity cache of DeVale &
	// Koopman [3] that §7 cites as the route to lower overhead: a
	// region validated once stays trusted until the allocation state
	// changes (free/realloc/fclose/closedir invalidate it).
	CacheChecks bool
	// Mode selects the response strategy for failed checks: reject
	// (default), heal, or introspect.
	Mode Mode
}

// DefaultOptions returns the deployed-wrapper configuration.
func DefaultOptions() Options {
	return Options{Policy: PolicyReturnError}
}

// maxStrlen bounds string walks during checking.
const maxStrlen = 1 << 20

// Mode selects the wrapper's response strategy when a check fails. The
// zero value is the paper's wrapper; the other two are the stronger
// strategies of the related work (Rigger et al.): failure-oblivious
// healing and allocation-table introspection.
type Mode uint8

// Wrapper strategies.
const (
	// ModeReject returns the function's error code with errno set, as
	// in the paper (§5). No argument is modified.
	ModeReject Mode = iota
	// ModeHeal repairs the failing argument in place — truncate an
	// unterminated string at its actual bound, substitute a valid
	// descriptor or FILE, redirect a wild pointer to a sink page — and
	// forwards the repaired call, counting it as Healed. A failing
	// argument no repair can fix falls back to rejection, so healing
	// never weakens the wrapper's crash protection.
	ModeHeal
	// ModeIntrospect overrides an array-bound rejection when the live
	// allocation table proves the pointer targets allocated memory: the
	// actual allocation extent replaces the inferred worst-case robust
	// type, eliminating false rejections of legal-but-smaller buffers
	// (counted as FalseRejectAvoided). Everything else keeps its
	// Reject-mode verdict, so Introspect rejections are a subset of
	// Reject rejections by construction.
	ModeIntrospect
)

func (m Mode) String() string {
	switch m {
	case ModeReject:
		return "reject"
	case ModeHeal:
		return "heal"
	case ModeIntrospect:
		return "introspect"
	}
	return fmt.Sprintf("Mode(%d)", uint8(m))
}

// ParseMode inverts Mode.String for command-line flags.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "", "reject":
		return ModeReject, nil
	case "heal":
		return ModeHeal, nil
	case "introspect":
		return ModeIntrospect, nil
	}
	return 0, fmt.Errorf("wrapper: unknown mode %q (want reject, heal, or introspect)", s)
}

// Stats is a race-free snapshot of wrapper activity, taken by
// Interposer.Stats from the interposer's event counters.
type Stats struct {
	Calls     int // calls that entered the wrapper
	Checked   int // calls that went through argument checking
	Rejected  int // calls rejected by a check or assertion
	Passthru  int // calls forwarded without checks (safe or undeclared)
	Reentrant int // calls short-circuited by the recursion flag
	ChecksRun int // individual argument checks performed
	// Healed counts calls forwarded after at least one successful
	// ModeHeal repair; FalseRejectAvoided counts check failures
	// overridden by ModeIntrospect's allocation-table proof.
	Healed             int
	FalseRejectAvoided int
	Violations         []Violation
	Heals              []Heal
	Introspections     []Introspection
}

// Violation records one rejected call for later failure diagnosis
// (§5's "log this error").
type Violation struct {
	Func   string
	Arg    int
	Robust string
	Reason string
}

// violation is a Violation as the call path records it: a reference
// to the (immutable) declaration instead of the robust type's text, so
// a rejection nobody reads formats nothing and its record stays small.
type violation struct {
	d      *decl.FuncDecl
	arg    int
	reason string
}

func (v violation) render() Violation {
	rt := v.d.Args[v.arg].Robust
	return Violation{Func: v.d.Name, Arg: v.arg, Robust: rt.String(), Reason: describe(v.reason, rt)}
}

// Check-failure reasons that quote the argument's robust type. checkArg
// returns these markers and describe renders them, so a failure that a
// heal or introspect rescue then overrides never formats the type.
const (
	reasonInaccessible = "memory not accessible for <robust type>"
	reasonUnbounded    = "region neither terminated nor <size> bytes readable"
)

// describe renders a checkArg reason for argument type rt.
func describe(reason string, rt decl.RobustType) string {
	switch reason {
	case reasonInaccessible:
		return "memory not accessible for " + rt.String()
	case reasonUnbounded:
		return "region neither terminated nor " + rt.Size.String() + " bytes readable"
	}
	return reason
}

// renderAll renders recorded entries for a Stats snapshot (nil when
// there are none, like an empty append).
func renderAll[R any, T interface{ render() R }](recs []T) []R {
	if len(recs) == 0 {
		return nil
	}
	out := make([]R, len(recs))
	for i, r := range recs {
		out[i] = r.render()
	}
	return out
}

// Interposer wraps library calls for one simulated process. It is the
// in-memory equivalent of the generated wrapper shared object after
// the dynamic linker resolved the application's symbols against it.
type Interposer struct {
	p     *csim.Process
	lib   *clib.Library
	decls *decl.DeclSet
	opts  Options
	// maxStrlen is the string-walk bound, the constant maxStrlen except
	// in tests that place it mid-page.
	maxStrlen int

	inFlag bool // Figure 5's recursion detection flag

	// Stateful tables (§5.1, §5.2), created on first use: most
	// interposers attached for one Ballista test never track anything.
	heap map[cmem.Addr]int // base -> size, from intercepted allocators
	dirs map[cmem.Addr]bool

	// statBuf is the scratch struct stat the FILE validation hands to
	// fstat, allocated once per interposer.
	statBuf cmem.Addr

	// checkCache memoizes successful memory validations (CacheChecks);
	// keyed by base address, holding the largest validated extent.
	checkCache map[cmem.Addr]cacheEntry
	// fileCache memoizes FILE validations (fileno+fstat round trips).
	fileCache map[fileCacheKey]bool

	// One atomic counter per wrapper event, read by Stats (also while
	// calls are in flight) and linked to its family by register.
	calls        obs.Counter
	checked      obs.Counter
	rejected     obs.Counter
	passthru     obs.Counter
	reentrant    obs.Counter
	checksRun    obs.Counter
	healed       obs.Counter
	falseRejects obs.Counter
	// vmu guards the violation, heal, and introspection logs so Stats
	// can copy them while another goroutine is rejecting or repairing
	// calls. The matching counters are updated inside the same critical
	// section, so a snapshot always sees counter == len(slice).
	vmu            sync.Mutex
	violations     []violation
	heals          []healRecord
	introspections []introspection

	// ModeHeal repair state: the sink region wild pointers are
	// redirected to (sinkChunk), the substituted FILE/fd/callback
	// resources, and the per-call healed flag (see heal.go).
	sinkBase   cmem.Addr
	sinkCursor int
	sinkFILE   cmem.Addr
	sinkFD     int
	sinkFDSet  bool
	healCB     cmem.Addr
	healedThis bool

	// work accumulates the simulated cost of the current call's checks
	// (bytes walked, pages probed, table lookups) — the check-latency
	// measure hCheckWork observes per checked call.
	work int

	// argScratch holds call arguments while they traverse the wrapper.
	// Call copies its variadic slice here and threads the copy through
	// checking and the library call, so the caller-site slice never
	// escapes to the heap — the nop path runs at zero allocations.
	// One slot per nesting level: the wrapper re-enters itself when
	// FILE validation calls fileno. Calls deeper or wider than the
	// scratch fall back to an allocated copy.
	argScratch [4][8]uint64
	argDepth   int
	// view is the size-expression view evalSize hands out.
	view argsView

	// libArgs holds the arguments of the library calls the checks make
	// themselves (fileno, fstat), so they allocate no variadic slice.
	libArgs [2]uint64

	tr *obs.Tracer
	// Registry-only instruments; nil (disabled) without Options.Metrics.
	mHealRepairs      *obs.Counter
	mHealFixpointFail *obs.Counter
	hCheckWork        *obs.Histogram
}

// checkWorkBuckets bound the per-call check-work histogram: table hits
// cost a few units, page probes tens, long string walks thousands.
var checkWorkBuckets = []int64{1, 4, 16, 64, 256, 1024, 4096, 16384}

// Attach builds an interposer for process p.
func Attach(p *csim.Process, lib *clib.Library, decls *decl.DeclSet, opts Options) *Interposer {
	if opts.Policy == 0 {
		opts.Policy = PolicyReturnError
	}
	ip := interposers.Get()
	if ip == nil {
		ip = new(Interposer)
	}
	*ip = Interposer{
		p:         p,
		lib:       lib,
		decls:     decls,
		opts:      opts,
		maxStrlen: maxStrlen,
	}
	if opts.CacheChecks {
		ip.checkCache = make(map[cmem.Addr]cacheEntry)
		ip.fileCache = make(map[fileCacheKey]bool)
	}
	ip.tr = opts.Obs // a nil tracer is the disabled one
	if reg := opts.Metrics; reg != nil {
		ip.register(reg)
	}
	return ip
}

// interposers parks released interposers for the next Attach.
var interposers cmem.FreeList[Interposer]

// Release zeroes the interposer and parks it for reuse: the next Attach
// may hand this very struct out again, so neither it nor anything its
// Stats do not copy may be used afterwards. A caller that attaches one
// interposer per test (Ballista) releases it once the test is
// classified. Releasing it again does nothing.
func (ip *Interposer) Release() {
	if ip.p == nil {
		return // already released
	}
	*ip = Interposer{}
	interposers.Put(ip)
}

// register links the event counters to their families in reg and
// binds the registry-only instruments.
func (ip *Interposer) register(reg *obs.Registry) {
	ip.calls.SetParent(reg.Counter("healers_wrapper_calls_total"))
	ip.checked.SetParent(reg.Counter("healers_wrapper_checked_total"))
	ip.rejected.SetParent(reg.Counter("healers_wrapper_rejected_total"))
	ip.passthru.SetParent(reg.Counter("healers_wrapper_passthru_total"))
	ip.reentrant.SetParent(reg.Counter("healers_wrapper_reentrant_total"))
	ip.checksRun.SetParent(reg.Counter("healers_wrapper_checks_run_total"))
	ip.healed.SetParent(reg.Counter("healers_wrapper_healed_total"))
	ip.falseRejects.SetParent(reg.Counter("healers_wrapper_false_reject_avoided_total"))
	ip.mHealRepairs = reg.Counter("healers_wrapper_heal_repairs_total")
	ip.mHealFixpointFail = reg.Counter("healers_wrapper_heal_fixpoint_failures_total")
	ip.hCheckWork = reg.Histogram("healers_wrapper_check_work", checkWorkBuckets)
}

// fileCacheKey identifies one FILE validation (the access-mode variant
// matters: R_FILE and W_FILE check different flag bits).
type fileCacheKey struct {
	addr cmem.Addr
	kind decl.Kind
}

// Stats returns a snapshot of the wrapper counters. Every counter is
// loaded atomically and the violation list is copied under its lock,
// so the snapshot is safe to take while other goroutines drive calls.
func (ip *Interposer) Stats() Stats {
	// The rejected counter and the violation log are updated together
	// under vmu, so loading both inside the lock yields an exactly
	// consistent pair (Rejected == len(Violations) at snapshot time);
	// likewise the introspection counter and its record slice. Heals
	// are per-repair records while Healed counts forwarded calls, so
	// those two are not expected to be equal.
	ip.vmu.Lock()
	violations := renderAll[Violation](ip.violations)
	heals := renderAll[Heal](ip.heals)
	introspections := renderAll[Introspection](ip.introspections)
	rejected := ip.rejected.Value()
	falseRejects := ip.falseRejects.Value()
	ip.vmu.Unlock()
	// A call bumps calls before checked, so loading checked first keeps
	// Checked <= Calls in every snapshot taken mid-call.
	checked := ip.checked.Value()
	return Stats{
		Calls:              int(ip.calls.Value()),
		Checked:            int(checked),
		Rejected:           int(rejected),
		Passthru:           int(ip.passthru.Value()),
		Reentrant:          int(ip.reentrant.Value()),
		ChecksRun:          int(ip.checksRun.Value()),
		Healed:             int(ip.healed.Value()),
		FalseRejectAvoided: int(falseRejects),
		Violations:         violations,
		Heals:              heals,
		Introspections:     introspections,
	}
}

// StrategyCounts returns the live rejected and healed call counters.
// Differential strategy runs snapshot them around a call to classify
// its outcome (reject / heal / pass) without a full Stats copy.
func (ip *Interposer) StrategyCounts() (rejected, healed int64) {
	return ip.rejected.Value(), ip.healed.Value()
}

// HeapTableSize returns the number of tracked live allocations.
func (ip *Interposer) HeapTableSize() int { return len(ip.heap) }

// holdArgs copies args into the interposer's scratch storage for the
// current nesting level and returns the held view. The copy is what the
// rest of the call path (checks, the library call, postfix) operates
// on; the variadic parameter itself is only read here, which keeps it
// non-escaping — and the caller's argument slice on its stack.
func (ip *Interposer) holdArgs(args []uint64) []uint64 {
	if ip.argDepth < len(ip.argScratch) && len(args) <= len(ip.argScratch[0]) {
		held := ip.argScratch[ip.argDepth][:len(args):len(args)]
		copy(held, args)
		return held
	}
	return append([]uint64(nil), args...)
}

// Call invokes name through the wrapper: prefix checks, original call,
// postfix state upkeep (the structure of Figure 5).
func (ip *Interposer) Call(p *csim.Process, name string, args ...uint64) uint64 {
	held := ip.holdArgs(args)
	ip.argDepth++
	defer func() { ip.argDepth-- }()

	ip.calls.Inc()
	fn := ip.lib.MustLookup(name)

	// Recursion guard: when the wrapper itself calls the library
	// (fileno during FILE validation), the inner call must bypass
	// checking or the resolution could recurse forever.
	if ip.inFlag {
		ip.reentrant.Inc()
		return fn.Impl(p, held)
	}
	ip.inFlag = true
	defer func() { ip.inFlag = false }()

	d, declared := ip.decls.Get(name)
	if ip.opts.Only != nil && !ip.opts.Only[name] {
		declared = false
	}
	if !declared || !d.Unsafe() {
		ip.passthru.Inc()
		if ip.tr.Enabled() {
			ip.tr.Emit(obs.Event{Kind: obs.KindWrapperCall, Func: name, Outcome: "passthru"})
		}
		ret := fn.Impl(p, held)
		ip.postfix(name, held, ret)
		return ret
	}

	ip.checked.Inc()
	ip.work = 0
	if ip.opts.Mode == ModeHeal {
		ip.healedThis = false
		ip.sinkCursor = 0
	}
	ok, ai, reason := ip.check(d, held, true)
	ip.hCheckWork.Observe(int64(ip.work))
	if !ok {
		return ip.reject(d, ai, reason)
	}
	if ip.healedThis {
		ip.healed.Inc()
	}
	if ip.tr.Enabled() {
		ip.tr.Emit(obs.Event{Kind: obs.KindWrapperCall, Func: name, Outcome: "checked", Steps: ip.work})
	}

	ret := fn.Impl(p, held)
	ip.postfix(name, held, ret)
	return ret
}

// CheckOnly runs name's argument checks and assertions over args under
// Reject semantics — no rescue strategy, no function call, no
// violation recording — and reports the first failure. The metamorphic
// heal tests use it to prove repaired argument vectors are fixpoints:
// what a repair produced must pass the unmodified checks cleanly.
func (ip *Interposer) CheckOnly(name string, args ...uint64) (bool, string) {
	d, declared := ip.decls.Get(name)
	if !declared || !d.Unsafe() {
		return true, ""
	}
	held := append([]uint64(nil), args...)
	if ok, i, reason := ip.check(d, held, false); !ok {
		return false, fmt.Sprintf("arg%d: %s", i, describe(reason, d.Args[i].Robust))
	}
	return true, ""
}

// check runs d's argument checks, then its assertions, over args and
// reports the first failure: its argument and reason. With rescue, a
// failed check is where the strategies diverge: Introspect may prove
// the access backed by a live allocation, Heal may repair it; without,
// every verdict is Reject's.
func (ip *Interposer) check(d *decl.FuncDecl, args []uint64, rescue bool) (bool, int, string) {
	for i, arg := range d.Args {
		if i >= len(args) {
			break
		}
		ok, reason := ip.checkArg(arg, args, i)
		if !ok && rescue {
			switch ip.opts.Mode {
			case ModeIntrospect:
				ok = ip.introspectArg(d, i, arg, args)
			case ModeHeal:
				ok = ip.healArg(d, i, arg, args)
			}
		}
		if !ok {
			return false, i, reason
		}
	}
	for _, assertion := range d.Assertions {
		ok, ai, reason := ip.checkAssertion(assertion, d, args)
		if !ok && rescue && ip.opts.Mode == ModeHeal {
			ok, ai, reason = ip.healAssertion(assertion, d, ai, args)
		}
		if !ok {
			return false, ai, reason
		}
	}
	return true, 0, ""
}

// reject implements the violation policy.
func (ip *Interposer) reject(d *decl.FuncDecl, argIdx int, reason string) uint64 {
	rec := violation{d: d, arg: argIdx, reason: reason}
	ip.vmu.Lock()
	ip.rejected.Inc()
	ip.violations = append(ip.violations, rec)
	ip.vmu.Unlock()
	if ip.tr.Enabled() {
		v := rec.render()
		policy := "return-error"
		if ip.opts.Policy == PolicyAbort {
			policy = "abort"
		}
		ip.tr.Emit(obs.Event{
			Kind:   obs.KindCheckViolation,
			Func:   v.Func,
			Arg:    v.Arg,
			Probe:  v.Robust,
			Detail: v.Reason,
			Errno:  d.ErrnoOnReject,
			Err:    csim.ErrnoName(d.ErrnoOnReject),
			Policy: policy,
		})
	}
	if ip.opts.Policy == PolicyAbort {
		ip.p.Abort()
	}
	ip.p.SetErrno(d.ErrnoOnReject)
	if d.HasErrorValue {
		return d.ErrorValue
	}
	return 0
}

// postfix maintains the stateful tables after successful calls (§5.1:
// "the wrapper intercepts the call and records the address and size of
// the allocated block in an internal table"; §5.2 for DIR tracking).
func (ip *Interposer) postfix(name string, args []uint64, ret uint64) {
	if ip.opts.Stateless {
		return
	}
	switch name {
	case "free", "realloc", "fclose", "closedir", "freopen", "close":
		// Allocation or descriptor state changed: the caches are stale.
		if ip.checkCache != nil {
			clear(ip.checkCache)
			clear(ip.fileCache)
		}
	}
	switch name {
	case "malloc":
		if ret != 0 {
			ip.trackAlloc(cmem.Addr(ret), int(int64(args[0])))
		}
	case "calloc":
		if ret != 0 {
			ip.trackAlloc(cmem.Addr(ret), int(int64(args[0])*int64(args[1])))
		}
	case "realloc":
		if ret != 0 {
			delete(ip.heap, cmem.Addr(args[0]))
			ip.trackAlloc(cmem.Addr(ret), int(int64(args[1])))
		}
	case "free":
		delete(ip.heap, cmem.Addr(args[0]))
	case "strdup", "getcwd":
		// Functions that hand out heap memory: track conservatively.
		if ret != 0 && ip.p.Mem.IsAllocBase(cmem.Addr(ret)) {
			if info, ok := ip.p.Mem.AllocAt(cmem.Addr(ret)); ok {
				ip.trackAlloc(info.Base, info.Size)
			}
		}
	case "opendir":
		if ret != 0 {
			ip.trackDir(cmem.Addr(ret))
		}
	case "closedir":
		delete(ip.dirs, cmem.Addr(args[0]))
	case "fopen", "fdopen", "freopen":
		// FILE validation is stateless (fileno+fstat); nothing to track.
	}
}

// trackAlloc records a live allocation in the heap table.
func (ip *Interposer) trackAlloc(base cmem.Addr, size int) {
	if ip.heap == nil {
		ip.heap = make(map[cmem.Addr]int)
	}
	ip.heap[base] = size
}

// trackDir records a live DIR stream in the DIR table.
func (ip *Interposer) trackDir(dir cmem.Addr) {
	if ip.dirs == nil {
		ip.dirs = make(map[cmem.Addr]bool)
	}
	ip.dirs[dir] = true
}

// argsView adapts live call arguments to decl.SizeExpr evaluation.
type argsView struct {
	ip   *Interposer
	args []uint64
}

// evalSize evaluates a size expression over the call's arguments. The
// view lives in the interposer, so handing it to decl as an interface
// allocates nothing. Evaluation only reads memory, so it never nests.
func (ip *Interposer) evalSize(e decl.SizeExpr, args []uint64) (int, bool) {
	ip.view = argsView{ip: ip, args: args}
	return e.Eval(&ip.view)
}

func (v argsView) Strlen(i int) (int, bool) {
	if i >= len(v.args) {
		return 0, false
	}
	return v.ip.strlen(cmem.Addr(v.args[i]))
}

func (v argsView) Value(i int) int64 {
	if i >= len(v.args) {
		return 0
	}
	return int64(v.args[i])
}

// checkArg validates one argument against its robust type.
func (ip *Interposer) checkArg(arg decl.ArgDecl, args []uint64, i int) (bool, string) {
	ip.checksRun.Inc()
	rt := arg.Robust
	k := rt.Kind()
	val := args[i]
	addr := cmem.Addr(val)

	if addr == 0 && k.NullReason != "" {
		if k.NullOK {
			return true, ""
		}
		return false, k.NullReason
	}
	switch k.Family {
	case decl.FamilyArray, decl.FamilyBounded:
		size, ok := ip.evalSize(rt.Size, args)
		switch {
		case !ok:
			return false, "size expression unsatisfiable"
		case k.Family == decl.FamilyBounded && !ip.checkBoundedString(addr, size):
			return false, reasonUnbounded
		case k.Family == decl.FamilyArray && !ip.checkMemory(addr, size, k.Read, k.Write):
			return false, reasonInaccessible
		}
	case decl.FamilyCString:
		if !ip.checkCString(addr, k.Write) {
			return false, "invalid C string"
		}
	case decl.FamilyFILE:
		if !ip.checkFILE(addr, k) {
			return false, "invalid FILE pointer"
		}
	case decl.FamilyDIR:
		// §5.2: POSIX defines no checker for DIR*; without the manual
		// executable assertion all the wrapper can verify is that the
		// memory is accessible.
		if !ip.checkMemory(addr, csim.SizeofDIR, k.Read, k.Write) {
			return false, "DIR memory not accessible"
		}
	case decl.FamilyInt:
		if !k.Signs.Allows(int64(val)) {
			return false, k.Signs.Reason()
		}
	case decl.FamilyFD:
		if ip.p.FD(int(int32(uint32(val)))) == nil {
			return false, "bad file descriptor"
		}
	case decl.FamilyFunc:
		if !ip.p.IsCode(addr) {
			return false, "not a function address"
		}
	}
	// The unconstrained family, unknown bases included, fails open.
	return true, ""
}

// checkAssertion runs the executable assertions manual editing added
// (§6), returning the argument index it applies to.
func (ip *Interposer) checkAssertion(a decl.Assertion, d *decl.FuncDecl, args []uint64) (bool, int, string) {
	switch a {
	case decl.AssertValidDir:
		for i, arg := range d.Args {
			if !arg.PointsToDIR() || i >= len(args) {
				continue
			}
			addr := cmem.Addr(args[i])
			if ip.opts.Stateless {
				return true, i, "" // needs the stateful table
			}
			if !ip.dirs[addr] {
				return false, i, "DIR pointer not returned by opendir"
			}
		}
		return true, 0, ""
	case decl.AssertFileIntegrity:
		for i, arg := range d.Args {
			if !arg.PointsToFILE() || i >= len(args) {
				continue
			}
			addr := cmem.Addr(args[i])
			if addr == 0 {
				continue // the robust type check already ruled on NULL
			}
			if !ip.checkFILEIntegrity(addr) {
				return false, i, "corrupted FILE structure"
			}
		}
		return true, 0, ""
	}
	return true, 0, ""
}
