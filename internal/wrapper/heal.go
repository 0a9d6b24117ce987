package wrapper

import (
	"healers/internal/cmem"
	"healers/internal/csim"
	"healers/internal/decl"
	"healers/internal/obs"
)

// ModeHeal: instead of rejecting a call whose argument fails its
// robust-type check, repair the argument and forward the repaired call
// (the context-aware failure-oblivious strategy of Rigger et al.).
//
// Repair invariants, enforced here and relied on by the differential
// strategy tests:
//
//  1. Fixpoint — every repaired argument re-enters the unmodified
//     Reject-mode check before the call is forwarded. A repair that
//     does not satisfy it is discarded and the call is rejected (and
//     counted in healers_wrapper_heal_fixpoint_failures_total, which
//     must stay zero).
//  2. Bounded — a repair may only narrow what the library can touch:
//     truncation plants a NUL inside memory already proven accessible,
//     sink redirection is refused unless every integer argument of the
//     call bounds the worst-case access within the sink region, and
//     substitution hands out resources owned by the interposer.
//  3. Errno-neutral — acquiring repair resources (opening the sink
//     file) must not leak errno state into the call's classification;
//     errno is saved and restored around every repair.
//
// A repair that cannot uphold the invariants returns false and the
// wrapper falls back to Reject-mode behaviour, so ModeHeal never
// crashes a call that ModeReject would have refused.

// Heal records one successful repair performed in ModeHeal.
type Heal struct {
	Func   string
	Arg    int
	Robust string
	// Action names the repair applied: "truncate", "copy-to-sink",
	// "redirect-sink", "substitute-file", "substitute-fd",
	// "substitute-callback", or "clamp-int".
	Action string
}

// healRecord is a Heal as the call path records it: the declaration
// and, for an assertion repair, the assertion, rendered to text only
// when Stats or an enabled tracer asks.
type healRecord struct {
	d         *decl.FuncDecl
	arg       int
	assertion decl.Assertion
	action    string
}

func (h healRecord) render() Heal {
	robust := string(h.assertion)
	if robust == "" {
		robust = h.d.Args[h.arg].Robust.String()
	}
	return Heal{Func: h.d.Name, Arg: h.arg, Robust: robust, Action: h.action}
}

const (
	// sinkCap bounds the per-interposer sink region (16 pages). The
	// region is mapped lazily on the first redirecting repair and lives
	// as long as the interposer; chunks are re-carved from its base on
	// every top-level checked call and zeroed before use, so redirected
	// reads see benign zeros and one call's redirected writes never
	// leak into a later call's redirected reads. Mapping and zeroing
	// cost no page: the region starts as shared zero pages, a chunk is
	// reset to them (cmem.Memory.Zero), and only the pages a call
	// writes become private.
	sinkCap = 16 * cmem.PageSize
	// sinkPath backs substituted FILE streams and file descriptors; it
	// is created in the simulated process's own filesystem on first use.
	sinkPath = "/healers.sink"
)

// healArg attempts to repair argument i after its check failed. On
// success the repaired argument has re-passed the exact Reject-mode
// check and the repair is recorded.
func (ip *Interposer) healArg(d *decl.FuncDecl, i int, arg decl.ArgDecl, args []uint64) bool {
	wasSet, was := ip.p.ErrnoSet(), ip.p.Errno()
	action, ok := ip.repairArg(d, i, arg, args)
	if wasSet {
		ip.p.SetErrno(was)
	} else {
		ip.p.ClearErrno()
	}
	if !ok {
		return false
	}
	// Invariant 1: the repair must be a fixpoint of the original check.
	if ok2, _ := ip.checkArg(arg, args, i); !ok2 {
		ip.mHealFixpointFail.Inc()
		return false
	}
	ip.recordHeal(healRecord{d: d, arg: i, action: action})
	return true
}

// healAssertion attempts to repair the argument a failed executable
// assertion identified, retrying the assertion after each repair (one
// attempt per argument bounds the loop). It returns the assertion's
// final verdict in the same shape checkAssertion does.
func (ip *Interposer) healAssertion(a decl.Assertion, d *decl.FuncDecl, ai int, args []uint64) (bool, int, string) {
	ok, i, reason := false, ai, "unrepairable assertion"
	for attempt := 0; attempt <= len(d.Args); attempt++ {
		// Only the FILE-integrity assertion has a substitutable
		// resource; a corrupt DIR cannot be conjured from opendir state
		// the process never created.
		if a != decl.AssertFileIntegrity || ai >= len(args) {
			return false, ai, "unrepairable assertion"
		}
		wasSet, was := ip.p.ErrnoSet(), ip.p.Errno()
		action, repaired := ip.substituteFILE(args, ai)
		if wasSet {
			ip.p.SetErrno(was)
		} else {
			ip.p.ClearErrno()
		}
		if !repaired {
			return false, ai, "unrepairable assertion"
		}
		ip.recordHeal(healRecord{d: d, arg: ai, assertion: a, action: action})
		ok, i, reason = ip.checkAssertion(a, d, args)
		if ok {
			return true, i, ""
		}
		if i == ai {
			// The substitution did not satisfy the assertion: a broken
			// repair, not a different failing argument.
			ip.mHealFixpointFail.Inc()
			return false, i, reason
		}
		ai = i
	}
	return ok, i, reason
}

// recordHeal appends one repair record under the stats lock and marks
// the in-flight call healed.
func (ip *Interposer) recordHeal(rec healRecord) {
	ip.healedThis = true
	ip.mHealRepairs.Inc()
	ip.vmu.Lock()
	ip.heals = append(ip.heals, rec)
	ip.vmu.Unlock()
	if ip.tr.Enabled() {
		h := rec.render()
		ip.tr.Emit(obs.Event{
			Kind:   obs.KindHealAction,
			Func:   h.Func,
			Arg:    h.Arg,
			Probe:  h.Robust,
			Detail: h.Action,
		})
	}
}

// repairArg repairs the failing argument as its repair family,
// returning the action applied. DIR streams are unrepairable: a DIR
// cannot be conjured from opendir state the process never created.
func (ip *Interposer) repairArg(d *decl.FuncDecl, i int, arg decl.ArgDecl, args []uint64) (string, bool) {
	rt := arg.Robust
	switch arg.RepairFamily() {
	case decl.FamilyArray:
		size, ok := ip.evalSize(rt.Size, args)
		if !ok || size < 0 {
			return "", false
		}
		return ip.redirectToSink(d, args, i, size)
	case decl.FamilyBounded:
		bound, ok := ip.evalSize(rt.Size, args)
		if !ok {
			return "", false
		}
		return ip.healString(args, i, bound, false)
	case decl.FamilyCString:
		return ip.healString(args, i, ip.maxStrlen, rt.Kind().Write)
	case decl.FamilyInt:
		args[i] = uint64(rt.Kind().Signs.Clamp())
		return "clamp-int", true
	case decl.FamilyFILE:
		return ip.substituteFILE(args, i)
	case decl.FamilyFD:
		return ip.substituteFD(args, i)
	case decl.FamilyFunc:
		return ip.substituteCallback(args, i)
	}
	return "", false
}

// redirectToSink replaces args[i] with a zeroed chunk of the sink
// region (invariant 2's "bounded" rule made concrete): the repair is
// refused unless the worst-case extent the library could derive from
// the call's integer arguments — each value and their product — fits
// the sink, so a redirected call can neither run off the sink region
// nor loop past the hang budget on an absurd length.
func (ip *Interposer) redirectToSink(d *decl.FuncDecl, args []uint64, i int, need int) (string, bool) {
	extent := need
	product := 1
	for j, a := range d.Args {
		if j >= len(args) {
			break
		}
		if a.Robust.Kind().Family != decl.FamilyInt {
			continue
		}
		v := int64(args[j])
		if v < 0 || v > sinkCap {
			return "", false
		}
		if v > 0 {
			product *= int(v)
			if product > sinkCap {
				return "", false
			}
		}
		if int(v) > extent {
			extent = int(v)
		}
	}
	if product > extent {
		extent = product
	}
	chunk, ok := ip.sinkChunk(extent)
	if !ok {
		return "", false
	}
	args[i] = uint64(chunk)
	return "redirect-sink", true
}

// healString repairs a failing string argument. The preferred repair
// is in-place truncation at the actual bound — the last byte of the
// accessible extent, capped by the tracked allocation when the string
// lives on the heap (size_right) and by bound — where a NUL is
// planted. When no byte is writable in place (read-only or unmapped
// strings), the accessible prefix is copied into a sink chunk and the
// argument redirected there.
func (ip *Interposer) healString(args []uint64, i int, bound int, writable bool) (string, bool) {
	addr := cmem.Addr(args[i])
	if bound <= 0 || bound > ip.maxStrlen {
		bound = ip.maxStrlen
	}
	if addr != 0 {
		limit := bound
		if !ip.opts.Stateless {
			if base, size, ok := ip.heapLookup(addr); ok {
				if l := int(int64(base) + int64(size) - int64(addr)); l < limit {
					limit = l
				}
			}
		}
		// Accessible extent: contiguous readable (and, for W_CSTR,
		// writable) bytes from addr, never crossing a terminator.
		e, terminated := ip.scan(addr, limit, writable)
		if terminated {
			// Already terminated within the accessible extent: the
			// string needs no byte changed.
			return "truncate", true
		}
		// Plant the NUL at the last accessible byte that is writable
		// (skipping whole read-only pages on the way back).
		k := e - 1
		for k >= 0 {
			a := addr + cmem.Addr(k)
			if prot, mapped := ip.p.Mem.ProtAt(a); mapped && prot&cmem.ProtWrite != 0 {
				break
			}
			k = int(int64(a.PageBase())-int64(addr)) - 1
		}
		if k >= 0 {
			if f := ip.p.Mem.StoreByte(addr+cmem.Addr(k), 0); f == nil {
				return "truncate", true
			}
		}
	}
	// In-place repair impossible: substitute a sink copy of whatever
	// prefix was readable (the empty string when nothing was).
	chunk, ok := ip.sinkChunk(cmem.PageSize)
	if !ok {
		return "", false
	}
	n := 0
	if addr != 0 {
		var buf [cmem.PageSize]byte
		var terminated bool
		n, terminated = ip.scan(addr, cmem.PageSize-1, false)
		ip.p.Mem.ReadInto(addr, buf[:n]) // readable: scan just walked it
		if terminated && n > 0 && addr+cmem.Addr(n) == chunk {
			// The prefix runs up to the chunk, whose zeroed first byte
			// stopped the scan. Copied byte by byte, the copy reads
			// back its own output there and repeats the n-byte prefix
			// up to the chunk's last byte.
			for k := n; k < cmem.PageSize-1; k++ {
				buf[k] = buf[k-n]
			}
			ip.work += cmem.PageSize - 2 - n
			n = cmem.PageSize - 1
		}
		if f := ip.p.Mem.Write(chunk, buf[:n]); f != nil {
			return "", false
		}
	}
	args[i] = uint64(chunk)
	if n > 0 {
		return "copy-to-sink", true
	}
	return "redirect-sink", true
}

// sinkChunk carves a zeroed, page-aligned chunk of at least n bytes
// from the sink region, mapping the region on first use. When the
// region is exhausted within one call, carving wraps to the base — an
// aliasing compromise preferred over refusing the repair.
func (ip *Interposer) sinkChunk(n int) (cmem.Addr, bool) {
	if n < 0 || n > sinkCap {
		return 0, false
	}
	if ip.sinkBase == 0 {
		base, err := ip.p.Mem.MmapRegion(sinkCap, cmem.ProtRW)
		if err != nil {
			return 0, false
		}
		ip.sinkBase = base
	}
	size := (n + cmem.PageSize - 1) &^ (cmem.PageSize - 1)
	if size == 0 {
		size = cmem.PageSize
	}
	if ip.sinkCursor+size > sinkCap {
		ip.sinkCursor = 0
	}
	chunk := ip.sinkBase + cmem.Addr(ip.sinkCursor)
	ip.sinkCursor += size
	ip.p.Mem.Zero(chunk, size)
	return chunk, true
}

// substituteFILE replaces a bad FILE argument with the interposer's
// sink stream: a real FILE opened read+write on the sink scratch file
// through the process, so fileno/fstat validation, the R_FILE/W_FILE
// flag refinement, and the integrity assertion all accept it, and
// redirected stream I/O lands in the sink file.
func (ip *Interposer) substituteFILE(args []uint64, i int) (string, bool) {
	// A healed fclose consumes the cached stream: the sink FILE must be
	// re-validated before reuse, or the fixpoint re-check would fail on
	// a stale pointer.
	if ip.sinkFILE == 0 || !ip.checkFILE(ip.sinkFILE, decl.OpenFILE) {
		fp := ip.p.Fopen(sinkPath, "w+")
		if fp == 0 {
			return "", false
		}
		ip.sinkFILE = fp
	}
	args[i] = uint64(ip.sinkFILE)
	return "substitute-file", true
}

// substituteFD replaces a bad file descriptor with one open read+write
// on the sink scratch file.
func (ip *Interposer) substituteFD(args []uint64, i int) (string, bool) {
	// A healed close consumes the cached descriptor: re-validate before
	// reuse (same staleness hazard as the sink FILE).
	if !ip.sinkFDSet || ip.p.FD(ip.sinkFD) == nil {
		fd := ip.p.OpenFile(sinkPath, csim.ReadWrite, true)
		if fd < 0 {
			return "", false
		}
		ip.sinkFD = fd
		ip.sinkFDSet = true
	}
	args[i] = uint64(uint32(ip.sinkFD))
	return "substitute-fd", true
}

// substituteCallback replaces a bad function pointer with a registered
// no-op returning 0 — for a comparator, "equal", which keeps
// qsort-style callers total and terminating.
func (ip *Interposer) substituteCallback(args []uint64, i int) (string, bool) {
	if ip.healCB == 0 {
		ip.healCB = ip.p.RegisterCallback(func(*csim.Process, []uint64) uint64 { return 0 })
	}
	args[i] = uint64(ip.healCB)
	return "substitute-callback", true
}
