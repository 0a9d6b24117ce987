package wrapper

import (
	"healers/internal/cmem"
	"healers/internal/decl"
	"healers/internal/obs"
)

// ModeIntrospect: when an array argument fails its inferred robust-type
// check, consult the live allocation table before rejecting (the
// introspection strategy of Rigger et al.). The inferred robust types
// carry fixed worst-case extents probed from the training vectors —
// e.g. W_ARRAY[8] for memcpy's destination — so a perfectly legal call
// on a smaller live allocation would be rejected even though the
// library will never touch a byte outside it. If the allocation table
// proves the pointer lies inside a live allocation, the actual extent
// replaces the inferred worst case and the call passes, counted as
// FalseRejectAvoided.
//
// The rescue is deliberately narrow:
//
//   - Arrays only. Strings, FILE/DIR handles, descriptors, integers,
//     callbacks, and executable assertions keep their Reject verdict,
//     so Introspect's rejection set is a subset of Reject's by
//     construction.
//   - Membership only. A pointer outside every live allocation —
//     including NULL, stale frees, and wild addresses — is not rescued,
//     even when the declared extent is zero: the robust type's extent
//     is a lower bound observed under training, not a guarantee the
//     library dereferences nothing.
//   - Stateful only. Without the allocation table (Options.Stateless)
//     there is nothing to introspect and the check verdict stands.

// Introspection records one allocation-table rescue of a check the
// inferred robust type would have failed.
type Introspection struct {
	Func   string
	Arg    int
	Robust string
	// Addr is the argument value; Need the inferred worst-case extent
	// the fixed robust type demanded (-1 when its size expression was
	// unsatisfiable); AllocBase/AllocSize the live allocation that
	// proved the access legal.
	Addr      uint64
	Need      int
	AllocBase uint64
	AllocSize int
}

// introspection is an Introspection as the call path records it, its
// Robust text left empty until render fills it from the declaration.
type introspection struct {
	Introspection
	d *decl.FuncDecl
}

func (r introspection) render() Introspection {
	out := r.Introspection
	out.Robust = r.d.Args[r.Arg].Robust.String()
	return out
}

// introspectArg attempts to rescue argument i after its check failed by
// proving the pointer lies inside a live heap allocation.
func (ip *Interposer) introspectArg(d *decl.FuncDecl, i int, arg decl.ArgDecl, args []uint64) bool {
	rt := arg.Robust
	if rt.Kind().Family != decl.FamilyArray {
		return false
	}
	if ip.opts.Stateless {
		return false
	}
	addr := cmem.Addr(args[i])
	if addr == 0 {
		return false
	}
	need := -1
	if n, ok := ip.evalSize(rt.Size, args); ok {
		need = n
	}
	ip.work++
	info, ok := ip.p.Mem.AllocAt(addr)
	if !ok {
		return false
	}
	rec := introspection{Introspection: Introspection{
		Func:      d.Name,
		Arg:       i,
		Addr:      args[i],
		Need:      need,
		AllocBase: uint64(info.Base),
		AllocSize: info.Size,
	}, d: d}
	ip.vmu.Lock()
	ip.falseRejects.Inc()
	ip.introspections = append(ip.introspections, rec)
	ip.vmu.Unlock()
	if ip.tr.Enabled() {
		ip.tr.Emit(obs.Event{
			Kind:    obs.KindHealAction,
			Func:    d.Name,
			Arg:     i,
			Probe:   rt.String(),
			Detail:  "introspect-rescue",
			Outcome: "pass",
		})
	}
	return true
}
