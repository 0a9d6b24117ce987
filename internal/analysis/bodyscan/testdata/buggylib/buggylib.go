// Package buggylib is a deliberately defective mini-library in the
// shape of internal/clib, used only as bodyscan test input: the
// bodyscan tests compile it in and probe it, and the go tool's ./...
// patterns never build it. Each bug_* function carries a defect the
// scanner must surface; each ok_* twin is the corrected version the
// scanner must certify. The pairs keep the tests differential: the same
// probe schedule runs over both, so a pass that stopped looking would
// report the buggy and fixed bodies identically and fail the suite.
package buggylib

import (
	"healers/internal/clib"
	"healers/internal/cmem"
	"healers/internal/csim"
)

// Library is the symbol table.
type Library struct {
	funcs map[string]*clib.Func
	names []string // registration order
}

// New registers every fixture function, as clib.New does.
func New() *Library {
	l := &Library{funcs: make(map[string]*clib.Func)}
	l.registerBuggy()
	return l
}

func (l *Library) add(f *clib.Func) {
	l.funcs[f.Name] = f
	l.names = append(l.names, f.Name)
}

// Funcs returns every registered function in registration order.
func (l *Library) Funcs() []*clib.Func {
	out := make([]*clib.Func, len(l.names))
	for i, n := range l.names {
		out[i] = l.funcs[n]
	}
	return out
}

// Call dispatches by name, as clib.Library.Call does.
func (l *Library) Call(p *csim.Process, name string, args ...uint64) uint64 {
	return l.funcs[name].Impl(p, args)
}

// alias returns a function that forwards to target, built the way
// clib's internal aliases are: the body names its callee through a
// captured variable, which no syntactic pass can read.
func (l *Library) alias(name, target string) *clib.Func {
	return &clib.Func{
		Name: name, NArgs: 1,
		Proto: "int " + name + "(int n);",
		Impl: func(p *csim.Process, a []uint64) uint64 {
			return l.Call(p, target, a...)
		},
	}
}

func ptrArg(args []uint64, i int) cmem.Addr { return cmem.Addr(args[i]) }

func (l *Library) registerBuggy() {
	// ok_read reads exactly n bytes from src; bug_readpast has the
	// classic off-by-one and reads n+1. The scanner's expression fit
	// must certify the first as bounded by arg2 and refuse the second.
	l.add(&clib.Func{
		Name: "ok_read", NArgs: 2,
		Proto: "int ok_read(const void *src, size_t n);",
		Impl: func(p *csim.Process, a []uint64) uint64 {
			src, n := ptrArg(a, 0), a[1]
			var sum uint64
			for i := uint64(0); i < n; i++ {
				p.Step()
				sum += uint64(p.LoadByte(src + cmem.Addr(i)))
			}
			return sum
		},
	})
	l.add(&clib.Func{
		Name: "bug_readpast", NArgs: 2,
		Proto: "int bug_readpast(const void *src, size_t n);",
		Impl: func(p *csim.Process, a []uint64) uint64 {
			src, n := ptrArg(a, 0), a[1]
			var sum uint64
			for i := uint64(0); i <= n; i++ { // BUG: <= reads byte n
				p.Step()
				sum += uint64(p.LoadByte(src + cmem.Addr(i)))
			}
			return sum
		},
	})

	// ok_len checks for NULL before walking the string; bug_nonull
	// dereferences unconditionally. The null probe must come back
	// null-ok for the first only.
	l.add(&clib.Func{
		Name: "ok_len", NArgs: 1,
		Proto: "size_t ok_len(const char *s);",
		Impl: func(p *csim.Process, a []uint64) uint64 {
			s := ptrArg(a, 0)
			if s == 0 {
				return 0
			}
			var n uint64
			for p.LoadByte(s+cmem.Addr(n)) != 0 {
				p.Step()
				n++
			}
			return n
		},
	})
	l.add(&clib.Func{
		Name: "bug_nonull", NArgs: 1,
		Proto: "size_t bug_nonull(const char *s);",
		Impl: func(p *csim.Process, a []uint64) uint64 {
			s := ptrArg(a, 0) // BUG: no NULL check before the loop
			var n uint64
			for p.LoadByte(s+cmem.Addr(n)) != 0 {
				p.Step()
				n++
			}
			return n
		},
	})

	// cyc_ping and cyc_pong call each other through the symbol table: a
	// call-graph cycle. Only cyc_pong sets errno; the fixpoint must
	// carry EINVAL around the cycle into cyc_ping and still terminate.
	l.add(&clib.Func{
		Name: "cyc_ping", NArgs: 1,
		Proto: "int cyc_ping(int n);",
		Impl: func(p *csim.Process, a []uint64) uint64 {
			p.Step()
			n := int64(a[0])
			if n <= 0 {
				return 0
			}
			if n > 8 {
				n = 8
			}
			return l.Call(p, "cyc_pong", uint64(n-1))
		},
	})
	l.add(&clib.Func{
		Name: "cyc_pong", NArgs: 1,
		Proto: "int cyc_pong(int n);",
		Impl: func(p *csim.Process, a []uint64) uint64 {
			p.Step()
			n := int64(a[0])
			if n <= 0 {
				p.SetErrno(csim.EINVAL)
				return 0
			}
			if n > 8 {
				n = 8
			}
			return l.Call(p, "cyc_ping", uint64(n-1))
		},
	})

	// ok_kcopy reads its pointer through the kernel-boundary copy,
	// which reports a bad address instead of faulting, so the pointee
	// constrains nothing; bug_uload reads the same bytes with a user
	// load, which faults. Only the first may be summarized kernel-only.
	l.add(&clib.Func{
		Name: "ok_kcopy", NArgs: 1,
		Proto: "int ok_kcopy(const void *src);",
		Impl: func(p *csim.Process, a []uint64) uint64 {
			b, ok := p.CopyFromUser(ptrArg(a, 0), 8)
			if !ok {
				p.SetErrno(csim.EFAULT)
				return ^uint64(0)
			}
			return uint64(b[0])
		},
	})
	l.add(&clib.Func{
		Name: "bug_uload", NArgs: 1,
		Proto: "int bug_uload(const void *src);",
		Impl: func(p *csim.Process, a []uint64) uint64 {
			b := p.Load(ptrArg(a, 0), 8) // BUG: a user load faults on a bad pointer
			return uint64(b[0])
		},
	})

	// dyn_alias reaches cyc_pong, and its EINVAL, through a target the
	// syntactic pass cannot read; dyn_caller reaches dyn_alias by a
	// literal name. Summarizing either must fail rather than silently
	// drop the errno from its facts.
	l.add(l.alias("dyn_alias", "cyc_pong"))
	l.add(&clib.Func{
		Name: "dyn_caller", NArgs: 1,
		Proto: "int dyn_caller(int n);",
		Impl: func(p *csim.Process, a []uint64) uint64 {
			return l.Call(p, "dyn_alias", a[0])
		},
	})
}
