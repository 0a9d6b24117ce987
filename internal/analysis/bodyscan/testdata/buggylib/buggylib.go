// Package buggylib is a deliberately defective mini-library in the
// shape of internal/clib, used only as bodyscan test input (testdata is
// never compiled into the build). Each bug_* function carries a defect
// the scanner must surface; each ok_* twin is the corrected version the
// scanner must certify. The pairs keep the tests differential: the same
// probe schedule runs over both, so a pass that stopped looking would
// report the buggy and fixed bodies identically and fail the suite.
package buggylib

import (
	"healers/internal/cmem"
	"healers/internal/csim"
)

// Impl has clib.Impl's shape: flattened 64-bit C calling convention.
type Impl func(p *csim.Process, args []uint64) uint64

// Func has the shape of clib.Func, the registration record.
type Func struct {
	Name     string
	Internal bool
	Proto    string
	NArgs    int
	Impl     Impl
}

// Library is the symbol table.
type Library struct {
	funcs map[string]*Func
}

// New registers every fixture function, exactly as clib.New does.
func New() *Library {
	l := &Library{funcs: make(map[string]*Func)}
	l.registerBuggy()
	return l
}

func (l *Library) add(f *Func) {
	l.funcs[f.Name] = f
}

// Call dispatches by name, as clib.Library.Call does.
func (l *Library) Call(p *csim.Process, name string, args ...uint64) uint64 {
	return l.funcs[name].Impl(p, args)
}

func ptrArg(args []uint64, i int) cmem.Addr { return cmem.Addr(args[i]) }

func (l *Library) registerBuggy() {
	// ok_read reads exactly n bytes from src; bug_readpast has the
	// classic off-by-one and reads n+1. The scanner's expression fit
	// must certify the first as bounded by arg2 and refuse the second.
	l.add(&Func{
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
	l.add(&Func{
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
	l.add(&Func{
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
	l.add(&Func{
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
	l.add(&Func{
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
	l.add(&Func{
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

	// bug_gofunc launches a goroutine — a construct the interpreter
	// does not model. The whole function must degrade to Unknown; the
	// pass never guesses at bodies it cannot execute.
	l.add(&Func{
		Name: "bug_gofunc", NArgs: 1,
		Proto: "int bug_gofunc(int x);",
		Impl: func(p *csim.Process, a []uint64) uint64 {
			go p.Step()
			return a[0]
		},
	})
}
