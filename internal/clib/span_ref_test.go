package clib

import (
	"fmt"
	"math/rand"
	"testing"

	"healers/internal/cmem"
	"healers/internal/csim"
)

// refSpan holds the span functions as they were before their sets became
// lookup tables: the set is rescanned for every byte of s. They are the
// reference TestSpanSetTableDifferential holds the tables to.
var refSpan = map[string]Impl{
	"strpbrk": func(p *csim.Process, a []uint64) uint64 {
		s, accept := argPtr(a, 0), argPtr(a, 1)
		set := p.LoadCString(accept)
		for i := cmem.Addr(0); ; i++ {
			p.Step()
			b := p.LoadByte(s + i)
			if b == 0 {
				return 0
			}
			for j := 0; j < len(set); j++ {
				if set[j] == b {
					return uint64(s + i)
				}
			}
		}
	},
	"strspn": func(p *csim.Process, a []uint64) uint64 {
		s, accept := argPtr(a, 0), argPtr(a, 1)
		set := p.LoadCString(accept)
		var n uint64
	loop:
		for {
			p.Step()
			b := p.LoadByte(s + cmem.Addr(n))
			if b == 0 {
				break
			}
			for j := 0; j < len(set); j++ {
				if set[j] == b {
					n++
					continue loop
				}
			}
			break
		}
		return n
	},
	"strcspn": func(p *csim.Process, a []uint64) uint64 {
		s, reject := argPtr(a, 0), argPtr(a, 1)
		set := p.LoadCString(reject)
		var n uint64
		for {
			p.Step()
			b := p.LoadByte(s + cmem.Addr(n))
			if b == 0 {
				return n
			}
			for j := 0; j < len(set); j++ {
				if set[j] == b {
					return n
				}
			}
			n++
		}
	},
}

// TestSpanSetTableDifferential runs strpbrk, strspn and strcspn and
// their rescanning references on forks of seeded scenes: strings
// flush against a guard page, sets holding every byte value or none,
// an unreadable set, NULL and wild pointers, and step budgets that run
// out mid-string. Outcome kind, return, errno, fault and step count
// must match.
func TestSpanSetTableDifferential(t *testing.T) {
	lib := New()
	rng := rand.New(rand.NewSource(7))
	flush := func(p *csim.Process, b []byte) cmem.Addr {
		a, err := p.Mem.MmapRegion(len(b)+cmem.PageSize, cmem.ProtRW)
		if err != nil {
			t.Fatal(err)
		}
		end := a + cmem.Addr((len(b)+cmem.PageSize-1)/cmem.PageSize*cmem.PageSize+cmem.PageSize)
		if f := p.Mem.Write(end-cmem.Addr(len(b)), b); f != nil {
			t.Fatal(f)
		}
		return end - cmem.Addr(len(b))
	}
	alphabet := []byte("abcxyz\x01\xff")
	randBytes := func(n int, nul bool) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = alphabet[rng.Intn(len(alphabet))]
		}
		if nul {
			b = append(b, 0)
		}
		return b
	}
	all := make([]byte, 0, 256)
	for c := 1; c < 256; c++ {
		all = append(all, byte(c))
	}
	all = append(all, 0)
	kinds := map[csim.OutcomeKind]int{}
	for i := 0; i < 300; i++ {
		p := csim.NewProcess(nil)
		s := flush(p, randBytes(rng.Intn(3000), rng.Intn(4) != 0))
		var set cmem.Addr
		switch rng.Intn(6) {
		case 0:
			set = flush(p, []byte{0})
		case 1:
			set = flush(p, all)
		case 2:
			set = flush(p, randBytes(rng.Intn(4), false)) // unterminated: faults
		case 3:
			set = 0xdead0000
		default:
			set = flush(p, randBytes(1+rng.Intn(6), true))
		}
		switch rng.Intn(10) {
		case 0:
			s = 0
		case 1:
			s = 0xbeef0000
		}
		p.SetStepBudget(1 + rng.Intn(4000))
		for name, ref := range refSpan {
			run := func(impl Impl) csim.Outcome {
				c := p.Fork()
				defer c.Release()
				c.ClearErrno()
				return c.Run(func() uint64 { return impl(c, []uint64{uint64(s), uint64(set)}) })
			}
			got, want := run(lib.MustLookup(name).Impl), run(ref)
			if fmt.Sprint(got.Kind, got.Ret, got.Errno, got.Fault, got.Steps) != fmt.Sprint(want.Kind, want.Ret, want.Errno, want.Fault, want.Steps) {
				t.Errorf("case %d %s(%#x, %#x): %+v, reference %+v", i, name, uint64(s), uint64(set), got, want)
			}
			kinds[want.Kind]++
		}
		p.Release()
	}
	if kinds[csim.OutcomeReturn] == 0 || kinds[csim.OutcomeSegfault] == 0 || kinds[csim.OutcomeHang] == 0 {
		t.Errorf("outcomes %v: the scenes miss a return, a fault or a hang", kinds)
	}
}
