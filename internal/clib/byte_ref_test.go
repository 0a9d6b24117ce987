package clib

import (
	"cmp"
	"fmt"
	"hash/fnv"
	"slices"
	"strings"

	"healers/internal/cmem"
	"healers/internal/csim"
)

// The per-byte reference model of the byte kernels: memcpy, memmove,
// memset, memcmp, memchr and the string functions, the set scans of
// strpbrk, strspn, strcspn and strtok among them, exactly as they ran
// before they moved a page segment at a time, one Step and one
// LoadByte or StoreByte per byte. The differentials (the scenes of
// TestByteKernelDifferential, FuzzByteKernels, and TestByteProbeDifferential
// over the 86-function campaign and the Ballista suite) run the
// production Impl and this model on forks of one process and require
// the same outcome, steps, pages copied, recorded accesses and bytes.

// RefByteFuncs holds the reference model by function name.
var RefByteFuncs = map[string]Impl{
	"memcpy": func(p *csim.Process, a []uint64) uint64 {
		dst, src, n := argPtr(a, 0), argPtr(a, 1), argSize(a, 2)
		for i := uint64(0); i < n; i++ {
			p.Step()
			p.StoreByte(dst+cmem.Addr(i), p.LoadByte(src+cmem.Addr(i)))
		}
		return uint64(dst)
	},
	"memmove": func(p *csim.Process, a []uint64) uint64 {
		dst, src, n := argPtr(a, 0), argPtr(a, 1), argSize(a, 2)
		if n == 0 {
			return uint64(dst)
		}
		if dst < src {
			for i := uint64(0); i < n; i++ {
				p.Step()
				p.StoreByte(dst+cmem.Addr(i), p.LoadByte(src+cmem.Addr(i)))
			}
		} else {
			for i := n; i > 0; i-- {
				p.Step()
				p.StoreByte(dst+cmem.Addr(i-1), p.LoadByte(src+cmem.Addr(i-1)))
			}
		}
		return uint64(dst)
	},
	"memset": func(p *csim.Process, a []uint64) uint64 {
		s, c, n := argPtr(a, 0), byte(argInt(a, 1)), argSize(a, 2)
		for i := uint64(0); i < n; i++ {
			p.Step()
			p.StoreByte(s+cmem.Addr(i), c)
		}
		return uint64(s)
	},
	"memcmp": func(p *csim.Process, a []uint64) uint64 {
		s1, s2, n := argPtr(a, 0), argPtr(a, 1), argSize(a, 2)
		for i := uint64(0); i < n; i++ {
			p.Step()
			b1, b2 := p.LoadByte(s1+cmem.Addr(i)), p.LoadByte(s2+cmem.Addr(i))
			if b1 != b2 {
				return retInt(int(b1) - int(b2))
			}
		}
		return 0
	},
	"memchr": func(p *csim.Process, a []uint64) uint64 {
		s, c, n := argPtr(a, 0), byte(argInt(a, 1)), argSize(a, 2)
		for i := uint64(0); i < n; i++ {
			p.Step()
			if p.LoadByte(s+cmem.Addr(i)) == c {
				return uint64(s + cmem.Addr(i))
			}
		}
		return 0
	},
	"strcpy": func(p *csim.Process, a []uint64) uint64 {
		dst, src := argPtr(a, 0), argPtr(a, 1)
		for i := cmem.Addr(0); ; i++ {
			p.Step()
			b := p.LoadByte(src + i)
			p.StoreByte(dst+i, b)
			if b == 0 {
				return uint64(dst)
			}
		}
	},
	"strncpy": func(p *csim.Process, a []uint64) uint64 {
		dst, src, n := argPtr(a, 0), argPtr(a, 1), argSize(a, 2)
		var i uint64
		for ; i < n; i++ {
			p.Step()
			b := p.LoadByte(src + cmem.Addr(i))
			p.StoreByte(dst+cmem.Addr(i), b)
			if b == 0 {
				i++
				break
			}
		}
		for ; i < n; i++ {
			p.Step()
			p.StoreByte(dst+cmem.Addr(i), 0)
		}
		return uint64(dst)
	},
	"strcat": func(p *csim.Process, a []uint64) uint64 {
		dst, src := argPtr(a, 0), argPtr(a, 1)
		end := dst
		for p.LoadByte(end) != 0 {
			p.Step()
			end++
		}
		for i := cmem.Addr(0); ; i++ {
			p.Step()
			b := p.LoadByte(src + i)
			p.StoreByte(end+i, b)
			if b == 0 {
				return uint64(dst)
			}
		}
	},
	"strncat": func(p *csim.Process, a []uint64) uint64 {
		dst, src, n := argPtr(a, 0), argPtr(a, 1), argSize(a, 2)
		end := dst
		for p.LoadByte(end) != 0 {
			p.Step()
			end++
		}
		var i uint64
		for ; i < n; i++ {
			p.Step()
			b := p.LoadByte(src + cmem.Addr(i))
			if b == 0 {
				break
			}
			p.StoreByte(end+cmem.Addr(i), b)
		}
		p.StoreByte(end+cmem.Addr(i), 0)
		return uint64(dst)
	},
	"strcmp": func(p *csim.Process, a []uint64) uint64 {
		s1, s2 := argPtr(a, 0), argPtr(a, 1)
		for i := cmem.Addr(0); ; i++ {
			p.Step()
			b1, b2 := p.LoadByte(s1+i), p.LoadByte(s2+i)
			if b1 != b2 {
				return retInt(int(b1) - int(b2))
			}
			if b1 == 0 {
				return 0
			}
		}
	},
	"strncmp": func(p *csim.Process, a []uint64) uint64 {
		s1, s2, n := argPtr(a, 0), argPtr(a, 1), argSize(a, 2)
		for i := uint64(0); i < n; i++ {
			p.Step()
			b1, b2 := p.LoadByte(s1+cmem.Addr(i)), p.LoadByte(s2+cmem.Addr(i))
			if b1 != b2 {
				return retInt(int(b1) - int(b2))
			}
			if b1 == 0 {
				return 0
			}
		}
		return 0
	},
	"strlen": func(p *csim.Process, a []uint64) uint64 {
		s := argPtr(a, 0)
		var n uint64
		for p.LoadByte(s+cmem.Addr(n)) != 0 {
			p.Step()
			n++
		}
		return n
	},
	"strchr": func(p *csim.Process, a []uint64) uint64 {
		s, c := argPtr(a, 0), byte(argInt(a, 1))
		for i := cmem.Addr(0); ; i++ {
			p.Step()
			b := p.LoadByte(s + i)
			if b == c {
				return uint64(s + i)
			}
			if b == 0 {
				return 0
			}
		}
	},
	"strrchr": func(p *csim.Process, a []uint64) uint64 {
		s, c := argPtr(a, 0), byte(argInt(a, 1))
		var last uint64
		for i := cmem.Addr(0); ; i++ {
			p.Step()
			b := p.LoadByte(s + i)
			if b == c {
				last = uint64(s + i)
			}
			if b == 0 {
				if c == 0 {
					return uint64(s + i)
				}
				return last
			}
		}
	},
	"strpbrk": func(p *csim.Process, a []uint64) uint64 {
		s, accept := argPtr(a, 0), argPtr(a, 1)
		in := refSet(p.LoadCString(accept))
		for i := cmem.Addr(0); ; i++ {
			p.Step()
			b := p.LoadByte(s + i)
			if b == 0 {
				return 0
			}
			if in[b] {
				return uint64(s + i)
			}
		}
	},
	"strspn": func(p *csim.Process, a []uint64) uint64 {
		s, accept := argPtr(a, 0), argPtr(a, 1)
		in := refSet(p.LoadCString(accept))
		var n uint64
		for {
			p.Step()
			b := p.LoadByte(s + cmem.Addr(n))
			if b == 0 || !in[b] {
				return n
			}
			n++
		}
	},
	"strcspn": func(p *csim.Process, a []uint64) uint64 {
		s, reject := argPtr(a, 0), argPtr(a, 1)
		in := refSet(p.LoadCString(reject))
		var n uint64
		for {
			p.Step()
			b := p.LoadByte(s + cmem.Addr(n))
			if b == 0 || in[b] {
				return n
			}
			n++
		}
	},
	"strtok": func(p *csim.Process, a []uint64) uint64 {
		s, delim := argPtr(a, 0), argPtr(a, 1)
		state := p.Static("strtok.state", 8)
		if s == 0 {
			s = cmem.Addr(p.LoadU64(state))
			if s == 0 {
				return 0
			}
		}
		set := p.LoadCString(delim)
		inSet := func(b byte) bool {
			for j := 0; j < len(set); j++ {
				if set[j] == b {
					return true
				}
			}
			return false
		}
		for p.LoadByte(s) != 0 && inSet(p.LoadByte(s)) {
			p.Step()
			s++
		}
		if p.LoadByte(s) == 0 {
			p.StoreU64(state, 0)
			return 0
		}
		tok := s
		for {
			p.Step()
			b := p.LoadByte(s)
			if b == 0 {
				p.StoreU64(state, 0)
				return uint64(tok)
			}
			if inSet(b) {
				p.StoreByte(s, 0)
				p.StoreU64(state, uint64(s+1))
				return uint64(tok)
			}
			s++
		}
	},
	"strxfrm": func(p *csim.Process, a []uint64) uint64 {
		dst, src, n := argPtr(a, 0), argPtr(a, 1), argSize(a, 2)
		s := p.LoadCString(src)
		if n > 0 {
			limit := int(n) - 1
			if limit > len(s) {
				limit = len(s)
			}
			for i := 0; i < limit; i++ {
				p.Step()
				p.StoreByte(dst+cmem.Addr(i), s[i])
			}
			p.StoreByte(dst+cmem.Addr(limit), 0)
		}
		return uint64(len(s))
	},
}

// refSet is the membership table of the bytes of set.
func refSet(set string) (in [256]bool) {
	for i := 0; i < len(set); i++ {
		in[set[i]] = true
	}
	return in
}

// RefByteNames lists RefByteFuncs' functions in a fixed order.
var RefByteNames = func() []string {
	names := make([]string, 0, len(RefByteFuncs))
	for name := range RefByteFuncs {
		names = append(names, name)
	}
	slices.Sort(names)
	return names
}()

// span is a half-open address range [lo, hi).
type span struct{ lo, hi cmem.Addr }

// touchLog gathers what a memory recorder sees as merged ranges, one
// list per access kind. A run of touches that extends a recent range,
// upwards or downwards, grows it in place, so a byte loop over a
// megabyte costs a few ranges, not a million.
type touchLog struct{ spans [2][]span }

func (l *touchLog) record(t cmem.Touch) {
	if t.N <= 0 {
		return
	}
	list := &l.spans[0]
	if t.Access == cmem.AccessWrite {
		list = &l.spans[1]
	}
	lo, hi := t.Addr, t.Addr+cmem.Addr(t.N)
	for i := len(*list) - 1; i >= 0 && i >= len(*list)-4; i-- {
		s := &(*list)[i]
		if lo <= s.hi && hi >= s.lo {
			s.lo, s.hi = min(s.lo, lo), max(s.hi, hi)
			return
		}
	}
	*list = append(*list, span{lo, hi})
}

// merged returns list sorted with overlapping and adjacent ranges
// joined.
func merged(list []span) []span {
	list = slices.Clone(list)
	slices.SortFunc(list, func(a, b span) int { return cmp.Compare(a.lo, b.lo) })
	var out []span
	for _, s := range list {
		if n := len(out); n > 0 && s.lo <= out[n-1].hi {
			out[n-1].hi = max(out[n-1].hi, s.hi)
			continue
		}
		out = append(out, s)
	}
	return out
}

// byteObservation runs impl on a fork of p with arguments a and
// renders everything the byte kernels promise to keep: the outcome
// (kind, return, errno, fault and steps), the pages copied, the byte
// ranges the recorder saw read and written, and the protection and a
// hash of the bytes of every page in those ranges after the call.
func byteObservation(impl Impl, p *csim.Process, a []uint64) string {
	c := p.Fork()
	defer c.Release()
	c.Metrics = nil
	c.SetStepBudget(p.StepsLeft())
	var log touchLog
	c.Mem.Recorder = log.record
	stats := c.Mem.ForkStats()
	before := stats.Snapshot().PagesCopied
	out := c.Run(func() uint64 { return impl(c, a) })
	copied := stats.Snapshot().PagesCopied - before
	c.Mem.Recorder = nil

	var b strings.Builder
	fmt.Fprintf(&b, "%v ret=%#x errno=%d steps=%d copied=%d", out.Kind, out.Ret, out.Errno, out.Steps, copied)
	if out.Kind == csim.OutcomeSegfault {
		fmt.Fprintf(&b, " fault=%+v", out.Fault)
	}
	b.WriteByte('\n')
	reads, writes := merged(log.spans[0]), merged(log.spans[1])
	fmt.Fprintf(&b, "read %x\nwrote %x\n", reads, writes)
	for _, s := range merged(append(reads, writes...)) {
		fmt.Fprintf(&b, "%#x:", uint64(s.lo))
		for at := s.lo; at != s.hi; {
			k := atMost(uint64(s.hi-at), pageRoom(at))
			fmt.Fprintf(&b, " %s", pageBytes(c, at, int(k)))
			at += cmem.Addr(k)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// pageBytes renders the protection of the page holding [at, at+n) and
// a hash of those bytes, which it reads whatever the protection: it
// makes the page readable first, so only use it once the call is over.
func pageBytes(p *csim.Process, at cmem.Addr, n int) string {
	prot, mapped := p.Mem.ProtAt(at)
	if !mapped {
		return "unmapped"
	}
	p.Mem.Protect(at, n, cmem.ProtRW)
	data, f := p.Mem.Read(at, n)
	if f != nil {
		panic(f)
	}
	h := fnv.New64a()
	h.Write(data)
	return fmt.Sprintf("%v:%d:%x", prot, n, h.Sum64())
}

// DiffBytes runs impl, name's production Impl, and name's reference
// model on two forks of p with arguments a, each with the step budget p
// has left, and returns a description of the first disagreement, or ""
// when everything byteObservation renders matches. p itself is left
// untouched.
func DiffBytes(impl Impl, p *csim.Process, name string, a []uint64) string {
	got, want := byteObservation(impl, p, a), byteObservation(RefByteFuncs[name], p, a)
	if got == want {
		return ""
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := range wl {
		if i >= len(gl) || gl[i] != wl[i] {
			g := ""
			if i < len(gl) {
				g = gl[i]
			}
			return fmt.Sprintf("%s(%#x): line %d\n  kernels:   %.300s\n  per-byte:  %.300s", name, a, i, g, wl[i])
		}
	}
	return fmt.Sprintf("%s(%#x): kernels observed extra lines %q", name, a, gl[len(wl):])
}
