package clib

import (
	"bytes"

	"healers/internal/cmem"
	"healers/internal/csim"
)

// Byte kernels. The mem and string functions run their loops a page
// segment at a time: each kernel moves a chunk of bytes through views
// of the simulated pages (csim's LoadSpan and StoreSpan) where the
// naive libc code they model moves one byte per iteration, and it
// keeps everything that byte loop shows — the outcome, the return
// value and errno, the fault's address and kind, the step count, the
// bytes stored, the pages copied on write and what a memory recorder
// sees. Three rules make that hold:
//
//   - A chunk never crosses a page of either operand. Protection is
//     uniform within a page, so a chunk either faults on its first byte
//     or not at all. A chunk whose first byte would fault shrinks to
//     that one byte and makes the byte loop's accesses in its order.
//   - A chunk is cut at the steps left. One step is charged before a
//     chunk's accesses and the rest after them, so a hang lands on the
//     step where the byte loop's lands, and a fault after one step.
//   - A forward copy whose destination starts inside its own source
//     chunk is cut where the destination begins, so no byte of a chunk
//     is read after the chunk wrote it. The byte loop would read it.
//
// A chunk reads only as far as the byte loop would, to the first
// difference, match or NUL, and it stores only the bytes the byte loop
// stores: a page is made private only when a byte will be stored.

// unbounded is the length of a loop that runs until a terminator: the
// step budget or a fault ends it long before the count could.
const unbounded = ^uint64(0)

// writable reports whether a store to addr would succeed, without
// making its page private.
func writable(p *csim.Process, addr cmem.Addr) bool {
	prot, mapped := p.Mem.ProtAt(addr)
	return mapped && prot&cmem.ProtWrite != 0
}

// pageUsed returns how many bytes of addr's page lie up to and
// including addr: the room a backward chunk ending at addr has.
func pageUsed(addr cmem.Addr) uint64 {
	return uint64(addr&(cmem.PageSize-1)) + 1
}

// copyForward copies n bytes from src to dst in ascending order: the
// loop of memcpy, and of memmove below its source.
func copyForward(p *csim.Process, dst, src cmem.Addr, n uint64) {
	for i := uint64(0); i < n; {
		d, s := dst+cmem.Addr(i), src+cmem.Addr(i)
		k := withinBudget(p, atMost(atMost(n-i, pageRoom(s)), pageRoom(d)))
		if lag := uint64(d - s); lag > 0 && lag < k {
			k = lag
		}
		if seg, _, _ := p.Mem.Segment(s); seg == nil || !writable(p, d) {
			k = 1
		}
		p.Step()
		from := p.LoadSpan(s, int(k))
		copy(p.StoreSpan(d, int(k)), from)
		p.StepN(int(k) - 1)
		i += k
	}
}

// copyBackward copies n bytes from src to dst in descending order, for
// dst at or above src: memmove's loop when the regions may overlap
// from below, where a descending copy reads every byte before it is
// overwritten.
func copyBackward(p *csim.Process, dst, src cmem.Addr, n uint64) {
	for i := n; i > 0; {
		d, s := dst+cmem.Addr(i-1), src+cmem.Addr(i-1)
		k := withinBudget(p, atMost(atMost(i, pageUsed(s)), pageUsed(d)))
		if seg, _, _ := p.Mem.Segment(s); seg == nil || !writable(p, d) {
			k = 1
		}
		back := cmem.Addr(k - 1)
		p.Step()
		from := p.LoadSpan(s-back, int(k))
		copy(p.StoreSpan(d-back, int(k)), from)
		p.StepN(int(k) - 1)
		i -= k
	}
}

// fill stores c into n bytes from dst: memset's loop, and strncpy's
// padding.
func fill(p *csim.Process, dst cmem.Addr, c byte, n uint64) {
	for i := uint64(0); i < n; {
		d := dst + cmem.Addr(i)
		k := withinBudget(p, atMost(n-i, pageRoom(d)))
		if !writable(p, d) {
			k = 1
		}
		p.Step()
		b := p.StoreSpan(d, int(k))
		b[0] = c
		for j := 1; j < len(b); j *= 2 {
			copy(b[j:], b[:j])
		}
		p.StepN(int(k) - 1)
		i += k
	}
}

// compare compares at most n bytes of s1 and s2, stopping after a NUL
// both hold when nul is set: the loop of memcmp, strcmp and strncmp. It
// returns the difference of the first differing bytes, or 0.
func compare(p *csim.Process, s1, s2 cmem.Addr, n uint64, nul bool) uint64 {
	for i := uint64(0); i < n; {
		a, b := s1+cmem.Addr(i), s2+cmem.Addr(i)
		k := withinBudget(p, atMost(atMost(n-i, pageRoom(a)), pageRoom(b)))
		x, _, _ := p.Mem.Segment(a)
		y, _, _ := p.Mem.Segment(b)
		stop := -1 // the byte the loop stops after, if it does in this chunk
		if x == nil || y == nil {
			k = 1
		} else {
			x, y = x[:k], y[:k]
			if nul {
				if z := bytes.IndexByte(x, 0); z >= 0 {
					x, y, stop = x[:z+1], y[:z+1], z
				}
			}
			if !bytes.Equal(x, y) {
				for stop = 0; x[stop] == y[stop]; stop++ {
				}
			}
			if stop >= 0 {
				k = uint64(stop) + 1
			}
		}
		p.Step()
		p.LoadSpan(a, int(k))
		p.LoadSpan(b, int(k))
		p.StepN(int(k) - 1)
		if stop >= 0 {
			return retInt(int(x[stop]) - int(y[stop]))
		}
		i += k
	}
	return 0
}

// search looks for c in at most n bytes from s, stopping at a NUL as
// well when nul is set: the loop of memchr and strchr. It returns the
// address and value of the byte it stopped at, and false when it ran
// through n bytes without stopping.
func search(p *csim.Process, s cmem.Addr, c byte, n uint64, nul bool) (cmem.Addr, byte, bool) {
	for i := uint64(0); i < n; {
		a := s + cmem.Addr(i)
		k := withinBudget(p, atMost(n-i, pageRoom(a)))
		x, _, _ := p.Mem.Segment(a)
		stop := -1
		if x == nil {
			k = 1
		} else {
			x = x[:k]
			stop = bytes.IndexByte(x, c)
			if nul && c != 0 {
				end := len(x)
				if stop >= 0 {
					end = stop
				}
				if z := bytes.IndexByte(x[:end], 0); z >= 0 {
					stop = z
				}
			}
			if stop >= 0 {
				k = uint64(stop) + 1
			}
		}
		p.Step()
		p.LoadSpan(a, int(k))
		p.StepN(int(k) - 1)
		if stop >= 0 {
			return a + cmem.Addr(stop), x[stop], true
		}
		i += k
	}
	return 0, 0, false
}

// scanSet scans the string at s for its first byte that is NUL or
// whose membership in set is stop: the loop of strpbrk and strcspn
// (stop true: the first byte in set) and of strspn and strtok's
// delimiter skip (stop false: the first byte outside it). set must not
// hold NUL. Like search it steps before each byte it loads, and it
// returns the address and value of the byte it stopped at.
func scanSet(p *csim.Process, s cmem.Addr, set *[256]bool, stop bool) (cmem.Addr, byte) {
	for a := s; ; {
		k := withinBudget(p, pageRoom(a))
		x, _, _ := p.Mem.Segment(a)
		at := -1
		if x == nil {
			k = 1
		} else {
			x = x[:k]
			for i, b := range x {
				if b == 0 || set[b] == stop {
					at = i
					break
				}
			}
			if at >= 0 {
				k = uint64(at) + 1
			}
		}
		p.Step()
		p.LoadSpan(a, int(k))
		p.StepN(int(k) - 1)
		if at >= 0 {
			return a + cmem.Addr(at), x[at]
		}
		a += cmem.Addr(k)
	}
}

// stringEnd returns the address of the NUL ending the string at s:
// strlen's loop, which loads each byte before it steps for it. That is
// one load of s and then search's step-first loop from s+1.
func stringEnd(p *csim.Process, s cmem.Addr) cmem.Addr {
	if p.LoadByte(s) == 0 {
		return s
	}
	end, _, _ := search(p, s+1, 0, unbounded, false)
	return end
}

// copyString copies bytes from src to dst until it has read a NUL or n
// bytes: the loop of strcpy, strncpy, strcat and strncat. The NUL is
// stored when storeNul is set (strcpy's loop) and only read otherwise
// (strncat's). It returns how many bytes it stored.
func copyString(p *csim.Process, dst, src cmem.Addr, n uint64, storeNul bool) uint64 {
	for i := uint64(0); i < n; {
		d, s := dst+cmem.Addr(i), src+cmem.Addr(i)
		k := withinBudget(p, atMost(atMost(n-i, pageRoom(s)), pageRoom(d)))
		if lag := uint64(d - s); lag > 0 && lag < k {
			k = lag
		}
		x, _, _ := p.Mem.Segment(s)
		if x == nil || !writable(p, d) {
			k = 1
		}
		stored, done := k, false
		if x != nil {
			if z := bytes.IndexByte(x[:k], 0); z >= 0 {
				k, stored, done = uint64(z)+1, uint64(z)+1, true
				if !storeNul {
					stored--
				}
			}
		}
		p.Step()
		from := p.LoadSpan(s, int(k))
		if stored > 0 {
			copy(p.StoreSpan(d, int(stored)), from)
		}
		p.StepN(int(k) - 1)
		i += stored
		if done {
			return i
		}
	}
	return n
}

// storeBytes stores b at dst, one step per byte: strxfrm's loop.
func storeBytes(p *csim.Process, dst cmem.Addr, b string) {
	for i := 0; i < len(b); {
		d := dst + cmem.Addr(i)
		k := int(withinBudget(p, atMost(uint64(len(b)-i), pageRoom(d))))
		if !writable(p, d) {
			k = 1
		}
		p.Step()
		copy(p.StoreSpan(d, k), b[i:i+k])
		p.StepN(k - 1)
		i += k
	}
}
