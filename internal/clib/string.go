package clib

import (
	"healers/internal/cmem"
	"healers/internal/csim"
)

// The string family behaves byte by byte exactly as naive libc code
// does: no argument validation, reads and writes run until the
// terminator regardless of what memory they touch. The copy, compare
// and search loops run on the byte kernels (kernel.go), which move a
// page segment at a time and keep every observable of the byte loop.
// None of these functions ever sets errno — the paper's "No Error
// Return Code Found" class comes largely from here.

func (l *Library) registerString() {
	l.add(&Func{
		Name: "strcpy", Header: "string.h", NArgs: 2,
		Proto: "char *strcpy(char *dest, const char *src);",
		Impl: func(p *csim.Process, a []uint64) uint64 {
			dst := argPtr(a, 0)
			copyString(p, dst, argPtr(a, 1), unbounded, true)
			return uint64(dst)
		},
	})
	l.add(&Func{
		Name: "strncpy", Header: "string.h", NArgs: 3,
		Proto: "char *strncpy(char *dest, const char *src, size_t n);",
		Impl: func(p *csim.Process, a []uint64) uint64 {
			dst, src, n := argPtr(a, 0), argPtr(a, 1), argSize(a, 2)
			i := copyString(p, dst, src, n, true)
			fill(p, dst+cmem.Addr(i), 0, n-i)
			return uint64(dst)
		},
	})
	l.add(&Func{
		Name: "strcat", Header: "string.h", NArgs: 2,
		Proto: "char *strcat(char *dest, const char *src);",
		Impl: func(p *csim.Process, a []uint64) uint64 {
			dst := argPtr(a, 0)
			copyString(p, stringEnd(p, dst), argPtr(a, 1), unbounded, true)
			return uint64(dst)
		},
	})
	l.add(&Func{
		Name: "strncat", Header: "string.h", NArgs: 3,
		Proto: "char *strncat(char *dest, const char *src, size_t n);",
		Impl: func(p *csim.Process, a []uint64) uint64 {
			dst, src, n := argPtr(a, 0), argPtr(a, 1), argSize(a, 2)
			end := stringEnd(p, dst)
			i := copyString(p, end, src, n, false)
			p.StoreByte(end+cmem.Addr(i), 0)
			return uint64(dst)
		},
	})
	l.add(&Func{
		Name: "strcmp", Header: "string.h", NArgs: 2,
		Proto: "int strcmp(const char *s1, const char *s2);",
		Impl: func(p *csim.Process, a []uint64) uint64 {
			return compare(p, argPtr(a, 0), argPtr(a, 1), unbounded, true)
		},
	})
	l.add(&Func{
		Name: "strncmp", Header: "string.h", NArgs: 3,
		Proto: "int strncmp(const char *s1, const char *s2, size_t n);",
		Impl: func(p *csim.Process, a []uint64) uint64 {
			return compare(p, argPtr(a, 0), argPtr(a, 1), argSize(a, 2), true)
		},
	})
	l.add(&Func{
		Name: "strlen", Header: "string.h", NArgs: 1,
		Proto: "size_t strlen(const char *s);",
		Impl: func(p *csim.Process, a []uint64) uint64 {
			s := argPtr(a, 0)
			return uint64(stringEnd(p, s) - s)
		},
	})
	l.add(&Func{
		Name: "strchr", Header: "string.h", NArgs: 2,
		Proto: "char *strchr(const char *s, int c);",
		Impl: func(p *csim.Process, a []uint64) uint64 {
			s, c := argPtr(a, 0), byte(argInt(a, 1))
			if at, b, _ := search(p, s, c, unbounded, true); b == c {
				return uint64(at)
			}
			return 0
		},
	})
	l.add(&Func{
		Name: "strrchr", Header: "string.h", NArgs: 2,
		Proto: "char *strrchr(const char *s, int c);",
		Impl: func(p *csim.Process, a []uint64) uint64 {
			s, c := argPtr(a, 0), byte(argInt(a, 1))
			var last uint64
			for {
				at, b, _ := search(p, s, c, unbounded, true)
				if b == c {
					last = uint64(at)
				}
				if b == 0 {
					return last
				}
				s = at + 1
			}
		},
	})
	l.add(&Func{
		Name: "strstr", Header: "string.h", NArgs: 2,
		Proto: "char *strstr(const char *haystack, const char *needle);",
		Impl: func(p *csim.Process, a []uint64) uint64 {
			hay, needle := argPtr(a, 0), argPtr(a, 1)
			n := p.LoadCString(needle)
			h := p.LoadCString(hay)
			if len(n) == 0 {
				return uint64(hay)
			}
			for i := 0; i+len(n) <= len(h); i++ {
				p.Step()
				if h[i:i+len(n)] == n {
					return uint64(hay + cmem.Addr(i))
				}
			}
			return 0
		},
	})
	l.add(&Func{
		Name: "strpbrk", Header: "string.h", NArgs: 2,
		Proto: "char *strpbrk(const char *s, const char *accept);",
		Impl: func(p *csim.Process, a []uint64) uint64 {
			s, accept := argPtr(a, 0), argPtr(a, 1)
			in := byteSet(p.LoadCStringView(accept))
			if at, b := scanSet(p, s, &in, true); b != 0 {
				return uint64(at)
			}
			return 0
		},
	})
	l.add(&Func{
		Name: "strspn", Header: "string.h", NArgs: 2,
		Proto: "size_t strspn(const char *s, const char *accept);",
		Impl: func(p *csim.Process, a []uint64) uint64 {
			s, accept := argPtr(a, 0), argPtr(a, 1)
			in := byteSet(p.LoadCStringView(accept))
			at, _ := scanSet(p, s, &in, false)
			return uint64(at - s)
		},
	})
	l.add(&Func{
		Name: "strcspn", Header: "string.h", NArgs: 2,
		Proto: "size_t strcspn(const char *s, const char *reject);",
		Impl: func(p *csim.Process, a []uint64) uint64 {
			s, reject := argPtr(a, 0), argPtr(a, 1)
			in := byteSet(p.LoadCStringView(reject))
			at, _ := scanSet(p, s, &in, true)
			return uint64(at - s)
		},
	})
	l.add(&Func{
		Name: "strtok", Header: "string.h", NArgs: 2,
		Proto: "char *strtok(char *str, const char *delim);",
		Impl: func(p *csim.Process, a []uint64) uint64 {
			s, delim := argPtr(a, 0), argPtr(a, 1)
			// strtok keeps its scan position in library static state.
			state := p.Static("strtok.state", 8)
			if s == 0 {
				s = cmem.Addr(p.LoadU64(state))
				if s == 0 {
					return 0
				}
			}
			in := byteSet(p.LoadCStringView(delim))
			// The delimiter skip loads each byte before it steps for
			// it: one load of s, then a step-first scan from s+1.
			if b := p.LoadByte(s); b != 0 && in[b] {
				s, _ = scanSet(p, s+1, &in, false)
			}
			if p.LoadByte(s) == 0 {
				p.StoreU64(state, 0)
				return 0
			}
			tok := s
			end, b := scanSet(p, s, &in, true)
			if b == 0 {
				p.StoreU64(state, 0)
				return uint64(tok)
			}
			p.StoreByte(end, 0)
			p.StoreU64(state, uint64(end+1))
			return uint64(tok)
		},
	})
	l.add(&Func{
		Name: "index", Header: "strings.h", NArgs: 2,
		Proto: "char *index(const char *s, int c);",
		Impl: func(p *csim.Process, a []uint64) uint64 {
			// BSD alias of strchr.
			return l.Call(p, "strchr", a[0], a[1])
		},
	})
	l.add(&Func{
		Name: "strcoll", Header: "string.h", NArgs: 2,
		Proto: "int strcoll(const char *s1, const char *s2);",
		Impl: func(p *csim.Process, a []uint64) uint64 {
			// In the C locale strcoll is strcmp.
			return l.Call(p, "strcmp", a[0], a[1])
		},
	})
	l.add(&Func{
		Name: "strxfrm", Header: "string.h", NArgs: 3,
		Proto: "size_t strxfrm(char *dest, const char *src, size_t n);",
		Impl: func(p *csim.Process, a []uint64) uint64 {
			dst, src, n := argPtr(a, 0), argPtr(a, 1), argSize(a, 2)
			s := p.LoadCString(src)
			if n > 0 {
				limit := int(n) - 1
				if limit > len(s) {
					limit = len(s)
				}
				storeBytes(p, dst, s[:max(limit, 0)])
				p.StoreByte(dst+cmem.Addr(limit), 0)
			}
			return uint64(len(s))
		},
	})
	l.add(&Func{
		Name: "strdup", Header: "string.h", NArgs: 1,
		Proto: "char *strdup(const char *s);",
		Impl: func(p *csim.Process, a []uint64) uint64 {
			s := p.LoadCString(argPtr(a, 0))
			dup := p.Malloc(len(s) + 1)
			if dup == 0 {
				return 0 // errno already ENOMEM
			}
			p.StoreCString(dup, s)
			return uint64(dup)
		},
	})
}

// byteSet returns the membership table of set's bytes, so the span
// functions test a byte in one lookup instead of rescanning the set.
func byteSet(set []byte) (in [256]bool) {
	for i := 0; i < len(set); i++ {
		in[set[i]] = true
	}
	return in
}
