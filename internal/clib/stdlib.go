package clib

import (
	"math"

	"healers/internal/cmem"
	"healers/internal/csim"
)

// Conversions and sorting. The ato* family parses in user space with no
// validation and never touches errno; strtol/strtoul report EINVAL for a
// bad base; qsort jumps through the caller's comparison pointer.

func parseSpaces(s string) int {
	i := 0
	for i < len(s) && (s[i] == ' ' || s[i] == '\t' || s[i] == '\n') {
		i++
	}
	return i
}

func parseSign(s string, i int) (neg bool, next int) {
	if i < len(s) {
		switch s[i] {
		case '-':
			return true, i + 1
		case '+':
			return false, i + 1
		}
	}
	return false, i
}

func digitVal(c byte) int {
	switch {
	case c >= '0' && c <= '9':
		return int(c - '0')
	case c >= 'a' && c <= 'z':
		return int(c-'a') + 10
	case c >= 'A' && c <= 'Z':
		return int(c-'A') + 10
	}
	return -1
}

func parseLong(s string, base int) (val int64, consumed int) {
	i := parseSpaces(s)
	neg, i := parseSign(s, i)
	if base == 16 && i+1 < len(s) && s[i] == '0' && (s[i+1] == 'x' || s[i+1] == 'X') {
		i += 2
	}
	if base == 0 {
		base = 10
		if i < len(s) && s[i] == '0' {
			base = 8
			if i+1 < len(s) && (s[i+1] == 'x' || s[i+1] == 'X') {
				base = 16
				i += 2
			}
		}
	}
	start := i
	for i < len(s) {
		d := digitVal(s[i])
		if d < 0 || d >= base {
			break
		}
		val = val*int64(base) + int64(d)
		i++
	}
	if i == start {
		return 0, 0
	}
	if neg {
		val = -val
	}
	return val, i
}

func (l *Library) registerStdlib() {
	l.add(&Func{
		Name: "atoi", Header: "stdlib.h", NArgs: 1,
		Proto: "int atoi(const char *nptr);",
		Impl: func(p *csim.Process, a []uint64) uint64 {
			s := p.LoadCString(argPtr(a, 0))
			v, _ := parseLong(s, 10)
			return retInt(int(int32(v)))
		},
	})
	l.add(&Func{
		Name: "atol", Header: "stdlib.h", NArgs: 1,
		Proto: "long atol(const char *nptr);",
		Impl: func(p *csim.Process, a []uint64) uint64 {
			s := p.LoadCString(argPtr(a, 0))
			v, _ := parseLong(s, 10)
			return retLong(v)
		},
	})
	l.add(&Func{
		Name: "atof", Header: "stdlib.h", NArgs: 1,
		Proto: "double atof(const char *nptr);",
		Impl: func(p *csim.Process, a []uint64) uint64 {
			s := p.LoadCString(argPtr(a, 0))
			i := parseSpaces(s)
			neg, i := parseSign(s, i)
			var v float64
			for i < len(s) && s[i] >= '0' && s[i] <= '9' {
				v = v*10 + float64(s[i]-'0')
				i++
			}
			if i < len(s) && s[i] == '.' {
				i++
				scale := 0.1
				for i < len(s) && s[i] >= '0' && s[i] <= '9' {
					v += float64(s[i]-'0') * scale
					scale /= 10
					i++
				}
			}
			if neg {
				v = -v
			}
			return math.Float64bits(v)
		},
	})
	l.add(&Func{
		Name: "strtol", Header: "stdlib.h", NArgs: 3,
		Proto: "long strtol(const char *nptr, char **endptr, int base);",
		Impl: func(p *csim.Process, a []uint64) uint64 {
			nptr, endptr, base := argPtr(a, 0), argPtr(a, 1), argInt(a, 2)
			if base != 0 && (base < 2 || base > 36) {
				p.SetErrno(csim.EINVAL)
				return 0
			}
			s := p.LoadCString(nptr)
			v, consumed := parseLong(s, base)
			if endptr != 0 {
				p.StoreU64(endptr, uint64(nptr+cmem.Addr(consumed)))
			}
			return retLong(v)
		},
	})
	l.add(&Func{
		Name: "strtoul", Header: "stdlib.h", NArgs: 3,
		Proto: "unsigned long strtoul(const char *nptr, char **endptr, int base);",
		Impl: func(p *csim.Process, a []uint64) uint64 {
			nptr, endptr, base := argPtr(a, 0), argPtr(a, 1), argInt(a, 2)
			if base != 0 && (base < 2 || base > 36) {
				p.SetErrno(csim.EINVAL)
				return 0
			}
			s := p.LoadCString(nptr)
			v, consumed := parseLong(s, base)
			if endptr != 0 {
				p.StoreU64(endptr, uint64(nptr+cmem.Addr(consumed)))
			}
			return uint64(v)
		},
	})
	l.add(&Func{
		Name: "qsort", Header: "stdlib.h", NArgs: 4,
		Proto: "void qsort(void *base, size_t nmemb, size_t size, int (*compar)(const void *, const void *));",
		Impl: func(p *csim.Process, a []uint64) uint64 {
			base, nmemb, size, compar := argPtr(a, 0), argLong(a, 1), argLong(a, 2), argPtr(a, 3)
			if nmemb <= 1 || size <= 0 {
				return 0
			}
			// Insertion sort: simple, and it exercises both the data
			// pointer (reads/writes) and the comparison pointer (jump).
			elem := func(i int64) cmem.Addr { return base + cmem.Addr(i*size) }
			// The value being inserted is parked in a static scratch
			// area so the comparator always receives live addresses.
			scratch := p.Static("qsort.scratch", 256)
			if size > 256 {
				size = 256 // clamp: the simulated ABI caps element size
			}
			// One element buffer and one argument vector serve every
			// move and every comparison of the call.
			var tmp [256]byte
			el := tmp[:size]
			args := []uint64{0, uint64(scratch)}
			for i := int64(1); i < nmemb; i++ {
				p.Step()
				p.LoadInto(elem(i), el)
				p.Store(scratch, el)
				j := i - 1
				for j >= 0 {
					p.Step()
					args[0] = uint64(elem(j))
					r := int32(p.CallPtr(compar, args))
					if r <= 0 {
						break
					}
					p.LoadInto(elem(j), el)
					p.Store(elem(j+1), el)
					j--
				}
				p.LoadInto(scratch, el)
				p.Store(elem(j+1), el)
			}
			return 0
		},
	})
	l.add(&Func{
		Name: "bsearch", Header: "stdlib.h", NArgs: 5,
		Proto: "void *bsearch(const void *key, const void *base, size_t nmemb, size_t size, int (*compar)(const void *, const void *));",
		Impl: func(p *csim.Process, a []uint64) uint64 {
			key, base, nmemb, size, compar := argPtr(a, 0), argPtr(a, 1), argLong(a, 2), argLong(a, 3), argPtr(a, 4)
			lo, hi := int64(0), nmemb
			args := []uint64{uint64(key), 0}
			for lo < hi {
				p.Step()
				mid := (lo + hi) / 2
				at := base + cmem.Addr(mid*size)
				args[1] = uint64(at)
				r := int32(p.CallPtr(compar, args))
				switch {
				case r == 0:
					return uint64(at)
				case r < 0:
					hi = mid
				default:
					lo = mid + 1
				}
			}
			return 0
		},
	})
	l.add(&Func{
		Name: "abs", Header: "stdlib.h", NArgs: 1,
		Proto: "int abs(int j);",
		Impl: func(p *csim.Process, a []uint64) uint64 {
			v := argInt(a, 0)
			if v < 0 {
				v = -v
			}
			return retInt(v)
		},
	})
	l.add(&Func{
		Name: "labs", Header: "stdlib.h", NArgs: 1,
		Proto: "long labs(long j);",
		Impl: func(p *csim.Process, a []uint64) uint64 {
			v := argLong(a, 0)
			if v < 0 {
				v = -v
			}
			return retLong(v)
		},
	})
	l.add(&Func{
		Name: "getenv", Header: "stdlib.h", NArgs: 1,
		Proto: "char *getenv(const char *name);",
		Impl: func(p *csim.Process, a []uint64) uint64 {
			name := p.LoadCString(argPtr(a, 0))
			if name != "HOME" {
				return 0
			}
			out := p.Static("getenv.home", 16)
			p.StoreCString(out, "/root")
			return uint64(out)
		},
	})
}
