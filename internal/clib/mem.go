package clib

import "healers/internal/csim"

// Memory functions plus the heap allocation entry points. malloc/free
// are not in the crash-prone evaluation set, but the wrapper intercepts
// them to maintain its stateful allocation table (paper §5.1), and free
// aborts on a corrupt pointer like glibc's arena integrity checks do.

func (l *Library) registerMem() {
	l.add(&Func{
		Name: "memcpy", Header: "string.h", NArgs: 3,
		Proto: "void *memcpy(void *dest, const void *src, size_t n);",
		Impl: func(p *csim.Process, a []uint64) uint64 {
			dst, src, n := argPtr(a, 0), argPtr(a, 1), argSize(a, 2)
			copyForward(p, dst, src, n)
			return uint64(dst)
		},
	})
	l.add(&Func{
		Name: "memmove", Header: "string.h", NArgs: 3,
		Proto: "void *memmove(void *dest, const void *src, size_t n);",
		Impl: func(p *csim.Process, a []uint64) uint64 {
			dst, src, n := argPtr(a, 0), argPtr(a, 1), argSize(a, 2)
			if dst < src {
				copyForward(p, dst, src, n)
			} else {
				copyBackward(p, dst, src, n)
			}
			return uint64(dst)
		},
	})
	l.add(&Func{
		Name: "memset", Header: "string.h", NArgs: 3,
		Proto: "void *memset(void *s, int c, size_t n);",
		Impl: func(p *csim.Process, a []uint64) uint64 {
			s, c, n := argPtr(a, 0), byte(argInt(a, 1)), argSize(a, 2)
			fill(p, s, c, n)
			return uint64(s)
		},
	})
	l.add(&Func{
		Name: "memcmp", Header: "string.h", NArgs: 3,
		Proto: "int memcmp(const void *s1, const void *s2, size_t n);",
		Impl: func(p *csim.Process, a []uint64) uint64 {
			return compare(p, argPtr(a, 0), argPtr(a, 1), argSize(a, 2), false)
		},
	})
	l.add(&Func{
		Name: "memchr", Header: "string.h", NArgs: 3,
		Proto: "void *memchr(const void *s, int c, size_t n);",
		Impl: func(p *csim.Process, a []uint64) uint64 {
			s, c, n := argPtr(a, 0), byte(argInt(a, 1)), argSize(a, 2)
			if at, _, ok := search(p, s, c, n, false); ok {
				return uint64(at)
			}
			return 0
		},
	})
	l.add(&Func{
		Name: "bcopy", Header: "strings.h", NArgs: 3,
		Proto: "void bcopy(const void *src, void *dest, size_t n);",
		Impl: func(p *csim.Process, a []uint64) uint64 {
			// bcopy argument order is (src, dest); delegate to memmove.
			return l.Call(p, "memmove", a[1], a[0], a[2])
		},
	})
	l.add(&Func{
		Name: "bzero", Header: "strings.h", NArgs: 2,
		Proto: "void bzero(void *s, size_t n);",
		Impl: func(p *csim.Process, a []uint64) uint64 {
			l.Call(p, "memset", a[0], 0, a[1])
			return 0
		},
	})

	l.add(&Func{
		Name: "malloc", Header: "stdlib.h", NArgs: 1,
		Proto: "void *malloc(size_t size);",
		Impl: func(p *csim.Process, a []uint64) uint64 {
			size := argLong(a, 0)
			if size < 0 || size > 1<<30 {
				p.SetErrno(csim.ENOMEM)
				return 0
			}
			return uint64(p.Malloc(int(size)))
		},
	})
	l.add(&Func{
		Name: "calloc", Header: "stdlib.h", NArgs: 2,
		Proto: "void *calloc(size_t nmemb, size_t size);",
		Impl: func(p *csim.Process, a []uint64) uint64 {
			nmemb, size := argLong(a, 0), argLong(a, 1)
			if nmemb < 0 || size < 0 || (size > 0 && nmemb > (1<<30)/size) {
				p.SetErrno(csim.ENOMEM)
				return 0
			}
			return uint64(p.Malloc(int(nmemb * size)))
		},
	})
	l.add(&Func{
		Name: "realloc", Header: "stdlib.h", NArgs: 2,
		Proto: "void *realloc(void *ptr, size_t size);",
		Impl: func(p *csim.Process, a []uint64) uint64 {
			ptr, size := argPtr(a, 0), argLong(a, 1)
			if size < 0 || size > 1<<30 {
				p.SetErrno(csim.ENOMEM)
				return 0
			}
			na, err := p.Mem.Realloc(ptr, int(size))
			if err != nil {
				// glibc detects a corrupt arena pointer and aborts.
				p.Abort()
			}
			return uint64(na)
		},
	})
	l.add(&Func{
		Name: "free", Header: "stdlib.h", NArgs: 1,
		Proto: "void free(void *ptr);",
		Impl: func(p *csim.Process, a []uint64) uint64 {
			ptr := argPtr(a, 0)
			if ptr == 0 {
				return 0 // free(NULL) is defined as a no-op
			}
			if !p.Mem.Free(ptr) {
				// "free(): invalid pointer" — glibc aborts.
				p.Abort()
			}
			return 0
		},
	})
}
