package clib

import (
	"bytes"

	"healers/internal/cmem"
	"healers/internal/csim"
)

// Stdio: buffered I/O over the simulated descriptor table. Like glibc,
// every data byte is staged through the FILE's internal buffer, so a
// FILE structure that is *accessible* but *corrupted* (garbage buffer
// pointer, valid descriptor) crashes inside the library. That is the
// struct-integrity failure class that the paper's fully automatic
// wrapper cannot catch (its fileno+fstat check passes) and that the
// manually added assertions of the semi-automatic wrapper eliminate.

const cEOF = ^uint64(0) // C's EOF (-1) in the 64-bit return convention

// fileFields reads the header of a FILE structure, faulting if the
// memory is inaccessible.
type fileFields struct {
	fd      int
	flags   uint32
	bufPtr  cmem.Addr
	bufSize uint64
	bufPos  uint64
}

func loadFILE(p *csim.Process, fp cmem.Addr) fileFields {
	return fileFields{
		fd:      int(int32(p.LoadU32(fp + csim.FILEOffFD))),
		flags:   p.LoadU32(fp + csim.FILEOffFlags),
		bufPtr:  cmem.Addr(p.LoadU64(fp + csim.FILEOffBufPtr)),
		bufSize: p.LoadU64(fp + csim.FILEOffBufSize),
		bufPos:  p.LoadU64(fp + csim.FILEOffBufPos),
	}
}

// Bulk stdio. Where glibc moves one byte per iteration, every stdio
// loop here advances a segment at a time, and a segment ends at
// whichever comes first: the next page boundary of the ring cursor or
// of the user cursor, the ring's wrap point, EOF or a newline, or the
// step budget. It shrinks to one byte when any two of the ring range,
// the 8-byte bufPos field and the user range overlap. Inside a segment
// each stream therefore stays within one page, whose protection is
// uniform, so the segment either faults on its first byte or not at
// all; doing its accesses in the byte loop's own order (ring, bufPos,
// user for a read; user, ring, bufPos, file for a write) then faults at
// the same address, with the same errno, as the byte loop would.
// Charging one step before a segment's accesses and the other L-1
// after them keeps the step count, and so the hang, where the byte
// loop puts it. The adaptive injector grows arrays from the fault
// address (§4.1), so the first fault is what must not move; memory
// written before a fault is not observed.

// atMost returns n bounded by limit.
func atMost(n, limit uint64) uint64 {
	if n > limit {
		return limit
	}
	return n
}

// pageRoom returns how many bytes lie from addr to the end of its page.
func pageRoom(addr cmem.Addr) uint64 {
	return cmem.PageSize - uint64(addr&(cmem.PageSize-1))
}

// overlap reports whether [a, a+an) and [b, b+bn) share a byte, with
// addresses wrapping at the top of the address space as the byte loop's
// do.
func overlap(a cmem.Addr, an uint64, b cmem.Addr, bn uint64) bool {
	return uint64(b-a) < an || uint64(a-b) < bn
}

// ringCell returns the ring cell the next staged byte lands in and how
// many bytes fit before the ring wraps, either at the end of the
// buffer or where the position counter itself wraps.
func ringCell(ff *fileFields) (cmem.Addr, uint64) {
	sz := ff.bufSize
	if sz == 0 {
		sz = 1
	}
	off := ff.bufPos % sz
	room := sz - off
	if ff.bufPos != 0 {
		room = atMost(room, -ff.bufPos)
	}
	return ff.bufPtr + cmem.Addr(off), room
}

// segment bounds the next segment of a run of n bytes staged through
// the FILE at fp whose user cursor, when user is set, is at u.
func segment(p *csim.Process, fp cmem.Addr, ff *fileFields, u cmem.Addr, user bool, n uint64) uint64 {
	cell, room := ringCell(ff)
	n = atMost(atMost(n, room), pageRoom(cell))
	pos := fp + csim.FILEOffBufPos
	if user {
		n = atMost(n, pageRoom(u))
		if overlap(cell, n, u, n) || overlap(u, n, pos, 8) {
			n = 1
		}
	}
	if overlap(cell, n, pos, 8) {
		n = 1
	}
	return withinBudget(p, n)
}

// withinBudget bounds a run of n steps by the steps left. With none
// left it leaves n alone: the Step before the run raises the hang.
func withinBudget(p *csim.Process, n uint64) uint64 {
	if left := p.StepsLeft(); left > 0 {
		return atMost(n, uint64(left))
	}
	return n
}

// stage pushes data through the stdio buffer, exactly as buffered I/O
// does: it dereferences the buffer pointer stored in the FILE, then
// advances bufPos. data is one segment or a single byte.
func stage(p *csim.Process, fp cmem.Addr, ff *fileFields, data []byte) {
	cell, _ := ringCell(ff)
	p.Store(cell, data)
	ff.bufPos += uint64(len(data))
	p.StoreU64(fp+csim.FILEOffBufPos, ff.bufPos)
}

// readSegment moves the first segment of src, bytes the descriptor has
// not yet read, through the ring into user memory at u, in the byte
// loop's order: ring, bufPos, user. It returns the bytes moved.
func readSegment(p *csim.Process, fp cmem.Addr, ff *fileFields, of *csim.OpenFD, u cmem.Addr, src []byte) []byte {
	data := src[:segment(p, fp, ff, u, true, uint64(len(src)))]
	p.Step()
	of.Pos += len(data)
	stage(p, fp, ff, data)
	p.Store(u, data)
	p.StepN(len(data) - 1)
	return data
}

// drain touches the buffered region on flush-like paths; with a corrupt
// buffer pointer this is where the crash happens. It reads a segment at
// a time into a stack buffer.
func drain(p *csim.Process, ff *fileFields) {
	if ff.bufPos == 0 {
		return
	}
	sz := ff.bufSize
	if sz == 0 {
		sz = 1
	}
	n := atMost(ff.bufPos, sz)
	var buf [cmem.PageSize]byte
	for i := uint64(0); i < n; {
		at := ff.bufPtr + cmem.Addr(i)
		k := withinBudget(p, atMost(n-i, pageRoom(at)))
		p.Step()
		p.LoadInto(at, buf[:k])
		p.StepN(int(k) - 1)
		i += k
	}
}

func setFlag(p *csim.Process, fp cmem.Addr, off int, v uint32) {
	p.StoreU32(fp+cmem.Addr(off), v)
}

// fdUnread returns the bytes a readable descriptor has left before EOF.
func fdUnread(of *csim.OpenFD) []byte {
	if of.Pos >= len(of.File.Data) {
		return nil
	}
	return of.File.Data[of.Pos:]
}

// fdWrite returns the n file bytes at a writable descriptor's position
// for the caller to fill and advances the position past them. The file
// may still be fork-shared (writable opens and forks no longer copy
// eagerly), so it is privatized first; a gap past the end of the file
// reads as zeros, as after a seek past EOF.
func fdWrite(p *csim.Process, of *csim.OpenFD, n int) []byte {
	p.PrivatizeForWrite(of)
	if of.Append {
		of.Pos = len(of.File.Data)
	}
	end := of.Pos + n
	if grow := end - len(of.File.Data); grow > 0 {
		of.File.Data = append(of.File.Data, make([]byte, grow)...)
	}
	out := of.File.Data[of.Pos:end]
	of.Pos = end
	return out
}

func (l *Library) registerStdio() {
	l.add(&Func{
		Name: "fopen", Header: "stdio.h", NArgs: 2,
		Proto: "FILE *fopen(const char *path, const char *mode);",
		Impl: func(p *csim.Process, a []uint64) uint64 {
			// The mode string is parsed in user space: a bad mode
			// pointer crashes. The path goes to the kernel: a bad path
			// pointer merely yields EFAULT. This is the asymmetry the
			// paper observed ("fopen and freopen crash when the mode
			// string is invalid but can cope with invalid file names").
			mode := p.LoadCStringView(argPtr(a, 1))
			path, ok := p.CStringViewFromUser(argPtr(a, 0))
			if !ok {
				p.SetErrno(csim.EFAULT)
				return 0
			}
			return uint64(p.Fopen(string(path), string(mode)))
		},
	})
	l.add(&Func{
		Name: "freopen", Header: "stdio.h", NArgs: 3,
		Proto: "FILE *freopen(const char *path, const char *mode, FILE *stream);",
		Impl: func(p *csim.Process, a []uint64) uint64 {
			mode := p.LoadCString(argPtr(a, 1))
			fp := argPtr(a, 2)
			// The old stream is abandoned wholesale (no flush): freopen
			// re-initializes the FILE in place with fresh buffer state.
			ff := loadFILE(p, fp)
			if p.FD(ff.fd) != nil {
				p.CloseFD(ff.fd)
			} else {
				// glibc quirk reproduced: the stale descriptor sets
				// errno even when the reopen itself then succeeds.
				p.SetErrno(csim.EBADF)
			}
			path, ok := p.StrFromUser(argPtr(a, 0))
			if !ok {
				p.SetErrno(csim.EFAULT)
				return 0
			}
			nfp := p.Fopen(path, mode)
			if nfp == 0 {
				return 0
			}
			// Move the fresh FILE contents into the caller's stream.
			data := p.Load(nfp, csim.SizeofFILE)
			p.Store(fp, data)
			p.Mem.Free(nfp)
			return uint64(fp)
		},
	})
	l.add(&Func{
		Name: "fdopen", Header: "stdio.h", NArgs: 2,
		Proto: "FILE *fdopen(int fd, const char *mode);",
		Impl: func(p *csim.Process, a []uint64) uint64 {
			fd := argInt(a, 0)
			mode := p.LoadCString(argPtr(a, 1))
			if len(mode) == 0 || (mode[0] != 'r' && mode[0] != 'w' && mode[0] != 'a') {
				p.SetErrno(csim.EINVAL)
				return 0
			}
			of := p.FD(fd)
			if of == nil {
				p.SetErrno(csim.EBADF)
				return 0
			}
			var flags uint32
			if of.Mode.Readable() {
				flags |= csim.FILEFlagRead
			}
			if of.Mode.Writable() {
				flags |= csim.FILEFlagWrite
			}
			if mode[0] == 'a' {
				// glibc quirk reproduced: the append-position probe sets
				// errno spuriously although a valid stream is returned.
				p.SetErrno(csim.ENOENT)
				of.Pos = len(of.File.Data)
			}
			return uint64(p.NewFILE(fd, flags))
		},
	})
	l.add(&Func{
		Name: "fclose", Header: "stdio.h", NArgs: 1,
		Proto: "int fclose(FILE *stream);",
		Impl: func(p *csim.Process, a []uint64) uint64 {
			fp := argPtr(a, 0)
			ff := loadFILE(p, fp)
			drain(p, &ff)
			if p.FD(ff.fd) == nil {
				p.SetErrno(csim.EBADF)
				return cEOF
			}
			p.CloseFD(ff.fd)
			if ff.bufPtr != 0 && !p.Mem.Free(ff.bufPtr) {
				p.Abort() // "free(): invalid pointer"
			}
			if !p.Mem.Free(fp) {
				p.Abort()
			}
			return 0
		},
	})
	l.add(&Func{
		Name: "fflush", Header: "stdio.h", NArgs: 1,
		Proto: "int fflush(FILE *stream);",
		Impl: func(p *csim.Process, a []uint64) uint64 {
			fp := argPtr(a, 0)
			if fp == 0 {
				return 0 // fflush(NULL) flushes all streams: nothing pending
			}
			ff := loadFILE(p, fp)
			drain(p, &ff)
			if p.FD(ff.fd) == nil {
				// The paper singles out fflush: it is supposed to set
				// errno here but does not; it only sets the stream's
				// error flag.
				setFlag(p, fp, csim.FILEOffError, 1)
				return cEOF
			}
			p.StoreU64(fp+csim.FILEOffBufPos, 0)
			return 0
		},
	})
	l.add(&Func{
		Name: "fread", Header: "stdio.h", NArgs: 4,
		Proto: "size_t fread(void *ptr, size_t size, size_t nmemb, FILE *stream);",
		Impl: func(p *csim.Process, a []uint64) uint64 {
			ptr, size, nmemb, fp := argPtr(a, 0), argSize(a, 1), argSize(a, 2), argPtr(a, 3)
			ff := loadFILE(p, fp)
			of := p.FD(ff.fd)
			if of == nil || !of.Mode.Readable() {
				p.SetErrno(csim.EBADF)
				return 0
			}
			if size == 0 || nmemb == 0 {
				return 0
			}
			total := size * nmemb
			var got uint64
			for got < total {
				src := fdUnread(of)
				if len(src) == 0 {
					p.Step()
					setFlag(p, fp, csim.FILEOffEOF, 1)
					break
				}
				src = src[:atMost(total-got, uint64(len(src)))]
				got += uint64(len(readSegment(p, fp, &ff, of, ptr+cmem.Addr(got), src)))
			}
			return got / size
		},
	})
	l.add(&Func{
		Name: "fwrite", Header: "stdio.h", NArgs: 4,
		Proto: "size_t fwrite(const void *ptr, size_t size, size_t nmemb, FILE *stream);",
		Impl: func(p *csim.Process, a []uint64) uint64 {
			ptr, size, nmemb, fp := argPtr(a, 0), argSize(a, 1), argSize(a, 2), argPtr(a, 3)
			ff := loadFILE(p, fp)
			of := p.FD(ff.fd)
			if of == nil || !of.Mode.Writable() {
				p.SetErrno(csim.EBADF)
				return 0
			}
			if size == 0 || nmemb == 0 {
				return 0
			}
			// The user bytes land straight in the file; on a fault the
			// file may keep the zeros it grew by, which no caller sees.
			total := size * nmemb
			for i := uint64(0); i < total; {
				n := segment(p, fp, &ff, ptr+cmem.Addr(i), true, total-i)
				p.Step()
				data := fdWrite(p, of, int(n))
				p.LoadInto(ptr+cmem.Addr(i), data)
				stage(p, fp, &ff, data)
				p.StepN(int(n) - 1)
				i += n
			}
			return nmemb
		},
	})
	l.add(&Func{
		Name: "fgets", Header: "stdio.h", NArgs: 3,
		Proto: "char *fgets(char *s, int size, FILE *stream);",
		Impl: func(p *csim.Process, a []uint64) uint64 {
			s, size, fp := argPtr(a, 0), argInt(a, 1), argPtr(a, 2)
			ff := loadFILE(p, fp)
			if size <= 0 {
				// Reproduces the classic `while (--n > 0)` wraparound
				// bug: a non-positive size spins the read loop, which
				// the paper's methodology observes as a hang.
				p.Hang()
			}
			of := p.FD(ff.fd)
			if of == nil || !of.Mode.Readable() {
				setFlag(p, fp, csim.FILEOffError, 1)
				return 0
			}
			var i int
			for i < size-1 {
				src := fdUnread(of)
				if len(src) == 0 {
					p.Step()
					setFlag(p, fp, csim.FILEOffEOF, 1)
					break
				}
				src = src[:atMost(uint64(size-1-i), uint64(len(src)))]
				if nl := bytes.IndexByte(src, '\n'); nl >= 0 {
					src = src[:nl+1]
				}
				data := readSegment(p, fp, &ff, of, s+cmem.Addr(i), src)
				i += len(data)
				if data[len(data)-1] == '\n' {
					break
				}
			}
			if i == 0 {
				return 0
			}
			p.StoreByte(s+cmem.Addr(i), 0)
			return uint64(s)
		},
	})
	l.add(&Func{
		Name: "fputs", Header: "stdio.h", NArgs: 2,
		Proto: "int fputs(const char *s, FILE *stream);",
		Impl: func(p *csim.Process, a []uint64) uint64 {
			str := p.LoadCString(argPtr(a, 0))
			fp := argPtr(a, 1)
			ff := loadFILE(p, fp)
			of := p.FD(ff.fd)
			if of == nil || !of.Mode.Writable() {
				setFlag(p, fp, csim.FILEOffError, 1)
				return cEOF
			}
			var buf [cmem.PageSize]byte
			for i := 0; i < len(str); {
				n := int(segment(p, fp, &ff, 0, false, uint64(len(str)-i)))
				data := buf[:n]
				copy(data, str[i:])
				p.Step()
				stage(p, fp, &ff, data)
				copy(fdWrite(p, of, n), data)
				p.StepN(n - 1)
				i += n
			}
			return retInt(len(str))
		},
	})
	l.add(&Func{
		Name: "fgetc", Header: "stdio.h", NArgs: 1,
		Proto: "int fgetc(FILE *stream);",
		Impl: func(p *csim.Process, a []uint64) uint64 {
			fp := argPtr(a, 0)
			ff := loadFILE(p, fp)
			if u := int32(p.LoadU32(fp + csim.FILEOffUngetc)); u >= 0 {
				p.StoreU32(fp+csim.FILEOffUngetc, ^uint32(0))
				return uint64(u)
			}
			of := p.FD(ff.fd)
			if of == nil || !of.Mode.Readable() {
				p.SetErrno(csim.EBADF)
				return cEOF
			}
			src := fdUnread(of)
			if len(src) == 0 {
				setFlag(p, fp, csim.FILEOffEOF, 1)
				return cEOF
			}
			of.Pos++
			stage(p, fp, &ff, src[:1])
			return uint64(src[0])
		},
	})
	l.add(&Func{
		Name: "fputc", Header: "stdio.h", NArgs: 2,
		Proto: "int fputc(int c, FILE *stream);",
		Impl: func(p *csim.Process, a []uint64) uint64 {
			c, fp := byte(argInt(a, 0)), argPtr(a, 1)
			ff := loadFILE(p, fp)
			of := p.FD(ff.fd)
			if of == nil || !of.Mode.Writable() {
				p.SetErrno(csim.EBADF)
				return cEOF
			}
			stage(p, fp, &ff, []byte{c})
			fdWrite(p, of, 1)[0] = c
			return uint64(c)
		},
	})
	l.add(&Func{
		Name: "ungetc", Header: "stdio.h", NArgs: 2,
		Proto: "int ungetc(int c, FILE *stream);",
		Impl: func(p *csim.Process, a []uint64) uint64 {
			c, fp := argInt(a, 0), argPtr(a, 1)
			ff := loadFILE(p, fp)
			if c == -1 {
				p.SetErrno(csim.EINVAL)
				return cEOF
			}
			if int32(p.LoadU32(fp+csim.FILEOffUngetc)) >= 0 {
				p.SetErrno(csim.EINVAL)
				return cEOF
			}
			// The pushed-back byte is parked in the stdio buffer too.
			stage(p, fp, &ff, []byte{byte(c)})
			p.StoreU32(fp+csim.FILEOffUngetc, uint32(c))
			return uint64(uint32(c))
		},
	})
	l.add(&Func{
		Name: "gets", Header: "stdio.h", NArgs: 1,
		Proto: "char *gets(char *s);",
		Impl: func(p *csim.Process, a []uint64) uint64 {
			// The canonical unbounded write: gets copies a full stdin
			// line into s with no length limit whatsoever.
			s := argPtr(a, 0)
			var i cmem.Addr
			for {
				src := p.StdinUnread()
				n := bytes.IndexByte(src, '\n')
				if n < 0 {
					n = len(src)
				}
				if n == 0 {
					// EOF, or the newline, which is consumed but not stored.
					p.Step()
					if len(src) == 0 {
						if i == 0 {
							return 0
						}
						break
					}
					p.StdinSkip(1)
					break
				}
				k := withinBudget(p, atMost(uint64(n), pageRoom(s+i)))
				p.Step()
				p.StdinSkip(int(k))
				p.Store(s+i, src[:k])
				p.StepN(int(k) - 1)
				i += cmem.Addr(k)
			}
			p.StoreByte(s+i, 0)
			return uint64(s)
		},
	})
	l.add(&Func{
		Name: "puts", Header: "stdio.h", NArgs: 1,
		Proto: "int puts(const char *s);",
		Impl: func(p *csim.Process, a []uint64) uint64 {
			str := p.LoadCString(argPtr(a, 0))
			p.Stdout = append(p.Stdout, str...)
			p.Stdout = append(p.Stdout, '\n')
			return retInt(len(str) + 1)
		},
	})
	l.add(&Func{
		Name: "fseek", Header: "stdio.h", NArgs: 3,
		Proto: "int fseek(FILE *stream, long offset, int whence);",
		Impl: func(p *csim.Process, a []uint64) uint64 {
			fp, offset, whence := argPtr(a, 0), argLong(a, 1), argInt(a, 2)
			ff := loadFILE(p, fp)
			drain(p, &ff) // seeking flushes the buffer
			if whence < 0 || whence > 2 {
				p.SetErrno(csim.EINVAL)
				return cEOF
			}
			of := p.FD(ff.fd)
			if of == nil {
				p.SetErrno(csim.EBADF)
				return cEOF
			}
			var base int64
			switch whence {
			case 0: // SEEK_SET
			case 1: // SEEK_CUR
				base = int64(of.Pos)
			case 2: // SEEK_END
				base = int64(len(of.File.Data))
			}
			np := base + offset
			if np < 0 {
				p.SetErrno(csim.EINVAL)
				return cEOF
			}
			of.Pos = int(np)
			p.StoreU64(fp+csim.FILEOffBufPos, 0)
			p.StoreU32(fp+csim.FILEOffEOF, 0)
			return 0
		},
	})
	l.add(&Func{
		Name: "ftell", Header: "stdio.h", NArgs: 1,
		Proto: "long ftell(FILE *stream);",
		Impl: func(p *csim.Process, a []uint64) uint64 {
			fp := argPtr(a, 0)
			ff := loadFILE(p, fp)
			of := p.FD(ff.fd)
			if of == nil {
				p.SetErrno(csim.EBADF)
				return cEOF
			}
			return retLong(int64(of.Pos))
		},
	})
	l.add(&Func{
		Name: "rewind", Header: "stdio.h", NArgs: 1,
		Proto: "void rewind(FILE *stream);",
		Impl: func(p *csim.Process, a []uint64) uint64 {
			l.Call(p, "fseek", a[0], 0, 0)
			return 0
		},
	})
	l.add(&Func{
		Name: "feof", Header: "stdio.h", NArgs: 1,
		Proto: "int feof(FILE *stream);",
		Impl: func(p *csim.Process, a []uint64) uint64 {
			return uint64(p.LoadU32(argPtr(a, 0) + csim.FILEOffEOF))
		},
	})
	l.add(&Func{
		Name: "ferror", Header: "stdio.h", NArgs: 1,
		Proto: "int ferror(FILE *stream);",
		Impl: func(p *csim.Process, a []uint64) uint64 {
			return uint64(p.LoadU32(argPtr(a, 0) + csim.FILEOffError))
		},
	})
	l.add(&Func{
		Name: "clearerr", Header: "stdio.h", NArgs: 1,
		Proto: "void clearerr(FILE *stream);",
		Impl: func(p *csim.Process, a []uint64) uint64 {
			fp := argPtr(a, 0)
			p.StoreU32(fp+csim.FILEOffError, 0)
			p.StoreU32(fp+csim.FILEOffEOF, 0)
			return 0
		},
	})
	l.add(&Func{
		Name: "fileno", Header: "stdio.h", NArgs: 1,
		Proto: "int fileno(FILE *stream);",
		Impl: func(p *csim.Process, a []uint64) uint64 {
			fp := argPtr(a, 0)
			fd := int(int32(p.LoadU32(fp + csim.FILEOffFD)))
			if p.FD(fd) == nil {
				p.SetErrno(csim.EBADF)
				return cEOF
			}
			return retInt(fd)
		},
	})
	l.add(&Func{
		Name: "setbuf", Header: "stdio.h", NArgs: 2,
		Proto: "void setbuf(FILE *stream, char *buf);",
		Impl: func(p *csim.Process, a []uint64) uint64 {
			fp, buf := argPtr(a, 0), argPtr(a, 1)
			if buf != 0 {
				p.StoreU64(fp+csim.FILEOffBufPtr, uint64(buf))
				p.StoreU64(fp+csim.FILEOffBufSize, csim.FILEBufSize)
			}
			p.StoreU64(fp+csim.FILEOffBufPos, 0)
			return 0
		},
	})
	l.add(&Func{
		Name: "setvbuf", Header: "stdio.h", NArgs: 4,
		Proto: "int setvbuf(FILE *stream, char *buf, int mode, size_t size);",
		Impl: func(p *csim.Process, a []uint64) uint64 {
			fp, buf, mode, size := argPtr(a, 0), argPtr(a, 1), argInt(a, 2), argSize(a, 3)
			// The stream is locked (dereferenced) before the mode is
			// validated, as buffered-I/O implementations do.
			p.LoadU32(fp + csim.FILEOffFlags)
			if mode < 0 || mode > 2 { // _IOFBF/_IOLBF/_IONBF
				p.SetErrno(csim.EINVAL)
				return cEOF
			}
			if buf != 0 && size > 0 {
				p.StoreU64(fp+csim.FILEOffBufPtr, uint64(buf))
				p.StoreU64(fp+csim.FILEOffBufSize, size)
			}
			p.StoreU64(fp+csim.FILEOffBufPos, 0)
			return 0
		},
	})
	l.add(&Func{
		Name: "perror", Header: "stdio.h", NArgs: 1,
		Proto: "void perror(const char *s);",
		Impl: func(p *csim.Process, a []uint64) uint64 {
			s := argPtr(a, 0)
			var prefix string
			if s != 0 {
				prefix = p.LoadCString(s) + ": "
			}
			msg := prefix + csim.ErrnoName(p.Errno()) + "\n"
			p.Stdout = append(p.Stdout, msg...)
			return 0
		},
	})
}
