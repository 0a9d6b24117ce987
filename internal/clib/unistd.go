package clib

import (
	"fmt"

	"healers/internal/cmem"
	"healers/internal/csim"
)

// System-call-backed functions. The nine functions that validate every
// user pointer at the kernel boundary (open, creat, close, read, write,
// lseek, access, chdir, unlink) fail with EFAULT instead of crashing —
// they are the paper's "9 functions that never crash" in the re-run of
// the Ballista tests. The remaining entry points here (getcwd, stat,
// lstat, fstat, mkstemp) do part of their work in user space, as glibc
// does, and remain crash-prone.

// storeStat writes a struct stat for f at buf using faulting stores
// (user-space copy).
func storeStat(p *csim.Process, buf cmem.Addr, f *csim.VFile) {
	p.StoreU64(buf+csim.StatOffDev, 1)
	p.StoreU64(buf+csim.StatOffIno, f.Ino)
	mode := f.Mode
	if f.IsDir {
		mode |= 0o040000 // S_IFDIR
	} else {
		mode |= 0o100000 // S_IFREG
	}
	p.StoreU32(buf+csim.StatOffMode, mode)
	p.StoreU64(buf+csim.StatOffSize, uint64(len(f.Data)))
}

func (l *Library) registerUnistd() {
	l.add(&Func{
		Name: "open", Header: "fcntl.h", NArgs: 2,
		Proto: "int open(const char *pathname, int flags);",
		Impl: func(p *csim.Process, a []uint64) uint64 {
			path, ok := p.StrFromUser(argPtr(a, 0))
			if !ok {
				p.SetErrno(csim.EFAULT)
				return cEOF
			}
			flags := argInt(a, 1)
			var mode csim.AccessMode
			switch flags & 3 {
			case 0:
				mode = csim.ReadOnly
			case 1:
				mode = csim.WriteOnly
			default:
				mode = csim.ReadWrite
			}
			create := flags&0o100 != 0 // O_CREAT
			return retInt(p.OpenFile(path, mode, create))
		},
	})
	l.add(&Func{
		Name: "creat", Header: "fcntl.h", NArgs: 2,
		Proto: "int creat(const char *pathname, mode_t mode);",
		Impl: func(p *csim.Process, a []uint64) uint64 {
			path, ok := p.StrFromUser(argPtr(a, 0))
			if !ok {
				p.SetErrno(csim.EFAULT)
				return cEOF
			}
			fd := p.OpenFile(path, csim.WriteOnly, true)
			if fd >= 0 {
				p.TruncateForWrite(p.FD(fd))
			}
			return retInt(fd)
		},
	})
	l.add(&Func{
		Name: "close", Header: "unistd.h", NArgs: 1,
		Proto: "int close(int fd);",
		Impl: func(p *csim.Process, a []uint64) uint64 {
			if !p.CloseFD(argInt(a, 0)) {
				return cEOF
			}
			return 0
		},
	})
	l.add(&Func{
		Name: "read", Header: "unistd.h", NArgs: 3,
		Proto: "ssize_t read(int fd, void *buf, size_t count);",
		Impl: func(p *csim.Process, a []uint64) uint64 {
			fd, buf, count := argInt(a, 0), argPtr(a, 1), argLong(a, 2)
			of := p.FD(fd)
			if of == nil || !of.Mode.Readable() {
				p.SetErrno(csim.EBADF)
				return cEOF
			}
			if count < 0 {
				p.SetErrno(csim.EINVAL)
				return cEOF
			}
			n := int64(len(of.File.Data) - of.Pos)
			if n > count {
				n = count
			}
			if n <= 0 {
				return 0
			}
			data := of.File.Data[of.Pos : of.Pos+int(n)]
			if !p.CopyToUser(buf, data) {
				p.SetErrno(csim.EFAULT)
				return cEOF
			}
			of.Pos += int(n)
			return uint64(n)
		},
	})
	l.add(&Func{
		Name: "write", Header: "unistd.h", NArgs: 3,
		Proto: "ssize_t write(int fd, const void *buf, size_t count);",
		Impl: func(p *csim.Process, a []uint64) uint64 {
			fd, buf, count := argInt(a, 0), argPtr(a, 1), argLong(a, 2)
			of := p.FD(fd)
			if of == nil || !of.Mode.Writable() {
				p.SetErrno(csim.EBADF)
				return cEOF
			}
			if count < 0 {
				p.SetErrno(csim.EINVAL)
				return cEOF
			}
			data, ok := p.CopyFromUser(buf, int(count))
			if !ok {
				p.SetErrno(csim.EFAULT)
				return cEOF
			}
			for i := 0; i < len(data); {
				n := int(withinBudget(p, uint64(len(data)-i)))
				p.Step()
				copy(fdWrite(p, of, n), data[i:i+n])
				p.StepN(n - 1)
				i += n
			}
			return uint64(count)
		},
	})
	l.add(&Func{
		Name: "lseek", Header: "unistd.h", NArgs: 3,
		Proto: "off_t lseek(int fd, off_t offset, int whence);",
		Impl: func(p *csim.Process, a []uint64) uint64 {
			fd, offset, whence := argInt(a, 0), argLong(a, 1), argInt(a, 2)
			of := p.FD(fd)
			if of == nil {
				p.SetErrno(csim.EBADF)
				return cEOF
			}
			var base int64
			switch whence {
			case 0:
			case 1:
				base = int64(of.Pos)
			case 2:
				base = int64(len(of.File.Data))
			default:
				p.SetErrno(csim.EINVAL)
				return cEOF
			}
			np := base + offset
			if np < 0 {
				p.SetErrno(csim.EINVAL)
				return cEOF
			}
			of.Pos = int(np)
			return uint64(np)
		},
	})
	l.add(&Func{
		Name: "access", Header: "unistd.h", NArgs: 2,
		Proto: "int access(const char *pathname, int mode);",
		Impl: func(p *csim.Process, a []uint64) uint64 {
			path, ok := p.StrFromUser(argPtr(a, 0))
			if !ok {
				p.SetErrno(csim.EFAULT)
				return cEOF
			}
			if _, found := p.FS.Lookup(path); !found {
				p.SetErrno(csim.ENOENT)
				return cEOF
			}
			return 0
		},
	})
	l.add(&Func{
		Name: "chdir", Header: "unistd.h", NArgs: 1,
		Proto: "int chdir(const char *path);",
		Impl: func(p *csim.Process, a []uint64) uint64 {
			path, ok := p.StrFromUser(argPtr(a, 0))
			if !ok {
				p.SetErrno(csim.EFAULT)
				return cEOF
			}
			f, found := p.FS.Lookup(path)
			if !found {
				p.SetErrno(csim.ENOENT)
				return cEOF
			}
			if !f.IsDir {
				p.SetErrno(csim.ENOTDIR)
				return cEOF
			}
			p.Cwd = path
			return 0
		},
	})
	l.add(&Func{
		Name: "unlink", Header: "unistd.h", NArgs: 1,
		Proto: "int unlink(const char *pathname);",
		Impl: func(p *csim.Process, a []uint64) uint64 {
			path, ok := p.StrFromUser(argPtr(a, 0))
			if !ok {
				p.SetErrno(csim.EFAULT)
				return cEOF
			}
			if !p.FS.Remove(path) {
				p.SetErrno(csim.ENOENT)
				return cEOF
			}
			return 0
		},
	})
	l.add(&Func{
		Name: "getcwd", Header: "unistd.h", NArgs: 2,
		Proto: "char *getcwd(char *buf, size_t size);",
		Impl: func(p *csim.Process, a []uint64) uint64 {
			buf, size := argPtr(a, 0), argLong(a, 1)
			cwd := p.Cwd
			if buf == 0 {
				// glibc extension: allocate the result.
				out := p.Malloc(len(cwd) + 1)
				if out == 0 {
					return 0
				}
				p.StoreCString(out, cwd)
				return uint64(out)
			}
			if size <= 0 {
				p.SetErrno(csim.EINVAL)
				return 0
			}
			if int64(len(cwd)+1) > size {
				p.SetErrno(csim.ERANGE)
				return 0
			}
			// The copy into the caller's buffer happens in user space.
			p.StoreCString(buf, cwd)
			return uint64(buf)
		},
	})
	l.add(&Func{
		Name: "stat", Header: "sys/stat.h", NArgs: 2,
		Proto: "int stat(const char *pathname, struct stat *statbuf);",
		Impl: func(p *csim.Process, a []uint64) uint64 {
			// Path canonicalization in user space: bad path crashes.
			path := p.LoadCString(argPtr(a, 0))
			f, found := p.FS.Lookup(path)
			if !found {
				p.SetErrno(csim.ENOENT)
				return cEOF
			}
			storeStat(p, argPtr(a, 1), f) // user-space copy: crashes on bad buf
			return 0
		},
	})
	l.add(&Func{
		Name: "lstat", Header: "sys/stat.h", NArgs: 2,
		Proto: "int lstat(const char *pathname, struct stat *statbuf);",
		Impl: func(p *csim.Process, a []uint64) uint64 {
			return l.Call(p, "stat", a[0], a[1]) // no symlinks in the simulated FS
		},
	})
	l.add(&Func{
		Name: "fstat", Header: "sys/stat.h", NArgs: 2,
		Proto: "int fstat(int fd, struct stat *statbuf);",
		Impl: func(p *csim.Process, a []uint64) uint64 {
			fd, buf := argInt(a, 0), argPtr(a, 1)
			of := p.FD(fd)
			if of == nil {
				p.SetErrno(csim.EBADF)
				return cEOF
			}
			storeStat(p, buf, of.File)
			return 0
		},
	})
	l.add(&Func{
		Name: "mkstemp", Header: "stdlib.h", NArgs: 1,
		Proto: "int mkstemp(char *template);",
		Impl: func(p *csim.Process, a []uint64) uint64 {
			tp := argPtr(a, 0)
			tmpl := p.LoadCString(tp)
			if len(tmpl) < 6 || tmpl[len(tmpl)-6:] != "XXXXXX" {
				p.SetErrno(csim.EINVAL)
				return cEOF
			}
			// Replace the X's in place — mkstemp *writes* its argument,
			// so a read-only template crashes (real observed behaviour).
			serial := p.Static("mkstemp.serial", 8)
			n := p.LoadU64(serial)
			p.StoreU64(serial, n+1)
			suffix := fmt.Sprintf("%06d", n%1000000)
			for i := 0; i < 6; i++ {
				p.StoreByte(tp+cmem.Addr(len(tmpl)-6+i), suffix[i])
			}
			name := tmpl[:len(tmpl)-6] + suffix
			return retInt(p.OpenFile(name, csim.ReadWrite, true))
		},
	})
	l.add(&Func{
		Name: "dup", Header: "unistd.h", NArgs: 1,
		Proto: "int dup(int oldfd);",
		Impl: func(p *csim.Process, a []uint64) uint64 {
			of := p.FD(argInt(a, 0))
			if of == nil {
				p.SetErrno(csim.EBADF)
				return cEOF
			}
			return retInt(p.DupFD(of))
		},
	})
}
