package clib

import (
	"fmt"
	"strings"

	"healers/internal/cmem"
	"healers/internal/csim"
)

// The per-byte reference model of the stdio loops: fread, fwrite,
// fgets, fputs, gets and the drain under fflush, fclose and fseek exactly as
// they ran before they advanced in segments, one Step and one staged
// byte per iteration. The differentials (TestStdioSegmentDifferential
// here, TestStdioProbeDifferential over the 86-function campaign) run
// the production Impl and this model on forks of one process and
// require the same outcome and, on a return or a hang, the same state.

func refStage(p *csim.Process, fp cmem.Addr, ff *fileFields, b byte) {
	sz := ff.bufSize
	if sz == 0 {
		sz = 1
	}
	cell := ff.bufPtr + cmem.Addr(ff.bufPos%sz)
	p.StoreByte(cell, b)
	ff.bufPos++
	p.StoreU64(fp+csim.FILEOffBufPos, ff.bufPos)
}

func refDrain(p *csim.Process, ff *fileFields) {
	if ff.bufPos == 0 {
		return
	}
	sz := ff.bufSize
	if sz == 0 {
		sz = 1
	}
	n := ff.bufPos
	if n > sz {
		n = sz
	}
	for i := uint64(0); i < n; i++ {
		p.Step()
		p.LoadByte(ff.bufPtr + cmem.Addr(i))
	}
}

func refReadByte(of *csim.OpenFD) (byte, bool) {
	if of == nil || !of.Mode.Readable() || of.File == nil {
		return 0, false
	}
	if of.Pos >= len(of.File.Data) {
		return 0, false
	}
	b := of.File.Data[of.Pos]
	of.Pos++
	return b, true
}

func refWriteByte(p *csim.Process, of *csim.OpenFD, b byte) bool {
	if of == nil || !of.Mode.Writable() || of.File == nil {
		return false
	}
	p.PrivatizeForWrite(of)
	if of.Append {
		of.Pos = len(of.File.Data)
	}
	for len(of.File.Data) < of.Pos {
		of.File.Data = append(of.File.Data, 0)
	}
	if of.Pos == len(of.File.Data) {
		of.File.Data = append(of.File.Data, b)
	} else {
		of.File.Data[of.Pos] = b
	}
	of.Pos++
	return true
}

// RefStdio is one function of the reference model plus where its
// arguments point: the FILE argument (-1 for none), and the user range
// it reads or writes (absent when user is nil).
type RefStdio struct {
	Impl Impl
	File int
	user func(p *csim.Process, a []uint64) (cmem.Addr, uint64)
}

// RefStdioFuncs holds the reference model by function name.
var RefStdioFuncs = map[string]RefStdio{
	"fread": {File: 3, user: productRange, Impl: func(p *csim.Process, a []uint64) uint64 {
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
		for ; got < total; got++ {
			p.Step()
			b, ok := refReadByte(of)
			if !ok {
				setFlag(p, fp, csim.FILEOffEOF, 1)
				break
			}
			refStage(p, fp, &ff, b)
			p.StoreByte(ptr+cmem.Addr(got), b)
		}
		return got / size
	}},
	"fwrite": {File: 3, user: productRange, Impl: func(p *csim.Process, a []uint64) uint64 {
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
		total := size * nmemb
		for i := uint64(0); i < total; i++ {
			p.Step()
			b := p.LoadByte(ptr + cmem.Addr(i))
			refStage(p, fp, &ff, b)
			refWriteByte(p, of, b)
		}
		return nmemb
	}},
	"fgets": {File: 2, user: fgetsRange, Impl: func(p *csim.Process, a []uint64) uint64 {
		s, size, fp := argPtr(a, 0), argInt(a, 1), argPtr(a, 2)
		ff := loadFILE(p, fp)
		if size <= 0 {
			for {
				p.Step()
			}
		}
		of := p.FD(ff.fd)
		if of == nil || !of.Mode.Readable() {
			setFlag(p, fp, csim.FILEOffError, 1)
			return 0
		}
		var i int
		for i = 0; i < size-1; i++ {
			p.Step()
			b, ok := refReadByte(of)
			if !ok {
				setFlag(p, fp, csim.FILEOffEOF, 1)
				break
			}
			refStage(p, fp, &ff, b)
			p.StoreByte(s+cmem.Addr(i), b)
			if b == '\n' {
				i++
				break
			}
		}
		if i == 0 {
			return 0
		}
		p.StoreByte(s+cmem.Addr(i), 0)
		return uint64(s)
	}},
	"fputs": {File: 1, Impl: func(p *csim.Process, a []uint64) uint64 {
		str := p.LoadCString(argPtr(a, 0))
		fp := argPtr(a, 1)
		ff := loadFILE(p, fp)
		of := p.FD(ff.fd)
		if of == nil || !of.Mode.Writable() {
			setFlag(p, fp, csim.FILEOffError, 1)
			return cEOF
		}
		for i := 0; i < len(str); i++ {
			p.Step()
			refStage(p, fp, &ff, str[i])
			refWriteByte(p, of, str[i])
		}
		return retInt(len(str))
	}},
	"gets": {File: -1, user: getsRange, Impl: func(p *csim.Process, a []uint64) uint64 {
		s := argPtr(a, 0)
		var i cmem.Addr
		for {
			p.Step()
			src := p.StdinUnread()
			if len(src) == 0 {
				if i == 0 {
					return 0
				}
				break
			}
			p.StdinSkip(1)
			if src[0] == '\n' {
				break
			}
			p.StoreByte(s+i, src[0])
			i++
		}
		p.StoreByte(s+i, 0)
		return uint64(s)
	}},
	"fflush": {File: 0, Impl: func(p *csim.Process, a []uint64) uint64 {
		fp := argPtr(a, 0)
		if fp == 0 {
			return 0
		}
		ff := loadFILE(p, fp)
		refDrain(p, &ff)
		if p.FD(ff.fd) == nil {
			setFlag(p, fp, csim.FILEOffError, 1)
			return cEOF
		}
		p.StoreU64(fp+csim.FILEOffBufPos, 0)
		return 0
	}},
	"fclose": {File: 0, Impl: func(p *csim.Process, a []uint64) uint64 {
		fp := argPtr(a, 0)
		ff := loadFILE(p, fp)
		refDrain(p, &ff)
		if p.FD(ff.fd) == nil {
			p.SetErrno(csim.EBADF)
			return cEOF
		}
		p.CloseFD(ff.fd)
		if ff.bufPtr != 0 && !p.Mem.Free(ff.bufPtr) {
			p.Abort()
		}
		if !p.Mem.Free(fp) {
			p.Abort()
		}
		return 0
	}},
	"fseek": {File: 0, Impl: func(p *csim.Process, a []uint64) uint64 {
		fp, offset, whence := argPtr(a, 0), argLong(a, 1), argInt(a, 2)
		ff := loadFILE(p, fp)
		refDrain(p, &ff)
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
		case 1:
			base = int64(of.Pos)
		case 2:
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
	}},
}

func productRange(_ *csim.Process, a []uint64) (cmem.Addr, uint64) {
	return argPtr(a, 0), a[1] * a[2]
}

func fgetsRange(_ *csim.Process, a []uint64) (cmem.Addr, uint64) {
	if n := argInt(a, 1); n > 0 {
		return argPtr(a, 0), uint64(n)
	}
	return argPtr(a, 0), 0
}

// getsRange covers every byte the whole input could fill, plus its NUL.
func getsRange(p *csim.Process, a []uint64) (cmem.Addr, uint64) {
	return argPtr(a, 0), uint64(len(p.Stdin)) + 1
}

// maxDump caps how many bytes of one range a snapshot records.
const maxDump = 1 << 16

// dump renders n bytes at addr page by page, a faulting page as its
// fault, so two processes compare equal only if every readable byte and
// every unreadable page agree.
func dump(b *strings.Builder, p *csim.Process, addr cmem.Addr, n uint64) {
	n = atMost(n, maxDump)
	for n > 0 {
		k := atMost(n, pageRoom(addr))
		if data, f := p.Mem.Read(addr, int(k)); f != nil {
			fmt.Fprintf(b, "<%v>", f)
		} else {
			fmt.Fprintf(b, "%x", data)
		}
		addr += cmem.Addr(k)
		n -= k
	}
	b.WriteByte('\n')
}

// stdioObservation renders what a call of a reference-model function
// left behind: its outcome (kind, return, errno, fault and steps) and,
// on a return or a hang, the FILE header, the ring, the user range, the
// file bytes and the descriptor position. hdr is the FILE header as it
// was before the call; its ring and descriptor are the ones observed.
func stdioObservation(p *csim.Process, out csim.Outcome, ref RefStdio, a []uint64, hdr *fileFields) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%v ret=%#x errno=%d steps=%d", out.Kind, out.Ret, out.Errno, out.Steps)
	if out.Kind == csim.OutcomeSegfault {
		fmt.Fprintf(&b, " fault=%+v", out.Fault)
	}
	b.WriteByte('\n')
	if out.Kind != csim.OutcomeReturn && out.Kind != csim.OutcomeHang {
		return b.String()
	}
	fmt.Fprintf(&b, "stdin=%d\n", len(p.StdinUnread()))
	if ref.File >= 0 {
		dump(&b, p, argPtr(a, ref.File), csim.SizeofFILE)
	}
	if ref.user != nil {
		u, n := ref.user(p, a)
		dump(&b, p, u, n)
	}
	if hdr != nil {
		dump(&b, p, hdr.bufPtr, hdr.bufSize)
		if of := p.FD(hdr.fd); of != nil {
			fmt.Fprintf(&b, "pos=%d file=%x\n", of.Pos, of.File.Data)
		} else {
			b.WriteString("closed\n")
		}
	}
	return b.String()
}

// DiffStdio runs impl, name's production Impl, and name's reference
// model on two forks of p with arguments a and returns a description of
// the first disagreement, or "" when the outcomes and the observed
// state match. p itself is left untouched.
func DiffStdio(impl Impl, p *csim.Process, name string, a []uint64) string {
	ref := RefStdioFuncs[name]
	var hdr *fileFields
	if ref.File >= 0 && argPtr(a, ref.File) != 0 {
		fp := argPtr(a, ref.File)
		probe := p.Fork()
		if o := probe.Run(func() uint64 { ff := loadFILE(probe, fp); hdr = &ff; return 0 }); o.Kind != csim.OutcomeReturn {
			hdr = nil
		}
		probe.Release()
	}
	run := func(impl Impl) string {
		c := p.Fork()
		defer c.Release()
		out := c.Run(func() uint64 { return impl(c, a) })
		return stdioObservation(c, out, ref, a, hdr)
	}
	got, want := run(impl), run(ref.Impl)
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
			return fmt.Sprintf("%s(%#x): line %d\n  segments:  %.300s\n  per-byte:  %.300s", name, a, i, g, wl[i])
		}
	}
	return fmt.Sprintf("%s(%#x): segments observed extra lines %q", name, a, gl[len(wl):])
}
