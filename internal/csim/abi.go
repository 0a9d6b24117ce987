package csim

import "healers/internal/cmem"

// Simulated ABI: the byte layouts of the C structures that cross the
// library boundary. The layout constants are shared by the library
// implementation (package clib), the test-case generators (package gens)
// and the wrapper's checking functions (package wrapper), exactly as a
// real ABI is shared by libc, Ballista and HEALERS.
//
// The ABI models a 32-bit-int / 64-bit-pointer platform. struct tm is 9
// ints plus a long UTC offset = 44 bytes, matching the paper's
// R_ARRAY_NULL[44] robust type for asctime.

// Sizes of ABI structures in bytes.
const (
	SizeofTm      = 44  // struct tm: 9 x int32 + int64 tm_gmtoff
	SizeofFILE    = 152 // FILE: magic, fd, flags, ungetc, buffer ptr/size/pos + reserve
	SizeofDIR     = 64  // DIR: magic, fd, position
	SizeofStat    = 64  // struct stat subset
	SizeofTermios = 56  // termios: 4 flag words + 32 control chars + 2 speeds
)

// Magic numbers stored in the first word of FILE and DIR structures.
// The simulated libc never checks them (it is as trusting as glibc);
// only semi-automatic wrapper assertions do.
const (
	FILEMagic uint32 = 0xF11E_0001
	DIRMagic  uint32 = 0xD1D1_0001
)

// FILE structure field offsets.
const (
	FILEOffMagic   = 0
	FILEOffFD      = 4
	FILEOffFlags   = 8
	FILEOffUngetc  = 12
	FILEOffBufPtr  = 16
	FILEOffBufSize = 24
	FILEOffBufPos  = 32
	FILEOffError   = 40
	FILEOffEOF     = 44
)

// FILE flag bits stored at FILEOffFlags.
const (
	FILEFlagRead uint32 = 1 << iota
	FILEFlagWrite
	FILEFlagAppend
)

// DIR structure field offsets. Like glibc's DIR, the structure carries a
// pointer to an internal dirent buffer; readdir returns pointers into it.
// A corrupted-but-accessible DIR therefore crashes the library inside
// that buffer — the struct-integrity failure class that survives the
// fully automatic wrapper in the paper's evaluation.
const (
	DIROffMagic = 0
	DIROffFD    = 4
	DIROffPos   = 8
	DIROffBuf   = 16
)

// struct dirent field offsets: d_ino u64, then a 256-byte d_name.
const (
	DirentOffIno  = 0
	DirentOffName = 8
	SizeofDirent  = 264
)

// struct stat field offsets (subset).
const (
	StatOffDev  = 0
	StatOffIno  = 8
	StatOffMode = 16
	StatOffSize = 24
)

// struct tm field offsets (all int32 except GmtOff which is int64).
const (
	TmOffSec    = 0
	TmOffMin    = 4
	TmOffHour   = 8
	TmOffMday   = 12
	TmOffMon    = 16
	TmOffYear   = 20
	TmOffWday   = 24
	TmOffYday   = 28
	TmOffIsdst  = 32
	TmOffGmtOff = 36
)

// termios field offsets.
const (
	TermiosOffIflag  = 0
	TermiosOffOflag  = 4
	TermiosOffCflag  = 8
	TermiosOffLflag  = 12
	TermiosOffCC     = 16 // 32 control characters
	TermiosOffIspeed = 48
	TermiosOffOspeed = 52
)

// FILEBufSize is the stdio buffer size attached to each open FILE.
const FILEBufSize = 1024

// NewFILE allocates a FILE structure plus its stdio buffer on the
// simulated heap and initializes it for descriptor fd. Returns the
// address of the FILE, or 0 on allocation failure.
func (p *Process) NewFILE(fd int, flags uint32) cmem.Addr {
	fp := p.Malloc(SizeofFILE)
	if fp == 0 {
		return 0
	}
	buf := p.Malloc(FILEBufSize)
	if buf == 0 {
		return 0
	}
	p.StoreU32(fp+FILEOffMagic, FILEMagic)
	p.StoreU32(fp+FILEOffFD, uint32(int32(fd)))
	p.StoreU32(fp+FILEOffFlags, flags)
	p.StoreU32(fp+FILEOffUngetc, uint32(^uint32(0))) // -1: no pushed-back char
	p.StoreU64(fp+FILEOffBufPtr, uint64(buf))
	p.StoreU64(fp+FILEOffBufSize, FILEBufSize)
	p.StoreU64(fp+FILEOffBufPos, 0)
	p.StoreU32(fp+FILEOffError, 0)
	p.StoreU32(fp+FILEOffEOF, 0)
	return fp
}

// NewDIR allocates and initializes a DIR structure (plus its internal
// dirent buffer) for descriptor fd.
func (p *Process) NewDIR(fd int) cmem.Addr {
	dp := p.Malloc(SizeofDIR)
	if dp == 0 {
		return 0
	}
	buf := p.Malloc(SizeofDirent)
	if buf == 0 {
		return 0
	}
	p.StoreU32(dp+DIROffMagic, DIRMagic)
	p.StoreU32(dp+DIROffFD, uint32(int32(fd)))
	p.StoreU64(dp+DIROffPos, 0)
	p.StoreU64(dp+DIROffBuf, uint64(buf))
	return dp
}

// FILEFd reads the descriptor number out of a FILE structure. It faults
// if the FILE memory is inaccessible — this is precisely the read the
// wrapper's fileno-based validation performs under its own protection.
func (p *Process) FILEFd(fp cmem.Addr) int {
	return int(int32(p.LoadU32(fp + FILEOffFD)))
}

// Fopen opens name and allocates a FILE for it. mode follows fopen(3)
// semantics for "r", "w", "a", with optional "+" and ignored "b".
// Invalid mode strings yield 0 with EINVAL, matching the paper's ground
// truth that fopen copes with bad filenames but not bad modes — the
// *crash* on a bad mode happens in clib before validity is established.
func (p *Process) Fopen(name, mode string) cmem.Addr {
	var (
		acc    AccessMode
		create bool
		trunc  bool
		app    bool
		plus   bool
	)
	base := byte(0)
	if len(mode) > 0 {
		base = mode[0]
	}
	for _, c := range mode[min(1, len(mode)):] {
		switch c {
		case '+':
			plus = true
		case 'b':
			// binary flag: no effect
		default:
			p.SetErrno(EINVAL)
			return 0
		}
	}
	switch base {
	case 'r':
		acc = ReadOnly
	case 'w':
		acc, create, trunc = WriteOnly, true, true
	case 'a':
		acc, create, app = WriteOnly, true, true
	default:
		p.SetErrno(EINVAL)
		return 0
	}
	if plus {
		acc = ReadWrite
	}
	fd := p.OpenFile(name, acc, create)
	if fd < 0 {
		return 0
	}
	of := p.FD(fd)
	if trunc {
		p.TruncateForWrite(of)
	}
	if app {
		of.Pos = len(of.File.Data)
		of.Append = true
	}
	var flags uint32
	if acc.Readable() {
		flags |= FILEFlagRead
	}
	if acc.Writable() {
		flags |= FILEFlagWrite
	}
	if app {
		flags |= FILEFlagAppend
	}
	fp := p.NewFILE(fd, flags)
	if fp == 0 {
		p.CloseFD(fd)
		return 0
	}
	return fp
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
