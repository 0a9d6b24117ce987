package csim

import (
	"strings"
	"testing"

	"healers/internal/cmem"
)

func TestRunReturn(t *testing.T) {
	p := NewProcess(nil)
	out := p.Run(func() uint64 { return 42 })
	if out.Kind != OutcomeReturn || out.Ret != 42 {
		t.Errorf("Run = %v, want return 42", out)
	}
	if out.Crashed() {
		t.Error("normal return reported as crash")
	}
}

func TestRunSegfault(t *testing.T) {
	p := NewProcess(nil)
	out := p.Run(func() uint64 {
		p.LoadByte(0xdead)
		return 0
	})
	if out.Kind != OutcomeSegfault {
		t.Fatalf("Run = %v, want segfault", out)
	}
	if out.Fault.Addr != 0xdead {
		t.Errorf("fault = %v, want addr 0xdead", out.Fault)
	}
	if !out.Crashed() {
		t.Error("segfault not reported as crash")
	}
}

func TestRunHang(t *testing.T) {
	p := NewProcess(nil)
	p.SetStepBudget(100)
	out := p.Run(func() uint64 {
		for {
			p.Step()
		}
	})
	if out.Kind != OutcomeHang {
		t.Errorf("Run = %v, want hang", out)
	}
}

func TestRunAbort(t *testing.T) {
	p := NewProcess(nil)
	out := p.Run(func() uint64 {
		p.Abort()
		return 0
	})
	if out.Kind != OutcomeAbort {
		t.Errorf("Run = %v, want abort", out)
	}
}

func TestRunDoesNotSwallowBugs(t *testing.T) {
	p := NewProcess(nil)
	defer func() {
		if recover() == nil {
			t.Error("simulator bug panic was swallowed by Run")
		}
	}()
	p.Run(func() uint64 { panic("simulator bug") })
}

func TestErrnoTracking(t *testing.T) {
	p := NewProcess(nil)
	if p.ErrnoSet() {
		t.Error("fresh process claims errno set")
	}
	p.SetErrno(EINVAL)
	if !p.ErrnoSet() || p.Errno() != EINVAL {
		t.Errorf("errno = %d set=%v", p.Errno(), p.ErrnoSet())
	}
	p.ClearErrno()
	if p.ErrnoSet() || p.Errno() != 0 {
		t.Error("ClearErrno did not reset")
	}
}

func TestErrnoNames(t *testing.T) {
	if got := ErrnoName(EINVAL); got != "EINVAL" {
		t.Errorf("ErrnoName(EINVAL) = %q", got)
	}
	if got := ErrnoName(ENOENT); got != "ENOENT" {
		t.Errorf("ErrnoName(ENOENT) = %q", got)
	}
	if got := ErrnoName(999); !strings.Contains(got, "999") {
		t.Errorf("ErrnoName(999) = %q", got)
	}
}

func TestForkIsolation(t *testing.T) {
	p := NewProcess(nil)
	a := p.Malloc(16)
	p.StoreByte(a, 1)
	c := p.Fork()
	c.StoreByte(a, 2)
	if b := p.LoadByte(a); b != 1 {
		t.Errorf("parent saw child write: %d", b)
	}
	c.SetErrno(EIO)
	if p.Errno() == EIO {
		t.Error("parent errno affected by child")
	}
}

func TestFSCreateLookupList(t *testing.T) {
	fs := NewFS()
	fs.Create("/tmp/a.txt", []byte("hello"))
	fs.Create("/tmp/b.txt", nil)
	fs.Mkdir("/tmp/sub")
	f, ok := fs.Lookup("/tmp/a.txt")
	if !ok || string(f.Data) != "hello" {
		t.Fatalf("Lookup = %v, %v", f, ok)
	}
	if _, ok := fs.Lookup("/tmp"); !ok {
		t.Error("parent dir not auto-created")
	}
	got := fs.List("/tmp")
	want := []string{"a.txt", "b.txt", "sub"}
	if len(got) != len(want) {
		t.Fatalf("List = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("List[%d] = %q, want %q", i, got[i], want[i])
		}
	}
	if !fs.Remove("/tmp/b.txt") {
		t.Error("Remove failed")
	}
	if fs.Remove("/tmp/b.txt") {
		t.Error("double Remove succeeded")
	}
}

func TestOpenFile(t *testing.T) {
	fs := NewFS()
	fs.Create("/data/in.txt", []byte("content"))
	p := NewProcess(fs)

	fd := p.OpenFile("/data/in.txt", ReadOnly, false)
	if fd < 0 {
		t.Fatalf("OpenFile = %d, errno %d", fd, p.Errno())
	}
	of := p.FD(fd)
	if of == nil || string(of.File.Data) != "content" {
		t.Fatal("FD lookup failed")
	}
	if !p.CloseFD(fd) {
		t.Error("CloseFD failed")
	}
	if p.FD(fd) != nil {
		t.Error("fd live after close")
	}
	if p.CloseFD(fd) {
		t.Error("double close succeeded")
	}
	if p.Errno() != EBADF {
		t.Errorf("errno after bad close = %d, want EBADF", p.Errno())
	}

	if fd := p.OpenFile("/missing", ReadOnly, false); fd != -1 {
		t.Errorf("open of missing file = %d", fd)
	}
	if p.Errno() != ENOENT {
		t.Errorf("errno = %d, want ENOENT", p.Errno())
	}
	if fd := p.OpenFile("/new.txt", WriteOnly, true); fd < 0 {
		t.Errorf("create open failed: errno %d", p.Errno())
	}
}

func TestOpenDir(t *testing.T) {
	fs := NewFS()
	fs.Create("/d/x", nil)
	fs.Create("/d/y", nil)
	p := NewProcess(fs)
	fd := p.OpenDir("/d")
	if fd < 0 {
		t.Fatalf("OpenDir failed: errno %d", p.Errno())
	}
	of := p.FD(fd)
	if !of.IsDir || len(of.Entries) != 2 {
		t.Errorf("dir entries = %v", of.Entries)
	}
	if fd := p.OpenDir("/d/x"); fd != -1 || p.Errno() != ENOTDIR {
		t.Errorf("OpenDir(file) = %d, errno %d", fd, p.Errno())
	}
	if fd := p.OpenDir("/nope"); fd != -1 || p.Errno() != ENOENT {
		t.Errorf("OpenDir(missing) = %d, errno %d", fd, p.Errno())
	}
}

func TestNewFILELayout(t *testing.T) {
	p := NewProcess(nil)
	fp := p.NewFILE(7, FILEFlagRead|FILEFlagWrite)
	if fp == 0 {
		t.Fatal("NewFILE returned null")
	}
	if m := p.LoadU32(fp + FILEOffMagic); m != FILEMagic {
		t.Errorf("magic = %#x", m)
	}
	if fd := p.FILEFd(fp); fd != 7 {
		t.Errorf("FILEFd = %d", fd)
	}
	buf := cmem.Addr(p.LoadU64(fp + FILEOffBufPtr))
	if buf == 0 {
		t.Fatal("no stdio buffer")
	}
	// The buffer must be writable simulated memory.
	p.StoreByte(buf, 0xAB)
	if sz := p.LoadU64(fp + FILEOffBufSize); sz != FILEBufSize {
		t.Errorf("bufsize = %d", sz)
	}
}

func TestFopenModes(t *testing.T) {
	fs := NewFS()
	fs.Create("/f.txt", []byte("abc"))
	tests := []struct {
		mode   string
		wantOK bool
		errno  int
		name   string
	}{
		{mode: "r", wantOK: true, name: "/f.txt"},
		{mode: "r+", wantOK: true, name: "/f.txt"},
		{mode: "w", wantOK: true, name: "/f.txt"},
		{mode: "w+", wantOK: true, name: "/f.txt"},
		{mode: "a", wantOK: true, name: "/f.txt"},
		{mode: "a+", wantOK: true, name: "/f.txt"},
		{mode: "rb", wantOK: true, name: "/f.txt"},
		{mode: "x", wantOK: false, errno: EINVAL, name: "/f.txt"},
		{mode: "", wantOK: false, errno: EINVAL, name: "/f.txt"},
		{mode: "r", wantOK: false, errno: ENOENT, name: "/missing.txt"},
	}
	for _, tt := range tests {
		t.Run(tt.mode+"_"+tt.name, func(t *testing.T) {
			p := NewProcess(fs)
			fs.Create("/f.txt", []byte("abc")) // reset after truncations
			fp := p.Fopen(tt.name, tt.mode)
			if tt.wantOK && fp == 0 {
				t.Fatalf("Fopen failed: errno %d", p.Errno())
			}
			if !tt.wantOK {
				if fp != 0 {
					t.Fatal("Fopen succeeded unexpectedly")
				}
				if p.Errno() != tt.errno {
					t.Errorf("errno = %d, want %d", p.Errno(), tt.errno)
				}
			}
		})
	}
}

func TestFopenTruncateAndAppend(t *testing.T) {
	fs := NewFS()
	fs.Create("/t.txt", []byte("12345"))
	p := NewProcess(fs)
	fp := p.Fopen("/t.txt", "w")
	if fp == 0 {
		t.Fatal("fopen w failed")
	}
	f, _ := fs.Lookup("/t.txt")
	if len(f.Data) != 0 {
		t.Errorf("mode w did not truncate: %q", f.Data)
	}
	fs.Create("/t.txt", []byte("12345"))
	fp = p.Fopen("/t.txt", "a")
	if fp == 0 {
		t.Fatal("fopen a failed")
	}
	of := p.FD(p.FILEFd(fp))
	if of.Pos != 5 || !of.Append {
		t.Errorf("append pos = %d append=%v", of.Pos, of.Append)
	}
}

func TestNewDIRLayout(t *testing.T) {
	p := NewProcess(nil)
	dp := p.NewDIR(5)
	if dp == 0 {
		t.Fatal("NewDIR returned null")
	}
	if m := p.LoadU32(dp + DIROffMagic); m != DIRMagic {
		t.Errorf("magic = %#x", m)
	}
	if fd := int(int32(p.LoadU32(dp + DIROffFD))); fd != 5 {
		t.Errorf("fd = %d", fd)
	}
}

func TestOutcomeStrings(t *testing.T) {
	outs := []Outcome{
		{Kind: OutcomeReturn, Ret: 1},
		{Kind: OutcomeSegfault, Fault: cmem.Fault{Addr: 0x10}},
		{Kind: OutcomeHang},
		{Kind: OutcomeAbort},
	}
	for _, o := range outs {
		if o.String() == "" {
			t.Errorf("empty string for %v", o.Kind)
		}
	}
	if OutcomeKind(0).String() == "" {
		t.Error("zero kind has empty string")
	}
}

func TestMallocSetsErrnoOnFailure(t *testing.T) {
	p := NewProcess(nil)
	if a := p.Malloc(-1); a != 0 {
		t.Errorf("Malloc(-1) = %#x", uint64(a))
	}
	if p.Errno() != ENOMEM {
		t.Errorf("errno = %d, want ENOMEM", p.Errno())
	}
}

func TestFILEFdOnGarbage(t *testing.T) {
	p := NewProcess(nil)
	a, _ := p.Mem.MmapRegion(csimSizeofFILEAlias, cmem.ProtRW)
	if fd := p.FILEFd(a); fd != 0 {
		t.Errorf("zeroed FILE fd = %d", fd)
	}
}

const csimSizeofFILEAlias = SizeofFILE

func TestOpenDirWritableRejected(t *testing.T) {
	fs := NewFS()
	fs.Mkdir("/d")
	p := NewProcess(fs)
	if fd := p.OpenFile("/d", WriteOnly, false); fd != -1 || p.Errno() != EISDIR {
		t.Errorf("open(dir, W) = %d errno=%d", fd, p.Errno())
	}
	// Reading a directory through open is tolerated (open(dir, O_RDONLY)).
	if fd := p.OpenFile("/d", ReadOnly, false); fd < 0 {
		t.Errorf("open(dir, R) failed: %d", p.Errno())
	}
}

func TestAccessModePredicates(t *testing.T) {
	if !ReadOnly.Readable() || ReadOnly.Writable() {
		t.Error("ReadOnly wrong")
	}
	if WriteOnly.Readable() || !WriteOnly.Writable() {
		t.Error("WriteOnly wrong")
	}
	if !ReadWrite.Readable() || !ReadWrite.Writable() {
		t.Error("ReadWrite wrong")
	}
}
