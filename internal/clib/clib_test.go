package clib

import (
	"strings"
	"testing"

	"healers/internal/cmem"
	"healers/internal/csim"
)

// fixture creates a library, a filesystem with some content, and a
// process ready to make calls.
func fixture(t *testing.T) (*Library, *csim.Process) {
	t.Helper()
	lib := New()
	fs := csim.NewFS()
	fs.Create("/data/hello.txt", []byte("hello world\nsecond line\n"))
	fs.Create("/data/other.txt", []byte("zzz"))
	fs.Mkdir("/empty")
	p := csim.NewProcess(fs)
	return lib, p
}

// buf allocates a writable region and returns its address.
func buf(t *testing.T, p *csim.Process, size int) cmem.Addr {
	t.Helper()
	a, err := p.Mem.MmapRegion(size, cmem.ProtRW)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// cstr allocates a region holding the given C string.
func cstr(t *testing.T, p *csim.Process, s string) cmem.Addr {
	t.Helper()
	a := buf(t, p, len(s)+1)
	if f := p.Mem.WriteCString(a, s); f != nil {
		t.Fatal(f)
	}
	return a
}

// call runs fn in the sandbox and returns the outcome.
func call(lib *Library, p *csim.Process, name string, args ...uint64) csim.Outcome {
	p.ClearErrno()
	return p.Run(func() uint64 { return lib.Call(p, name, args...) })
}

func wantReturn(t *testing.T, o csim.Outcome, ret uint64) {
	t.Helper()
	if o.Kind != csim.OutcomeReturn {
		t.Fatalf("outcome = %v, want return", o)
	}
	if o.Ret != ret {
		t.Fatalf("ret = %#x, want %#x", o.Ret, ret)
	}
}

func wantCrash(t *testing.T, o csim.Outcome) {
	t.Helper()
	if !o.Crashed() {
		t.Fatalf("outcome = %v, want crash", o)
	}
}

func TestLibraryShape(t *testing.T) {
	lib := New()
	ext := lib.External()
	inter := lib.Internal()
	total := len(ext) + len(inter)
	t.Logf("external=%d internal=%d total=%d", len(ext), len(inter), total)
	frac := float64(len(inter)) / float64(total)
	if frac <= 0.34 {
		t.Errorf("internal fraction = %.3f, want > 0.34 (paper: more than 34%%)", frac)
	}
	if len(lib.CrashProne86()) != 86 {
		t.Errorf("CrashProne86 has %d entries, want 86", len(lib.CrashProne86()))
	}
	for _, name := range lib.CrashProne86() {
		f, ok := lib.Lookup(name)
		if !ok {
			t.Errorf("crash-prone function %s not registered", name)
			continue
		}
		if f.Internal {
			t.Errorf("crash-prone function %s marked internal", name)
		}
		if f.Proto == "" || f.Header == "" {
			t.Errorf("crash-prone function %s missing prototype metadata", name)
		}
	}
}

func TestStrcpyBasic(t *testing.T) {
	lib, p := fixture(t)
	dst := buf(t, p, 64)
	src := cstr(t, p, "robust")
	o := call(lib, p, "strcpy", uint64(dst), uint64(src))
	wantReturn(t, o, uint64(dst))
	if s, _ := p.Mem.CString(dst); s != "robust" {
		t.Errorf("dst = %q", s)
	}
}

func TestStrcpyCrashes(t *testing.T) {
	lib, p := fixture(t)
	good := cstr(t, p, "x")
	tests := []struct {
		name     string
		dst, src uint64
	}{
		{"null dst", 0, uint64(good)},
		{"null src", uint64(buf(t, p, 8)), 0},
		{"wild dst", 0xdead0000, uint64(good)},
		{"wild src", uint64(buf(t, p, 8)), 0xdead0000},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			wantCrash(t, call(lib, p, "strcpy", tt.dst, tt.src))
		})
	}
}

func TestStrcpyOverflowsGuardPage(t *testing.T) {
	lib, p := fixture(t)
	dst := buf(t, p, cmem.PageSize) // exactly one page
	long := strings.Repeat("A", 2*cmem.PageSize)
	src := cstr(t, p, long)
	o := call(lib, p, "strcpy", uint64(dst), uint64(src))
	wantCrash(t, o)
	if o.Fault.Addr != dst+cmem.PageSize {
		t.Errorf("fault at %v, want guard page %#x", o.Fault, uint64(dst+cmem.PageSize))
	}
}

func TestStringFamilyNeverSetsErrno(t *testing.T) {
	lib, p := fixture(t)
	s1 := cstr(t, p, "alpha")
	s2 := cstr(t, p, "beta")
	names := []string{"strcmp", "strncmp", "strstr", "strpbrk", "strspn", "strcspn", "strcoll"}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			args := []uint64{uint64(s1), uint64(s2), 3}
			o := call(lib, p, name, args[:lib.MustLookup(name).NArgs]...)
			if o.Kind != csim.OutcomeReturn {
				t.Fatalf("outcome %v", o)
			}
			if p.ErrnoSet() {
				t.Errorf("%s set errno — must belong to the no-errno class", name)
			}
		})
	}
}

func TestStrlenAndFriends(t *testing.T) {
	lib, p := fixture(t)
	s := cstr(t, p, "hello")
	wantReturn(t, call(lib, p, "strlen", uint64(s)), 5)
	wantReturn(t, call(lib, p, "strchr", uint64(s), 'l'), uint64(s+2))
	wantReturn(t, call(lib, p, "strrchr", uint64(s), 'l'), uint64(s+3))
	wantReturn(t, call(lib, p, "strchr", uint64(s), 'z'), 0)
	hay := cstr(t, p, "needle in haystack")
	needle := cstr(t, p, "in")
	wantReturn(t, call(lib, p, "strstr", uint64(hay), uint64(needle)), uint64(hay+7))
}

func TestStrncpyPads(t *testing.T) {
	lib, p := fixture(t)
	dst := buf(t, p, 16)
	p.Store(dst, []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})
	src := cstr(t, p, "ab")
	wantReturn(t, call(lib, p, "strncpy", uint64(dst), uint64(src), 6), uint64(dst))
	got := p.Load(dst, 6)
	want := []byte{'a', 'b', 0, 0, 0, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("byte %d = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestStrcatAppends(t *testing.T) {
	lib, p := fixture(t)
	dst := buf(t, p, 32)
	p.StoreCString(dst, "foo")
	src := cstr(t, p, "bar")
	wantReturn(t, call(lib, p, "strcat", uint64(dst), uint64(src)), uint64(dst))
	if s, _ := p.Mem.CString(dst); s != "foobar" {
		t.Errorf("dst = %q", s)
	}
}

func TestStrtok(t *testing.T) {
	lib, p := fixture(t)
	s := cstr(t, p, "a,b,,c")
	delim := cstr(t, p, ",")
	o := call(lib, p, "strtok", uint64(s), uint64(delim))
	if o.Kind != csim.OutcomeReturn || o.Ret != uint64(s) {
		t.Fatalf("first strtok = %v", o)
	}
	o = call(lib, p, "strtok", 0, uint64(delim))
	tok, _ := p.Mem.CString(cmem.Addr(o.Ret))
	if tok != "b" {
		t.Errorf("second token = %q, want b", tok)
	}
	o = call(lib, p, "strtok", 0, uint64(delim))
	tok, _ = p.Mem.CString(cmem.Addr(o.Ret))
	if tok != "c" {
		t.Errorf("third token = %q, want c", tok)
	}
	wantReturn(t, call(lib, p, "strtok", 0, uint64(delim)), 0)
}

func TestMemFunctions(t *testing.T) {
	lib, p := fixture(t)
	a := buf(t, p, 64)
	b := buf(t, p, 64)
	p.Store(a, []byte{1, 2, 3, 4})
	wantReturn(t, call(lib, p, "memcpy", uint64(b), uint64(a), 4), uint64(b))
	if got := p.Load(b, 4); got[3] != 4 {
		t.Errorf("memcpy result = %v", got)
	}
	wantReturn(t, call(lib, p, "memcmp", uint64(a), uint64(b), 4), 0)
	p.StoreByte(b+3, 9)
	o := call(lib, p, "memcmp", uint64(a), uint64(b), 4)
	if int64(o.Ret) >= 0 {
		t.Errorf("memcmp = %d, want negative", int64(o.Ret))
	}
	wantReturn(t, call(lib, p, "memchr", uint64(a), 3, 4), uint64(a+2))
	wantReturn(t, call(lib, p, "memset", uint64(a), 0xAA, 8), uint64(a))
	if v := p.LoadByte(a + 7); v != 0xAA {
		t.Errorf("memset byte = %#x", v)
	}
	// Overlapping memmove must be correct in both directions.
	p.Store(a, []byte{1, 2, 3, 4, 5})
	wantReturn(t, call(lib, p, "memmove", uint64(a+2), uint64(a), 5), uint64(a+2))
	got := p.Load(a+2, 5)
	for i, want := range []byte{1, 2, 3, 4, 5} {
		if got[i] != want {
			t.Fatalf("memmove fwd byte %d = %d", i, got[i])
		}
	}
}

func TestMallocFreeAbort(t *testing.T) {
	lib, p := fixture(t)
	o := call(lib, p, "malloc", 100)
	if o.Kind != csim.OutcomeReturn || o.Ret == 0 {
		t.Fatalf("malloc = %v", o)
	}
	ptr := o.Ret
	wantReturn(t, call(lib, p, "free", ptr), 0)
	// Double free: glibc-style abort.
	o = call(lib, p, "free", ptr)
	if o.Kind != csim.OutcomeAbort {
		t.Errorf("double free = %v, want abort", o)
	}
	// free(NULL) is a defined no-op.
	wantReturn(t, call(lib, p, "free", 0), 0)
	// free of a non-heap pointer aborts.
	o = call(lib, p, "free", 0xdeadbeef)
	if o.Kind != csim.OutcomeAbort {
		t.Errorf("free(wild) = %v, want abort", o)
	}
}

func TestCallocRealloc(t *testing.T) {
	lib, p := fixture(t)
	o := call(lib, p, "calloc", 4, 8)
	if o.Ret == 0 {
		t.Fatal("calloc failed")
	}
	for i := 0; i < 32; i++ {
		if p.LoadByte(cmem.Addr(o.Ret)+cmem.Addr(i)) != 0 {
			t.Fatal("calloc memory not zeroed")
		}
	}
	p.StoreByte(cmem.Addr(o.Ret), 7)
	o2 := call(lib, p, "realloc", o.Ret, 64)
	if o2.Kind != csim.OutcomeReturn || o2.Ret == 0 {
		t.Fatalf("realloc = %v", o2)
	}
	if p.LoadByte(cmem.Addr(o2.Ret)) != 7 {
		t.Error("realloc lost contents")
	}
	if o3 := call(lib, p, "realloc", 0xbad000, 8); o3.Kind != csim.OutcomeAbort {
		t.Errorf("realloc(wild) = %v, want abort", o3)
	}
}

// --- asctime: the paper's running example ---

// makeTm allocates a struct tm with sensible contents and returns it.
func makeTm(t *testing.T, p *csim.Process) cmem.Addr {
	t.Helper()
	at := buf(t, p, csim.SizeofTm)
	storeTm(p, at, tmValue{sec: 30, minute: 45, hour: 12, mday: 4, mon: 6, year: 102, wday: 4, yday: 184})
	return at
}

func TestAsctimeValid(t *testing.T) {
	lib, p := fixture(t)
	at := makeTm(t, p)
	o := call(lib, p, "asctime", uint64(at))
	if o.Kind != csim.OutcomeReturn || o.Ret == 0 {
		t.Fatalf("asctime = %v", o)
	}
	s, _ := p.Mem.CString(cmem.Addr(o.Ret))
	if !strings.Contains(s, "Jul") || !strings.Contains(s, "2002") {
		t.Errorf("asctime output = %q", s)
	}
}

func TestAsctimeNullToleratedWithEINVAL(t *testing.T) {
	lib, p := fixture(t)
	o := call(lib, p, "asctime", 0)
	wantReturn(t, o, 0)
	if o.Errno != csim.EINVAL {
		t.Errorf("errno = %d, want EINVAL", o.Errno)
	}
}

func TestAsctimeNeedsExactly44Bytes(t *testing.T) {
	// The key ground truth behind R_ARRAY_NULL[44]: a 43-byte region
	// crashes, a 44-byte region does not.
	lib, p := fixture(t)

	// 43 readable bytes followed by a guard page.
	region, err := p.Mem.MmapRegion(cmem.PageSize, cmem.ProtRead)
	if err != nil {
		t.Fatal(err)
	}
	at := region + cmem.PageSize - 43
	wantCrash(t, call(lib, p, "asctime", uint64(at)))

	at = region + cmem.PageSize - 44
	o := call(lib, p, "asctime", uint64(at))
	if o.Kind != csim.OutcomeReturn {
		t.Fatalf("asctime with 44 readable bytes = %v, want return", o)
	}
}

func TestAsctimeReadOnlySuffices(t *testing.T) {
	lib, p := fixture(t)
	ro, err := p.Mem.MmapRegion(csim.SizeofTm, cmem.ProtRead)
	if err != nil {
		t.Fatal(err)
	}
	o := call(lib, p, "asctime", uint64(ro))
	if o.Kind != csim.OutcomeReturn {
		t.Errorf("asctime(read-only tm) = %v", o)
	}
}

func TestMktimeWritesItsArgument(t *testing.T) {
	lib, p := fixture(t)
	// Read-only struct tm: mktime normalizes in place, so it crashes.
	ro, err := p.Mem.MmapRegion(csim.SizeofTm, cmem.ProtRead)
	if err != nil {
		t.Fatal(err)
	}
	wantCrash(t, call(lib, p, "mktime", uint64(ro)))

	at := makeTm(t, p)
	o := call(lib, p, "mktime", uint64(at))
	if o.Kind != csim.OutcomeReturn {
		t.Fatalf("mktime = %v", o)
	}
	if p.ErrnoSet() {
		t.Error("mktime set errno (should be in the no-errno class)")
	}
}

func TestGmtimeLocaltimeCtime(t *testing.T) {
	lib, p := fixture(t)
	tp := buf(t, p, 8)
	p.StoreU64(tp, 1025740800) // 2002-07-04 00:00:00 UTC
	o := call(lib, p, "gmtime", uint64(tp))
	if o.Kind != csim.OutcomeReturn || o.Ret == 0 {
		t.Fatalf("gmtime = %v", o)
	}
	tm := loadTm(p, cmem.Addr(o.Ret))
	if tm.year != 102 || tm.mon != 6 || tm.mday != 4 {
		t.Errorf("gmtime = %+v", tm)
	}
	wantCrash(t, call(lib, p, "gmtime", 0))
	wantCrash(t, call(lib, p, "ctime", 0xbad))

	o = call(lib, p, "ctime", uint64(tp))
	if o.Kind != csim.OutcomeReturn {
		t.Fatalf("ctime = %v", o)
	}
	s, _ := p.Mem.CString(cmem.Addr(o.Ret))
	if !strings.Contains(s, "2002") {
		t.Errorf("ctime = %q", s)
	}
	if p.ErrnoSet() {
		t.Error("ctime set errno")
	}
	// Round trip: mktime(gmtime(t)) == t.
	o = call(lib, p, "gmtime", uint64(tp))
	o2 := call(lib, p, "mktime", o.Ret)
	if o2.Ret != 1025740800 {
		t.Errorf("mktime round trip = %d", int64(o2.Ret))
	}
}

func TestStrftime(t *testing.T) {
	lib, p := fixture(t)
	at := makeTm(t, p)
	out := buf(t, p, 64)
	format := cstr(t, p, "%Y-%m-%d %H:%M:%S")
	o := call(lib, p, "strftime", uint64(out), 64, uint64(format), uint64(at))
	if o.Kind != csim.OutcomeReturn {
		t.Fatalf("strftime = %v", o)
	}
	s, _ := p.Mem.CString(out)
	if s != "2002-07-04 12:45:30" {
		t.Errorf("strftime = %q", s)
	}
	// max == 0 is the consistent errno path.
	o = call(lib, p, "strftime", uint64(out), 0, uint64(format), uint64(at))
	wantReturn(t, o, 0)
	if o.Errno != csim.EINVAL {
		t.Errorf("errno = %d", o.Errno)
	}
	wantCrash(t, call(lib, p, "strftime", uint64(out), 64, 0, uint64(at)))
}

// --- stdio ---

// openFILE opens a real FILE for the fixture file.
func openFILE(t *testing.T, lib *Library, p *csim.Process, mode string) cmem.Addr {
	t.Helper()
	path := cstr(t, p, "/data/hello.txt")
	m := cstr(t, p, mode)
	o := call(lib, p, "fopen", uint64(path), uint64(m))
	if o.Kind != csim.OutcomeReturn || o.Ret == 0 {
		t.Fatalf("fopen = %v (errno %d)", o, o.Errno)
	}
	return cmem.Addr(o.Ret)
}

func TestFopenAsymmetry(t *testing.T) {
	// The paper: fopen crashes on an invalid mode *pointer* (parsed in
	// user space) but copes with an invalid path pointer (EFAULT from
	// the kernel).
	lib, p := fixture(t)
	goodPath := cstr(t, p, "/data/hello.txt")
	goodMode := cstr(t, p, "r")

	wantCrash(t, call(lib, p, "fopen", uint64(goodPath), 0xdead0000))
	wantCrash(t, call(lib, p, "fopen", uint64(goodPath), 0))

	o := call(lib, p, "fopen", 0xdead0000, uint64(goodMode))
	wantReturn(t, o, 0)
	if o.Errno != csim.EFAULT {
		t.Errorf("errno = %d, want EFAULT", o.Errno)
	}

	// Invalid mode *content* is a clean error.
	badMode := cstr(t, p, "q")
	o = call(lib, p, "fopen", uint64(goodPath), uint64(badMode))
	wantReturn(t, o, 0)
	if o.Errno != csim.EINVAL {
		t.Errorf("errno = %d, want EINVAL", o.Errno)
	}
}

func TestFreadFwriteRoundTrip(t *testing.T) {
	lib, p := fixture(t)
	fp := openFILE(t, lib, p, "r")
	dst := buf(t, p, 64)
	o := call(lib, p, "fread", uint64(dst), 1, 5, uint64(fp))
	wantReturn(t, o, 5)
	if got := string(p.Load(dst, 5)); got != "hello" {
		t.Errorf("fread got %q", got)
	}

	wfp := openFILE(t, lib, p, "w")
	src := buf(t, p, 8)
	p.Store(src, []byte("abc"))
	o = call(lib, p, "fwrite", uint64(src), 1, 3, uint64(wfp))
	wantReturn(t, o, 3)
	f, _ := p.FS.Lookup("/data/hello.txt")
	if string(f.Data) != "abc" {
		t.Errorf("file data = %q", f.Data)
	}
}

func TestCorruptedFILECrashesDespiteValidFd(t *testing.T) {
	// The struct-integrity failure class: FILE memory is accessible and
	// the descriptor is valid, but the internal buffer pointer is
	// garbage. fileno+fstat validation passes; the I/O path crashes.
	lib, p := fixture(t)
	fp := openFILE(t, lib, p, "r+")
	p.StoreU64(fp+csim.FILEOffBufPtr, 0xdead0000) // corrupt the buffer
	p.StoreU64(fp+csim.FILEOffBufPos, 4)          // pretend data is pending

	// fileno still succeeds: the fd inside is valid.
	o := call(lib, p, "fileno", uint64(fp))
	if o.Kind != csim.OutcomeReturn || int64(o.Ret) < 0 {
		t.Fatalf("fileno = %v", o)
	}

	for _, fn := range []struct {
		name string
		args []uint64
	}{
		{"fgetc", []uint64{uint64(fp)}},
		{"fputc", []uint64{'x', uint64(fp)}},
		{"fflush", []uint64{uint64(fp)}},
		{"fseek", []uint64{uint64(fp), 0, 0}},
		{"rewind", []uint64{uint64(fp)}},
		{"fclose", []uint64{uint64(fp)}},
	} {
		t.Run(fn.name, func(t *testing.T) {
			child := p.Fork()
			o := child.Run(func() uint64 { return lib.Call(child, fn.name, fn.args...) })
			if !o.Crashed() {
				t.Errorf("%s on corrupted FILE = %v, want crash", fn.name, o)
			}
		})
	}
}

func TestFgetsHangsOnNonPositiveSize(t *testing.T) {
	lib, p := fixture(t)
	fp := openFILE(t, lib, p, "r")
	s := buf(t, p, 64)
	// The spin spends the whole default budget at once: the hang lands
	// on the first over-budget step, as a loop of Step calls would.
	o := call(lib, p, "fgets", uint64(s), uint64(uint32(0)), uint64(fp))
	if o.Kind != csim.OutcomeHang || o.Steps != csim.DefaultStepBudget+1 {
		t.Fatalf("fgets(size=0) = %v after %d steps, want hang after %d", o, o.Steps, csim.DefaultStepBudget+1)
	}
	neg := uint64(0xFFFFFFFFFFFFFFFF) // -1
	o = call(lib, p, "fgets", uint64(s), neg, uint64(fp))
	if o.Kind != csim.OutcomeHang || o.Steps != csim.DefaultStepBudget+1 {
		t.Fatalf("fgets(size=-1) = %v after %d steps, want hang after %d", o, o.Steps, csim.DefaultStepBudget+1)
	}
	// And the happy path still works.
	o = call(lib, p, "fgets", uint64(s), 64, uint64(fp))
	if o.Kind != csim.OutcomeReturn || o.Ret != uint64(s) {
		t.Fatalf("fgets = %v", o)
	}
	line, _ := p.Mem.CString(s)
	if line != "hello world\n" {
		t.Errorf("fgets line = %q", line)
	}
}

func TestFflushDoesNotSetErrno(t *testing.T) {
	// The paper singles out fflush as the one function of the 37 that
	// is *supposed* to set errno but does not.
	lib, p := fixture(t)
	fp := openFILE(t, lib, p, "r")
	p.CloseFD(p.FILEFd(fp)) // make the stream stale
	o := call(lib, p, "fflush", uint64(fp))
	if o.Kind != csim.OutcomeReturn || o.Ret != cEOF {
		t.Fatalf("fflush = %v", o)
	}
	if p.ErrnoSet() {
		t.Error("fflush set errno; ground truth requires it not to")
	}
	// fflush(NULL) flushes all streams.
	wantReturn(t, call(lib, p, "fflush", 0), 0)
}

func TestFdopenInconsistentErrno(t *testing.T) {
	lib, p := fixture(t)
	fd := p.OpenFile("/data/hello.txt", csim.ReadOnly, false)
	mode := cstr(t, p, "a")
	o := call(lib, p, "fdopen", uint64(uint32(fd)), uint64(mode))
	if o.Kind != csim.OutcomeReturn || o.Ret == 0 {
		t.Fatalf("fdopen = %v", o)
	}
	if !p.ErrnoSet() {
		t.Error("fdopen(append) should spuriously set errno while succeeding")
	}
	// Error path returns NULL — a *different* value than the success
	// path that also set errno: the inconsistent class.
	o = call(lib, p, "fdopen", uint64(uint32(999)), uint64(mode))
	wantReturn(t, o, 0)
	if o.Errno != csim.EBADF {
		t.Errorf("errno = %d", o.Errno)
	}
}

func TestGetsOverflows(t *testing.T) {
	lib, p := fixture(t)
	p.Stdin = []byte(strings.Repeat("A", 3*cmem.PageSize) + "\n")
	s := buf(t, p, 16)
	wantCrash(t, call(lib, p, "gets", uint64(s)))

	// Short line fits.
	p2 := csim.NewProcess(p.FS)
	p2.Stdin = []byte("ok\nrest")
	s2 := buf(t, p2, 16)
	o := p2.Run(func() uint64 { return lib.Call(p2, "gets", uint64(s2)) })
	if o.Kind != csim.OutcomeReturn || o.Ret != uint64(s2) {
		t.Fatalf("gets = %v", o)
	}
	line, _ := p2.Mem.CString(s2)
	if line != "ok" {
		t.Errorf("gets line = %q", line)
	}
	// EOF with nothing read returns NULL.
	p3 := csim.NewProcess(p.FS)
	s3 := buf(t, p3, 16)
	o = p3.Run(func() uint64 { return lib.Call(p3, "gets", uint64(s3)) })
	wantReturn(t, o, 0)
}

func TestFgetcUngetc(t *testing.T) {
	lib, p := fixture(t)
	fp := openFILE(t, lib, p, "r")
	o := call(lib, p, "fgetc", uint64(fp))
	wantReturn(t, o, 'h')
	o = call(lib, p, "ungetc", 'X', uint64(fp))
	wantReturn(t, o, 'X')
	o = call(lib, p, "fgetc", uint64(fp))
	wantReturn(t, o, 'X')
	o = call(lib, p, "fgetc", uint64(fp))
	wantReturn(t, o, 'e')
	// Double ungetc fails cleanly.
	call(lib, p, "ungetc", 'Y', uint64(fp))
	o = call(lib, p, "ungetc", 'Z', uint64(fp))
	if o.Ret != cEOF || o.Errno != csim.EINVAL {
		t.Errorf("double ungetc = %v", o)
	}
}

func TestFseekFtellRewind(t *testing.T) {
	lib, p := fixture(t)
	fp := openFILE(t, lib, p, "r")
	wantReturn(t, call(lib, p, "fseek", uint64(fp), 6, 0), 0)
	wantReturn(t, call(lib, p, "ftell", uint64(fp)), 6)
	o := call(lib, p, "fgetc", uint64(fp))
	wantReturn(t, o, 'w')
	// Invalid whence.
	o = call(lib, p, "fseek", uint64(fp), 0, uint64(uint32(7)))
	if o.Ret != cEOF || o.Errno != csim.EINVAL {
		t.Errorf("fseek bad whence = %v", o)
	}
	wantReturn(t, call(lib, p, "rewind", uint64(fp)), 0)
	wantReturn(t, call(lib, p, "ftell", uint64(fp)), 0)
}

func TestFeofFerrorClearerr(t *testing.T) {
	lib, p := fixture(t)
	fp := openFILE(t, lib, p, "r")
	wantReturn(t, call(lib, p, "feof", uint64(fp)), 0)
	// Read to EOF.
	dst := buf(t, p, 256)
	call(lib, p, "fread", uint64(dst), 1, 200, uint64(fp))
	o := call(lib, p, "feof", uint64(fp))
	if o.Ret == 0 {
		t.Error("feof not set after reading past end")
	}
	wantReturn(t, call(lib, p, "clearerr", uint64(fp)), 0)
	wantReturn(t, call(lib, p, "feof", uint64(fp)), 0)
	wantCrash(t, call(lib, p, "feof", 0))
	wantCrash(t, call(lib, p, "ferror", 0xbad))
	wantCrash(t, call(lib, p, "clearerr", 0))
}

func TestFreopenReusesStream(t *testing.T) {
	lib, p := fixture(t)
	fp := openFILE(t, lib, p, "r")
	path := cstr(t, p, "/data/other.txt")
	mode := cstr(t, p, "r")
	o := call(lib, p, "freopen", uint64(path), uint64(mode), uint64(fp))
	if o.Kind != csim.OutcomeReturn || o.Ret != uint64(fp) {
		t.Fatalf("freopen = %v", o)
	}
	o = call(lib, p, "fgetc", uint64(fp))
	wantReturn(t, o, 'z')
}

func TestFreopenInconsistentErrno(t *testing.T) {
	lib, p := fixture(t)
	fp := openFILE(t, lib, p, "r")
	p.CloseFD(p.FILEFd(fp)) // stale stream
	path := cstr(t, p, "/data/other.txt")
	mode := cstr(t, p, "r")
	o := call(lib, p, "freopen", uint64(path), uint64(mode), uint64(fp))
	if o.Kind != csim.OutcomeReturn || o.Ret != uint64(fp) {
		t.Fatalf("freopen = %v", o)
	}
	if !p.ErrnoSet() {
		t.Error("freopen on stale stream should set errno despite succeeding")
	}
}

func TestPutsPerror(t *testing.T) {
	lib, p := fixture(t)
	s := cstr(t, p, "message")
	o := call(lib, p, "puts", uint64(s))
	if o.Kind != csim.OutcomeReturn {
		t.Fatalf("puts = %v", o)
	}
	if string(p.Stdout) != "message\n" {
		t.Errorf("stdout = %q", p.Stdout)
	}
	wantCrash(t, call(lib, p, "puts", 0))
	wantReturn(t, call(lib, p, "perror", 0), 0) // NULL prefix is allowed
	wantCrash(t, call(lib, p, "perror", 0xbad))
}

// --- dirent ---

func openDIR(t *testing.T, lib *Library, p *csim.Process, path string) cmem.Addr {
	t.Helper()
	pp := cstr(t, p, path)
	o := call(lib, p, "opendir", uint64(pp))
	if o.Kind != csim.OutcomeReturn || o.Ret == 0 {
		t.Fatalf("opendir = %v", o)
	}
	return cmem.Addr(o.Ret)
}

func TestDirentWalk(t *testing.T) {
	lib, p := fixture(t)
	dp := openDIR(t, lib, p, "/data")
	var names []string
	for {
		o := call(lib, p, "readdir", uint64(dp))
		if o.Kind != csim.OutcomeReturn {
			t.Fatalf("readdir = %v", o)
		}
		if o.Ret == 0 {
			break
		}
		name, _ := p.Mem.CString(cmem.Addr(o.Ret) + csim.DirentOffName)
		names = append(names, name)
	}
	if len(names) != 2 || names[0] != "hello.txt" || names[1] != "other.txt" {
		t.Errorf("entries = %v", names)
	}
	wantReturn(t, call(lib, p, "telldir", uint64(dp)), 2)
	wantReturn(t, call(lib, p, "rewinddir", uint64(dp)), 0)
	wantReturn(t, call(lib, p, "telldir", uint64(dp)), 0)
	call(lib, p, "seekdir", uint64(dp), 1)
	o := call(lib, p, "readdir", uint64(dp))
	name, _ := p.Mem.CString(cmem.Addr(o.Ret) + csim.DirentOffName)
	if name != "other.txt" {
		t.Errorf("after seekdir: %q", name)
	}
	wantReturn(t, call(lib, p, "closedir", uint64(dp)), 0)
}

func TestCorruptedDIRCrashes(t *testing.T) {
	// A DIR whose memory is accessible but whose internal buffer pointer
	// is garbage — the closedir failure class the paper describes.
	lib, p := fixture(t)
	dp := openDIR(t, lib, p, "/data")
	p.StoreU64(dp+csim.DIROffBuf, 0xdead0000)
	for _, fn := range []string{"readdir", "rewinddir", "telldir", "closedir"} {
		t.Run(fn, func(t *testing.T) {
			child := p.Fork()
			o := child.Run(func() uint64 { return lib.Call(child, fn, uint64(dp)) })
			if !o.Crashed() {
				t.Errorf("%s on corrupted DIR = %v, want crash", fn, o)
			}
		})
	}
	t.Run("seekdir", func(t *testing.T) {
		child := p.Fork()
		o := child.Run(func() uint64 { return lib.Call(child, "seekdir", uint64(dp), 0) })
		if !o.Crashed() {
			t.Errorf("seekdir on corrupted DIR = %v, want crash", o)
		}
	})
}

func TestDirentBadPointerCrashes(t *testing.T) {
	lib, p := fixture(t)
	for _, fn := range []string{"readdir", "closedir", "telldir", "rewinddir"} {
		wantCrash(t, call(lib, p, fn, 0))
		wantCrash(t, call(lib, p, fn, 0xdead0000))
	}
	wantCrash(t, call(lib, p, "opendir", 0))
}

// --- stdlib ---

func TestAtoiAtolAtof(t *testing.T) {
	lib, p := fixture(t)
	tests := []struct {
		in   string
		want int64
	}{
		{"42", 42},
		{"  -17", -17},
		{"+9", 9},
		{"12abc", 12},
		{"abc", 0},
		{"", 0},
	}
	for _, tt := range tests {
		s := cstr(t, p, tt.in)
		o := call(lib, p, "atoi", uint64(s))
		if int64(int32(uint32(o.Ret))) != tt.want {
			t.Errorf("atoi(%q) = %d, want %d", tt.in, int64(int32(uint32(o.Ret))), tt.want)
		}
		o = call(lib, p, "atol", uint64(s))
		if int64(o.Ret) != tt.want {
			t.Errorf("atol(%q) = %d", tt.in, int64(o.Ret))
		}
		if p.ErrnoSet() {
			t.Errorf("ato* set errno for %q", tt.in)
		}
	}
	wantCrash(t, call(lib, p, "atoi", 0))
	s := cstr(t, p, "3.5")
	o := call(lib, p, "atof", uint64(s))
	if o.Kind != csim.OutcomeReturn {
		t.Fatalf("atof = %v", o)
	}
}

func TestStrtolBehaviour(t *testing.T) {
	lib, p := fixture(t)
	s := cstr(t, p, "0x1F rest")
	end := buf(t, p, 8)
	o := call(lib, p, "strtol", uint64(s), uint64(end), 16)
	wantReturn(t, o, 31)
	endp := p.LoadU64(end)
	if endp != uint64(s+4) {
		t.Errorf("endptr = %#x, want %#x", endp, uint64(s+4))
	}
	// Bad base: consistent EINVAL with return 0.
	o = call(lib, p, "strtol", uint64(s), 0, 99)
	wantReturn(t, o, 0)
	if o.Errno != csim.EINVAL {
		t.Errorf("errno = %d", o.Errno)
	}
	// NULL endptr is fine; bad endptr crashes.
	wantReturn(t, call(lib, p, "strtol", uint64(s), 0, 16), 31)
	wantCrash(t, call(lib, p, "strtol", uint64(s), 0xbad, 16))
	// Octal and auto-base.
	s8 := cstr(t, p, "070")
	wantReturn(t, call(lib, p, "strtol", uint64(s8), 0, 0), 56)
}

func TestQsortBsearch(t *testing.T) {
	lib, p := fixture(t)
	arr := buf(t, p, 64)
	vals := []uint32{5, 3, 8, 1, 9, 2}
	for i, v := range vals {
		p.StoreU32(arr+cmem.Addr(4*i), v)
	}
	cmp := p.RegisterCallback(func(pp *csim.Process, args []uint64) uint64 {
		a := int32(pp.LoadU32(cmem.Addr(args[0])))
		b := int32(pp.LoadU32(cmem.Addr(args[1])))
		return uint64(int64(a - b))
	})
	o := call(lib, p, "qsort", uint64(arr), uint64(len(vals)), 4, uint64(cmp))
	if o.Kind != csim.OutcomeReturn {
		t.Fatalf("qsort = %v", o)
	}
	want := []uint32{1, 2, 3, 5, 8, 9}
	for i, w := range want {
		if got := p.LoadU32(arr + cmem.Addr(4*i)); got != w {
			t.Errorf("sorted[%d] = %d, want %d", i, got, w)
		}
	}
	// bsearch finds an element.
	key := buf(t, p, 4)
	p.StoreU32(key, 8)
	o = call(lib, p, "bsearch", uint64(key), uint64(arr), uint64(len(vals)), 4, uint64(cmp))
	if o.Ret != uint64(arr+16) {
		t.Errorf("bsearch = %#x, want %#x", o.Ret, uint64(arr+16))
	}
	p.StoreU32(key, 7)
	o = call(lib, p, "bsearch", uint64(key), uint64(arr), uint64(len(vals)), 4, uint64(cmp))
	wantReturn(t, o, 0)
}

func TestQsortGarbageComparatorCrashes(t *testing.T) {
	lib, p := fixture(t)
	arr := buf(t, p, 64)
	p.StoreU32(arr, 2)
	p.StoreU32(arr+4, 1)
	o := call(lib, p, "qsort", uint64(arr), 2, 4, 0xdeadbeef)
	wantCrash(t, o)
}

// --- termios: the read/write asymmetry the paper highlights ---

func TestCfsetispeedWriteOnlyAccess(t *testing.T) {
	lib, p := fixture(t)
	// A write-only region suffices for cfsetispeed...
	wo, err := p.Mem.MmapRegion(csim.SizeofTermios, cmem.ProtWrite)
	if err != nil {
		t.Fatal(err)
	}
	o := call(lib, p, "cfsetispeed", uint64(wo), 13)
	if o.Kind != csim.OutcomeReturn || o.Ret != 0 {
		t.Fatalf("cfsetispeed(write-only) = %v", o)
	}
	// ...but NOT for cfsetospeed, which reads c_cflag first.
	wantCrash(t, call(lib, p, "cfsetospeed", uint64(wo), 13))

	rw := buf(t, p, csim.SizeofTermios)
	o = call(lib, p, "cfsetospeed", uint64(rw), 13)
	if o.Kind != csim.OutcomeReturn || o.Ret != 0 {
		t.Fatalf("cfsetospeed(rw) = %v", o)
	}
	// Read-only fails for both setters.
	ro, err := p.Mem.MmapRegion(csim.SizeofTermios, cmem.ProtRead)
	if err != nil {
		t.Fatal(err)
	}
	wantCrash(t, call(lib, p, "cfsetispeed", uint64(ro), 13))
	// And the getters need only read access.
	o = call(lib, p, "cfgetispeed", uint64(ro))
	if o.Kind != csim.OutcomeReturn {
		t.Fatalf("cfgetispeed(ro) = %v", o)
	}
}

func TestCfSpeedInvalidBaud(t *testing.T) {
	lib, p := fixture(t)
	rw := buf(t, p, csim.SizeofTermios)
	o := call(lib, p, "cfsetispeed", uint64(rw), 9999)
	if o.Ret != cEOF || o.Errno != csim.EINVAL {
		t.Errorf("cfsetispeed(bad baud) = %v", o)
	}
}

func TestTcAttr(t *testing.T) {
	lib, p := fixture(t)
	fd := p.OpenFile("/data/hello.txt", csim.ReadOnly, false)
	tp := buf(t, p, csim.SizeofTermios)
	o := call(lib, p, "tcgetattr", uint64(uint32(fd)), uint64(tp))
	wantReturn(t, o, 0)
	if sp := p.LoadU32(tp + csim.TermiosOffIspeed); sp != 13 {
		t.Errorf("ispeed = %d", sp)
	}
	wantCrash(t, call(lib, p, "tcgetattr", uint64(uint32(fd)), 0))
	o = call(lib, p, "tcgetattr", uint64(uint32(999)), uint64(tp))
	if o.Ret != cEOF || o.Errno != csim.EBADF {
		t.Errorf("tcgetattr(bad fd) = %v", o)
	}
	wantReturn(t, call(lib, p, "tcsetattr", uint64(uint32(fd)), 0, uint64(tp)), 0)
	o = call(lib, p, "tcsetattr", uint64(uint32(fd)), uint64(uint32(9)), uint64(tp))
	if o.Ret != cEOF || o.Errno != csim.EINVAL {
		t.Errorf("tcsetattr(bad actions) = %v", o)
	}
	wantCrash(t, call(lib, p, "tcsetattr", uint64(uint32(fd)), 0, 0xbad))
}

// --- syscall-backed functions never crash ---

func TestSyscallFunctionsNeverCrashOnBadPointers(t *testing.T) {
	lib, p := fixture(t)
	fd := p.OpenFile("/data/hello.txt", csim.ReadOnly, false)
	wfd := p.OpenFile("/data/other.txt", csim.WriteOnly, false)
	bad := uint64(0xdead0000)
	tests := []struct {
		name string
		args []uint64
	}{
		{"open", []uint64{bad, 0}},
		{"creat", []uint64{bad, 0o644}},
		{"read", []uint64{uint64(uint32(fd)), bad, 10}},
		{"write", []uint64{uint64(uint32(wfd)), bad, 10}},
		{"access", []uint64{bad, 0}},
		{"chdir", []uint64{bad}},
		{"unlink", []uint64{bad}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			o := call(lib, p, tt.name, tt.args...)
			if o.Crashed() {
				t.Fatalf("%s crashed on bad pointer: %v", tt.name, o)
			}
			if o.Ret != cEOF {
				t.Errorf("ret = %#x, want -1", o.Ret)
			}
			if o.Errno != csim.EFAULT {
				t.Errorf("errno = %d, want EFAULT", o.Errno)
			}
		})
	}
	// close/lseek take no pointers; bad fd is a clean EBADF.
	o := call(lib, p, "close", uint64(uint32(999)))
	if o.Crashed() || o.Errno != csim.EBADF {
		t.Errorf("close(999) = %v", o)
	}
	o = call(lib, p, "lseek", uint64(uint32(999)), 0, 0)
	if o.Crashed() || o.Errno != csim.EBADF {
		t.Errorf("lseek(999) = %v", o)
	}
}

func TestReadWriteHappyPath(t *testing.T) {
	lib, p := fixture(t)
	fd := p.OpenFile("/data/hello.txt", csim.ReadOnly, false)
	dst := buf(t, p, 32)
	o := call(lib, p, "read", uint64(uint32(fd)), uint64(dst), 5)
	wantReturn(t, o, 5)
	if got := string(p.Load(dst, 5)); got != "hello" {
		t.Errorf("read = %q", got)
	}
	wfd := p.OpenFile("/out.txt", csim.WriteOnly, true)
	src := cstr(t, p, "data")
	o = call(lib, p, "write", uint64(uint32(wfd)), uint64(src), 4)
	wantReturn(t, o, 4)
	f, _ := p.FS.Lookup("/out.txt")
	if string(f.Data) != "data" {
		t.Errorf("written = %q", f.Data)
	}
}

func TestStatFamilyCrashesOnBadBuf(t *testing.T) {
	lib, p := fixture(t)
	path := cstr(t, p, "/data/hello.txt")
	st := buf(t, p, csim.SizeofStat)
	wantReturn(t, call(lib, p, "stat", uint64(path), uint64(st)), 0)
	if sz := p.LoadU64(st + csim.StatOffSize); sz != 24 {
		t.Errorf("st_size = %d, want 24", sz)
	}
	// stat does user-space work: bad pointers crash (not in the safe 9).
	wantCrash(t, call(lib, p, "stat", 0, uint64(st)))
	wantCrash(t, call(lib, p, "stat", uint64(path), 0))
	fd := p.OpenFile("/data/hello.txt", csim.ReadOnly, false)
	wantReturn(t, call(lib, p, "fstat", uint64(uint32(fd)), uint64(st)), 0)
	wantCrash(t, call(lib, p, "fstat", uint64(uint32(fd)), 0xbad))
	o := call(lib, p, "fstat", uint64(uint32(999)), uint64(st))
	if o.Errno != csim.EBADF {
		t.Errorf("fstat(bad fd) = %v", o)
	}
}

func TestGetcwd(t *testing.T) {
	lib, p := fixture(t)
	b := buf(t, p, 64)
	o := call(lib, p, "getcwd", uint64(b), 64)
	if o.Ret != uint64(b) {
		t.Fatalf("getcwd = %v", o)
	}
	s, _ := p.Mem.CString(b)
	if s != "/" {
		t.Errorf("cwd = %q", s)
	}
	o = call(lib, p, "getcwd", uint64(b), 0)
	if o.Ret != 0 || o.Errno != csim.EINVAL {
		t.Errorf("getcwd(size 0) = %v", o)
	}
	// chdir then getcwd reflects the new directory.
	dir := cstr(t, p, "/data")
	wantReturn(t, call(lib, p, "chdir", uint64(dir)), 0)
	o = call(lib, p, "getcwd", uint64(b), 64)
	s, _ = p.Mem.CString(b)
	if s != "/data" {
		t.Errorf("cwd = %q", s)
	}
	// NULL buffer: allocation extension.
	o = call(lib, p, "getcwd", 0, 64)
	if o.Ret == 0 {
		t.Fatal("getcwd(NULL) failed")
	}
	// Bad buffer crashes (user-space copy).
	wantCrash(t, call(lib, p, "getcwd", 0xbad, 64))
}

func TestMkstemp(t *testing.T) {
	lib, p := fixture(t)
	tpl := cstr(t, p, "/tmp/fileXXXXXX")
	o := call(lib, p, "mkstemp", uint64(tpl))
	if o.Kind != csim.OutcomeReturn || int64(o.Ret) < 0 {
		t.Fatalf("mkstemp = %v", o)
	}
	name, _ := p.Mem.CString(tpl)
	if strings.Contains(name, "X") {
		t.Errorf("template not filled: %q", name)
	}
	if _, ok := p.FS.Lookup(name); !ok {
		t.Errorf("file %q not created", name)
	}
	// Bad template suffix: clean EINVAL.
	bad := cstr(t, p, "/tmp/nope")
	o = call(lib, p, "mkstemp", uint64(bad))
	if o.Ret != cEOF || o.Errno != csim.EINVAL {
		t.Errorf("mkstemp(bad) = %v", o)
	}
	// Read-only template: mkstemp writes in place and crashes.
	ro, err := p.Mem.MmapRegion(64, cmem.ProtRead)
	if err != nil {
		t.Fatal(err)
	}
	// Can't write the template into a read-only page directly; map RW
	// first, fill, then protect.
	p.Mem.Protect(ro, 64, cmem.ProtRW)
	p.StoreCString(ro, "/tmp/roXXXXXX")
	p.Mem.Protect(ro, 64, cmem.ProtRead)
	wantCrash(t, call(lib, p, "mkstemp", uint64(ro)))
}

func TestCtypeSafe(t *testing.T) {
	lib, p := fixture(t)
	wantReturn(t, call(lib, p, "isalpha", 'a'), 1)
	wantReturn(t, call(lib, p, "isalpha", '1'), 0)
	wantReturn(t, call(lib, p, "isdigit", '7'), 1)
	wantReturn(t, call(lib, p, "toupper", 'x'), 'X')
	wantReturn(t, call(lib, p, "tolower", 'X'), 'x')
	// Even absurd values cannot crash these.
	o := call(lib, p, "isalpha", 0xFFFFFFFFFFFFFFFF)
	if o.Crashed() {
		t.Error("isalpha crashed")
	}
}

func TestInternalAliases(t *testing.T) {
	lib, p := fixture(t)
	s := cstr(t, p, "hello")
	wantReturn(t, call(lib, p, "__strlen_internal", uint64(s)), 5)
	o := call(lib, p, "__errno_location")
	if o.Ret == 0 {
		t.Error("__errno_location returned NULL")
	}
	o = call(lib, p, "__assert_fail", 0, 0, 0, 0)
	if o.Kind != csim.OutcomeAbort {
		t.Errorf("__assert_fail = %v, want abort", o)
	}
}

func TestDup(t *testing.T) {
	lib, p := fixture(t)
	fd := p.OpenFile("/data/hello.txt", csim.ReadOnly, false)
	o := call(lib, p, "dup", uint64(uint32(fd)))
	if o.Kind != csim.OutcomeReturn || int64(o.Ret) < 0 {
		t.Fatalf("dup = %v", o)
	}
	if p.FD(int(int32(uint32(o.Ret)))) != p.FD(fd) {
		t.Error("dup does not share open-file description")
	}
	o = call(lib, p, "dup", uint64(uint32(999)))
	if o.Errno != csim.EBADF {
		t.Errorf("dup(999) = %v", o)
	}
}

func TestDifftimeTimeSafe(t *testing.T) {
	lib, p := fixture(t)
	o := call(lib, p, "difftime", 100, 40)
	wantReturn(t, o, 60)
	tp := buf(t, p, 8)
	o = call(lib, p, "time", uint64(tp))
	if o.Kind != csim.OutcomeReturn || o.Ret == 0 {
		t.Fatalf("time = %v", o)
	}
	if v := p.LoadU64(tp); v != o.Ret {
		t.Errorf("time tloc = %d, ret %d", v, o.Ret)
	}
	// time(NULL) does not crash.
	o = call(lib, p, "time", 0)
	if o.Crashed() {
		t.Error("time(NULL) crashed")
	}
}

// TestTruncatedFileGapReadsZeros: a truncating open of a fork-shared
// file takes a parked file that kept its buffer, whose bytes past the
// new end are still those of its last life. A write past the end must
// read back zeros in the gap all the same.
func TestTruncatedFileGapReadsZeros(t *testing.T) {
	lib := New()
	fs := csim.NewFS()
	fs.Create("/f", []byte("fixture"))
	tpl := csim.NewProcess(fs)
	open := func(p *csim.Process) cmem.Addr {
		o := call(lib, p, "fopen", uint64(cstr(t, p, "/f")), uint64(cstr(t, p, "w")))
		if o.Kind != csim.OutcomeReturn || o.Ret == 0 {
			t.Fatalf("fopen = %v (errno %d)", o, o.Errno)
		}
		return cmem.Addr(o.Ret)
	}
	const gap = 100
	reused := false
	// A parked file is only ever saved, never owed (a collection may
	// empty the free lists), so a few rounds make sure one is reused.
	for round := 0; round < 20 && !reused; round++ {
		// A child fills the truncated file with 'x' and is released,
		// which parks its private copy with the buffer.
		c := tpl.Fork()
		fp := open(c)
		fill := cstr(t, c, strings.Repeat("x", 8<<10))
		wantReturn(t, call(lib, c, "fwrite", uint64(fill), 1, 8<<10, uint64(fp)), 8<<10)
		wantReturn(t, call(lib, c, "fflush", uint64(fp)), 0)
		c.Release()

		c = tpl.Fork()
		fp = open(c)
		of := c.FD(c.FILEFd(fp))
		reused = cap(of.File.Data) >= gap
		wantReturn(t, call(lib, c, "fseek", uint64(fp), gap, 0), 0)
		wantReturn(t, call(lib, c, "fputc", '!', uint64(fp)), '!')
		wantReturn(t, call(lib, c, "fflush", uint64(fp)), 0)
		want := append(make([]byte, gap), '!')
		if got := c.FD(c.FILEFd(fp)).File.Data; string(got) != string(want) {
			t.Fatalf("round %d: file holds %q, want %d zeros and '!'", round, got, gap)
		}
		c.Release()
	}
	if !reused {
		t.Error("no truncating open reused a parked buffer")
	}
}
