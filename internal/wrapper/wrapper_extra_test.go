package wrapper

import (
	"bytes"
	"strings"
	"testing"

	"healers/internal/cmem"
	"healers/internal/csim"
	"healers/internal/obs"
)

func TestLibsafeStackFrameBound(t *testing.T) {
	// §5.1: a write destination on the stack may extend only to the
	// owning frame's saved link (the Libsafe check). A copy that would
	// smash the frame is rejected; one that fits is allowed.
	lib, decls := fullAutoDecls(t)
	p := newProc()
	ip := Attach(p, lib, decls, DefaultOptions())

	stack := p.Mem.Stack()
	stack.PushFrame(64)
	buf := stack.Alloca(16)
	limit, ok := stack.FrameLimit(buf)
	if !ok {
		t.Fatal("no frame limit")
	}

	fits := cstrAt(t, p, "ok")
	out := p.Run(func() uint64 { return ip.Call(p, "strcpy", uint64(buf), uint64(fits)) })
	if out.Kind != csim.OutcomeReturn || out.Ret != uint64(buf) {
		t.Fatalf("stack strcpy(fits) = %v", out)
	}

	smash := cstrAt(t, p, strings.Repeat("s", limit+10))
	p.ClearErrno()
	out = p.Run(func() uint64 { return ip.Call(p, "strcpy", uint64(buf), uint64(smash)) })
	if out.Crashed() {
		t.Fatal("stack smash crashed through the wrapper")
	}
	if out.Ret != 0 || p.Errno() != csim.EINVAL {
		t.Errorf("stack smash not rejected: %v errno=%d", out, p.Errno())
	}
}

func TestOnlyFilterSelectsFunctions(t *testing.T) {
	// §2: a system developer can choose which functions are wrapped.
	lib, decls := fullAutoDecls(t)
	p := newProc()
	opts := DefaultOptions()
	opts.Only = map[string]bool{"strcpy": true}
	ip := Attach(p, lib, decls, opts)

	// strcpy is checked: NULL rejected.
	p.ClearErrno()
	out := p.Run(func() uint64 { return ip.Call(p, "strcpy", 0, 0) })
	if out.Crashed() {
		t.Fatal("filtered-in strcpy crashed")
	}
	if p.Errno() != csim.EINVAL {
		t.Errorf("strcpy not checked: errno=%d", p.Errno())
	}
	// strlen is NOT checked: NULL passes through and crashes.
	out = p.Run(func() uint64 { return ip.Call(p, "strlen", 0) })
	if !out.Crashed() {
		t.Errorf("filtered-out strlen did not pass through: %v", out)
	}
}

// TestViolationLogWriter checks the deployed wrapper's violation log:
// a TextSink tracer renders each rejection as one line naming the
// function, the violated robust type, the errno, and the policy.
func TestViolationLogWriter(t *testing.T) {
	lib, decls := fullAutoDecls(t)
	p := newProc()
	var log bytes.Buffer
	opts := DefaultOptions()
	opts.Obs = obs.New(obs.NewTextSink(&log))
	ip := Attach(p, lib, decls, opts)
	p.Run(func() uint64 { return ip.Call(p, "strlen", 0xdead0000) })
	var violations []string
	for _, line := range strings.Split(strings.TrimSpace(log.String()), "\n") {
		if strings.Contains(line, " violation ") {
			violations = append(violations, line)
		}
	}
	if len(violations) != 1 {
		t.Fatalf("violation lines = %q, want exactly one", violations)
	}
	for _, want := range []string{"strlen", "CSTR", "EINVAL", "return-error"} {
		if !strings.Contains(violations[0], want) {
			t.Errorf("violation line %q missing %q", violations[0], want)
		}
	}
}

func TestReallocAndCallocTracking(t *testing.T) {
	lib, decls := fullAutoDecls(t)
	p := newProc()
	ip := Attach(p, lib, decls, DefaultOptions())

	a := ip.Call(p, "calloc", 4, 8) // 32 bytes tracked
	if ip.HeapTableSize() != 1 {
		t.Fatalf("table = %d", ip.HeapTableSize())
	}
	b := ip.Call(p, "realloc", a, 8)
	if ip.HeapTableSize() != 1 {
		t.Fatalf("table after realloc = %d", ip.HeapTableSize())
	}
	// The realloc'd block is 8 bytes: a 20-byte copy must be rejected.
	long := cstrAt(t, p, strings.Repeat("y", 20))
	p.ClearErrno()
	out := p.Run(func() uint64 { return ip.Call(p, "strcpy", b, uint64(long)) })
	if out.Crashed() || p.Errno() != csim.EINVAL {
		t.Errorf("overflow into shrunk block not rejected: %v errno=%d", out, p.Errno())
	}
	ip.Call(p, "free", b)
	if ip.HeapTableSize() != 0 {
		t.Errorf("table after free = %d", ip.HeapTableSize())
	}
	// Use-after-free through the wrapper: rejected, not crashed.
	p.ClearErrno()
	short := cstrAt(t, p, "z")
	out = p.Run(func() uint64 { return ip.Call(p, "strcpy", b, uint64(short)) })
	if out.Crashed() {
		t.Error("use-after-free crashed through the wrapper")
	}
	if p.Errno() != csim.EINVAL {
		t.Errorf("use-after-free not rejected: errno=%d", p.Errno())
	}
}

func TestStrdupTracked(t *testing.T) {
	lib, decls := fullAutoDecls(t)
	p := newProc()
	ip := Attach(p, lib, decls, DefaultOptions())
	src := cstrAt(t, p, "dup me")
	dup := ip.Call(p, "strdup", uint64(src))
	if dup == 0 {
		t.Fatal("strdup failed")
	}
	if ip.HeapTableSize() == 0 {
		t.Error("strdup result not tracked")
	}
	// Writing more than the dup's size into it is rejected.
	long := cstrAt(t, p, strings.Repeat("w", 50))
	p.ClearErrno()
	out := p.Run(func() uint64 { return ip.Call(p, "strcpy", dup, uint64(long)) })
	if out.Crashed() || p.Errno() != csim.EINVAL {
		t.Errorf("overflow into strdup block not rejected: %v errno=%d", out, p.Errno())
	}
}

func TestBoundedReadCheck(t *testing.T) {
	// strncpy's source: R_BOUNDED[arg2] — an unterminated region is fine
	// when n stays inside it and rejected when n exceeds it.
	lib, decls := fullAutoDecls(t)
	d, _ := decls.Get("strncpy")
	if d.Args[1].Robust.Base != "R_BOUNDED" {
		t.Skipf("strncpy src robust = %s", d.Args[1].Robust)
	}
	p := newProc()
	ip := Attach(p, lib, decls, DefaultOptions())
	dst := ip.Call(p, "malloc", 4096)

	// 16 readable bytes, no terminator, flush against a guard page.
	region, err := p.Mem.MmapRegion(cmem.PageSize, cmem.ProtRW)
	if err != nil {
		t.Fatal(err)
	}
	src := region + cmem.PageSize - 16
	for i := 0; i < 16; i++ {
		p.Mem.StoreByte(src+cmem.Addr(i), 'u')
	}

	out := p.Run(func() uint64 { return ip.Call(p, "strncpy", dst, uint64(src), 16) })
	if out.Kind != csim.OutcomeReturn || out.Ret != dst {
		t.Fatalf("strncpy(unterm, 16) = %v (should be a legal bounded copy)", out)
	}
	p.ClearErrno()
	out = p.Run(func() uint64 { return ip.Call(p, "strncpy", dst, uint64(src), 64) })
	if out.Crashed() {
		t.Fatal("strncpy(unterm, 64) crashed through the wrapper")
	}
	if p.Errno() != csim.EINVAL {
		t.Errorf("over-bound read not rejected: errno=%d", p.Errno())
	}
}

func TestProbePagesEdges(t *testing.T) {
	lib, decls := fullAutoDecls(t)
	p := newProc()
	ip := Attach(p, lib, decls, DefaultOptions())

	// Multi-page region: one byte per page suffices.
	big, _ := p.Mem.MmapRegion(3*cmem.PageSize, cmem.ProtRW)
	if !ip.probePages(big, 3*cmem.PageSize, true, true) {
		t.Error("multi-page probe failed")
	}
	// A hole in the middle fails.
	p.Mem.Unmap(big+cmem.PageSize, cmem.PageSize)
	if ip.probePages(big, 3*cmem.PageSize, true, false) {
		t.Error("probe missed the hole")
	}
	// Write probe on a read-only page fails.
	ro, _ := p.Mem.MmapRegion(16, cmem.ProtRead)
	if ip.probePages(ro, 16, false, true) {
		t.Error("write probe passed read-only page")
	}
	if !ip.probePages(ro, 16, true, false) {
		t.Error("read probe failed on read-only page")
	}
}

func TestUndeclaredFunctionPassesThrough(t *testing.T) {
	lib, decls := fullAutoDecls(t)
	p := newProc()
	ip := Attach(p, lib, decls, DefaultOptions())
	// isalpha was never injected (not in the 86): passthrough.
	ret := ip.Call(p, "isalpha", 'a')
	if ret != 1 {
		t.Errorf("isalpha = %d", ret)
	}
	if ip.Stats().Passthru == 0 {
		t.Error("no passthrough recorded")
	}
}
