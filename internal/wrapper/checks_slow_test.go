package wrapper

import (
	"testing"

	"healers/internal/cmem"
	"healers/internal/csim"
	"healers/internal/decl"
)

// Unit tests for the slow paths behind the memory and FILE checks: the
// three tiers of checkMemorySlow (allocation table, stack frames, page
// probing), the fileno+fstat round trip of checkFILESlow, and the
// buffer-coherence branches of checkFILEIntegrity. The scenario tests
// exercise these through whole library calls; these pin the per-tier
// verdicts directly.

func attachDefault(t *testing.T, p *csim.Process) *Interposer {
	t.Helper()
	lib, decls := fullAutoDecls(t)
	return Attach(p, lib, decls, DefaultOptions())
}

func TestCheckMemorySlowHeapTier(t *testing.T) {
	p := newProc()
	ip := attachDefault(t, p)
	base := ip.Call(p, "malloc", 24)
	if base == 0 {
		t.Fatal("malloc failed")
	}
	a := cmem.Addr(base)

	cases := []struct {
		name string
		addr cmem.Addr
		size int
		want bool
	}{
		{"exact-extent", a, 24, true},
		{"one-past", a, 25, false},
		{"interior-fit", a + 8, 16, true},
		{"interior-overflow", a + 8, 17, false},
		{"zero-size-live", a, 0, true},
	}
	for _, tc := range cases {
		// The heap tier gives exact bounds for both reads and writes.
		if got := ip.checkMemorySlow(tc.addr, tc.size, true, false); got != tc.want {
			t.Errorf("%s: read check = %v, want %v", tc.name, got, tc.want)
		}
		if tc.size >= 0 {
			if got := ip.checkMemorySlow(tc.addr, tc.size, true, true); got != tc.want {
				t.Errorf("%s: write check = %v, want %v", tc.name, got, tc.want)
			}
		}
	}

	// The negative-size guard sits in the checkMemory entry point,
	// before the tiers run.
	if ip.checkMemory(a, -1, true, false) {
		t.Error("negative size accepted")
	}

	// After free the tier-1 entry is gone; the verdict falls through to
	// page probing, which can no longer see the allocation boundary.
	ip.Call(p, "free", base)
	if _, _, ok := ip.heapLookup(a); ok {
		t.Error("freed allocation still in the table")
	}
}

func TestCheckMemorySlowStackTier(t *testing.T) {
	p := newProc()
	ip := attachDefault(t, p)
	st := p.Mem.Stack()
	fr := st.PushFrame(64)
	defer st.PopFrame()

	limit := int(fr.Base - fr.SP)
	// A write within the frame's locals is allowed up to the frame link
	// (the Libsafe bound) and refused one byte past it.
	if !ip.checkMemorySlow(fr.SP, limit, true, true) {
		t.Errorf("write of %d bytes within frame refused", limit)
	}
	if ip.checkMemorySlow(fr.SP, limit+1, true, true) {
		t.Error("write past the frame link allowed (stack smash)")
	}
	// Interior pointer: the bound shrinks with the offset.
	if ip.checkMemorySlow(fr.SP+8, limit-7, true, true) {
		t.Error("interior write past the frame link allowed")
	}
	// Reads are not frame-bounded: inspecting caller frames is legal.
	if !ip.checkMemorySlow(fr.SP, limit+1, true, false) {
		t.Error("stack read past the frame link refused")
	}
	// An address on the stack but outside any recorded frame's locals
	// has no frame limit; writes are still accepted (readable stack
	// memory, no link to protect below the deepest frame).
	if _, ok := st.FrameLimit(fr.SP - 32); ok {
		t.Fatal("address below the frame unexpectedly has a limit")
	}
	if !ip.checkMemorySlow(fr.SP-32, 8, true, true) {
		t.Error("unframed stack write refused")
	}
}

func TestCheckMemorySlowStatelessSkipsTables(t *testing.T) {
	lib, decls := fullAutoDecls(t)
	p := newProc()
	opts := DefaultOptions()
	opts.Stateless = true
	ip := Attach(p, lib, decls, opts)

	// Under Stateless even a tracked-overflow write inside a mapped page
	// passes: only page protection is consulted.
	base := ip.Call(p, "malloc", 8)
	if !ip.checkMemorySlow(cmem.Addr(base), 100, true, true) {
		t.Error("stateless intra-page overflow refused; the table tier leaked through")
	}
}

func TestProbePages(t *testing.T) {
	p := newProc()
	ip := attachDefault(t, p)

	rw := region(t, p, 2*cmem.PageSize, cmem.ProtRW)
	ro := region(t, p, cmem.PageSize, cmem.ProtRead)

	if !ip.probePages(rw, 2*cmem.PageSize, true, true) {
		t.Error("two mapped RW pages refused")
	}
	if !ip.probePages(rw+cmem.PageSize-1, 2, true, true) {
		t.Error("page-straddling range within the region refused")
	}
	if ip.probePages(rw+cmem.PageSize, cmem.PageSize+1, true, false) {
		t.Error("range running into the guard gap accepted")
	}
	if ip.probePages(0xdead0000, 1, true, false) {
		t.Error("unmapped page accepted")
	}
	if !ip.probePages(ro, 8, true, false) {
		t.Error("read of read-only page refused")
	}
	if ip.probePages(ro, 8, true, true) {
		t.Error("write to read-only page accepted")
	}
	// A range that wraps the address space is never valid.
	if ip.probePages(^cmem.Addr(0)-10, 100, true, false) {
		t.Error("wrapping range accepted")
	}
}

func TestCheckFILESlow(t *testing.T) {
	p := newProc()
	ip := attachDefault(t, p)

	rd := p.Fopen("/data/file.txt", "r")
	if rd == 0 {
		t.Fatal("fopen failed")
	}
	if !ip.checkFILESlow(rd, decl.OpenFILE) {
		t.Error("live read stream refused as OPEN_FILE")
	}
	// Access-mode refinement from the flag word.
	if !ip.checkFILESlow(rd, decl.RobustType{Base: "R_FILE"}.Kind()) {
		t.Error("read stream refused as R_FILE")
	}
	if ip.checkFILESlow(rd, decl.RobustType{Base: "W_FILE"}.Kind()) {
		t.Error("read-only stream accepted as W_FILE")
	}
	wr := p.Fopen("/data/file.txt", "r+")
	if !ip.checkFILESlow(wr, decl.RobustType{Base: "W_FILE"}.Kind()) {
		t.Error("read-write stream refused as W_FILE")
	}

	// A zeroed region of FILE size fails the fileno round trip: the
	// descriptor inside is not live.
	fake := region(t, p, csim.SizeofFILE, cmem.ProtRW)
	if ip.checkFILESlow(fake, decl.OpenFILE) {
		t.Error("zeroed pseudo-FILE accepted")
	}
	// Unmapped memory fails before any library call.
	if ip.checkFILESlow(0xdead0000, decl.OpenFILE) {
		t.Error("wild FILE pointer accepted")
	}
	// A FILE whose descriptor was closed behind it fails fstat.
	closed := p.Fopen("/data/file.txt", "r")
	fd := int64(ip.lib.Call(p, "fileno", uint64(closed)))
	p.CloseFD(int(fd))
	if ip.checkFILESlow(closed, decl.OpenFILE) {
		t.Error("stream with closed descriptor accepted")
	}
}

func TestCheckFILEIntegrityBranches(t *testing.T) {
	p := newProc()
	ip := attachDefault(t, p)

	real := p.Fopen("/data/file.txt", "r+")
	if !ip.checkFILEIntegrity(real) {
		t.Fatal("pristine stream fails the integrity assertion")
	}

	// Each corruption is applied to a fresh byte-copy of the real FILE,
	// so the fileno+fstat prefix still passes and the targeted branch is
	// the one that rejects.
	corrupt := func(mut func(at cmem.Addr)) cmem.Addr {
		copyAt := region(t, p, csim.SizeofFILE, cmem.ProtRW)
		data, _ := p.Mem.Read(real, csim.SizeofFILE)
		p.Mem.Write(copyAt, data)
		mut(copyAt)
		return copyAt
	}

	pristineCopy := corrupt(func(cmem.Addr) {})
	if !ip.checkFILEIntegrity(pristineCopy) {
		t.Error("coherent byte-copy refused")
	}
	badMagic := corrupt(func(at cmem.Addr) {
		p.Mem.WriteU32(at+csim.FILEOffMagic, 0x1bad)
	})
	if ip.checkFILEIntegrity(badMagic) {
		t.Error("clobbered magic accepted")
	}
	nullBuf := corrupt(func(at cmem.Addr) {
		p.Mem.WriteU64(at+csim.FILEOffBufPtr, 0)
	})
	if ip.checkFILEIntegrity(nullBuf) {
		t.Error("NULL buffer pointer accepted")
	}
	wildBuf := corrupt(func(at cmem.Addr) {
		p.Mem.WriteU64(at+csim.FILEOffBufPtr, 0xdead0000)
	})
	if ip.checkFILEIntegrity(wildBuf) {
		t.Error("wild buffer pointer accepted")
	}
	hugeBuf := corrupt(func(at cmem.Addr) {
		p.Mem.WriteU64(at+csim.FILEOffBufSize, 1<<30)
	})
	if ip.checkFILEIntegrity(hugeBuf) {
		t.Error("absurd buffer size accepted")
	}
}
