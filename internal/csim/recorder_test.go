package csim

import (
	"bytes"
	"reflect"
	"slices"
	"strings"
	"testing"

	"healers/internal/cmem"
)

// oracleLen is the length handed to every integer, string and byte
// slice argument of an accessor under the footprint oracle.
const oracleLen = 5

// footprintRun is one oracle call: the outcome, whether it succeeded
// (returned, and a kernel copy's ok result is true), and what the
// memory recorder saw.
type footprintRun struct {
	base    cmem.Addr
	out     Outcome
	ok      bool
	touches []cmem.Touch
}

// extent is how many bytes from base the recorded accesses reach.
func (r footprintRun) extent() int {
	e := 0
	for _, tc := range r.touches {
		e = max(e, int(tc.Addr-r.base)+tc.N)
	}
	return e
}

// callFootprint calls method m in a fresh process with its address
// argument (index ai of m's inputs) at a region of size bytes that ends
// flush against an unmapped guard page, mapped with prot. The region
// holds 'x' bytes with a NUL at offset 3 when it is long enough, so a
// string reader reads "xxx".
func callFootprint(t *testing.T, m reflect.Method, ai, size int, prot cmem.Prot) footprintRun {
	t.Helper()
	p := NewProcess(nil)
	defer p.Release()
	page, err := p.Mem.MmapRegion(cmem.PageSize, cmem.ProtRW)
	if err != nil {
		t.Fatal(err)
	}
	r := footprintRun{base: page + cmem.PageSize - cmem.Addr(size)}
	data := bytes.Repeat([]byte{'x'}, size)
	if size > 3 {
		data[3] = 0
	}
	if f := p.Mem.Write(r.base, data); f != nil {
		t.Fatal(f)
	}
	p.Mem.Protect(page, cmem.PageSize, prot)

	in := []reflect.Value{reflect.ValueOf(p)}
	for i := 1; i < m.Type.NumIn(); i++ {
		at := m.Type.In(i)
		switch {
		case i == ai:
			in = append(in, reflect.ValueOf(r.base))
		case at.Kind() == reflect.Int:
			in = append(in, reflect.ValueOf(oracleLen))
		case at.Kind() == reflect.String:
			in = append(in, reflect.ValueOf(string(bytes.Repeat([]byte{'y'}, oracleLen))))
		case at == reflect.TypeOf([]byte(nil)):
			in = append(in, reflect.ValueOf(bytes.Repeat([]byte{'y'}, oracleLen)))
		default:
			in = append(in, reflect.Zero(at))
		}
	}
	p.Mem.Recorder = func(tc cmem.Touch) { r.touches = append(r.touches, tc) }
	var outs []reflect.Value
	r.out = p.Run(func() uint64 { outs = m.Func.Call(in); return 0 })
	r.ok = r.out.Kind == OutcomeReturn
	if n := len(outs); n > 0 && outs[n-1].Kind() == reflect.Bool {
		r.ok = r.ok && outs[n-1].Bool()
	}
	return r
}

// TestFootprintOracle checks the memory recorder against every
// exported *Process method that takes an address, found by reflection,
// so a new accessor is covered the day it is added — the span accessors
// LoadSpan and StoreSpan, whose views the byte kernels move a page
// segment at a time, and the string views LoadCStringView and
// CStringViewFromUser among them. Each is called on a region that ends
// at a guard page:
//
//   - The recorded extent is exact: a region that long succeeds, and one
//     a byte shorter fails at the guard page (a segfault at its first
//     byte, or a kernel copy's ok = false).
//   - A faulting access is reported before it faults: the failing run's
//     record covers the guard byte.
//   - Kernel is set exactly on the copies that report failure with an
//     ok result, Scan exactly on the accessors that read a C string:
//     those that return a string, and the CStringView ones that return
//     its bytes.
//   - Read and write are right: a read-only region takes every access
//     unless one is recorded as a write, a write-only region unless one
//     is recorded as a read.
//
// A method that records nothing must behave the same on an empty
// region as on a large one.
func TestFootprintOracle(t *testing.T) {
	addrType := reflect.TypeOf(cmem.Addr(0))
	pt := reflect.TypeOf((*Process)(nil))
	methods := 0
	for i := 0; i < pt.NumMethod(); i++ {
		m := pt.Method(i)
		ai := -1
		for j := 1; j < m.Type.NumIn(); j++ {
			if m.Type.In(j) != addrType {
				continue
			}
			if ai >= 0 {
				t.Fatalf("%s takes two addresses; the oracle places one region", m.Name)
			}
			ai = j
		}
		if ai < 0 {
			continue
		}
		methods++
		t.Run(m.Name, func(t *testing.T) { checkFootprint(t, m, ai) })
	}
	if methods < 21 {
		t.Errorf("found %d address-taking methods, want at least the 21 accessors", methods)
	}
}

func checkFootprint(t *testing.T, m reflect.Method, ai int) {
	nout := m.Type.NumOut()
	kernel := nout > 0 && m.Type.Out(nout-1).Kind() == reflect.Bool
	scan := nout > 0 && (m.Type.Out(0).Kind() == reflect.String || strings.Contains(m.Name, "CStringView"))

	big := callFootprint(t, m, ai, 64, cmem.ProtRW)
	if len(big.touches) == 0 {
		empty := callFootprint(t, m, ai, 0, cmem.ProtRW)
		if len(empty.touches) != 0 || empty.out.Kind != big.out.Kind || empty.ok != big.ok ||
			(big.out.Kind == OutcomeSegfault && empty.out.Fault.Addr-empty.base != big.out.Fault.Addr-big.base) {
			t.Errorf("records nothing, but an empty region gives %v (ok %v), a 64-byte one %v (ok %v)",
				empty.out, empty.ok, big.out, big.ok)
		}
		return
	}
	if !big.ok {
		t.Fatalf("a 64-byte region fails: %v", big.out)
	}
	for _, tc := range big.touches {
		if tc.Addr < big.base {
			t.Fatalf("recorded %+v before the region at %#x", tc, big.base)
		}
		if tc.Kernel != kernel || tc.Scan != scan {
			t.Errorf("recorded %+v, want Kernel %v and Scan %v", tc, kernel, scan)
		}
	}
	e := big.extent()

	exact := callFootprint(t, m, ai, e, cmem.ProtRW)
	if !exact.ok || exact.extent() != e {
		t.Errorf("a region of the recorded extent %d gives %v (ok %v), recorded extent %d", e, exact.out, exact.ok, exact.extent())
	}

	short := callFootprint(t, m, ai, e-1, cmem.ProtRW)
	guard := short.base + cmem.Addr(e-1)
	switch {
	case short.ok:
		t.Errorf("a region of %d bytes (recorded extent %d) succeeds", e-1, e)
	case kernel && short.out.Kind != OutcomeReturn:
		t.Errorf("a kernel copy crashed on a short region: %v", short.out)
	case !kernel && (short.out.Kind != OutcomeSegfault || short.out.Fault.Addr != guard):
		t.Errorf("a region of %d bytes: want a fault at the guard byte %#x, got %v", e-1, guard, short.out)
	}
	if !slices.ContainsFunc(short.touches, func(tc cmem.Touch) bool {
		return tc.Addr <= guard && guard < tc.Addr+cmem.Addr(tc.N)
	}) {
		t.Errorf("the failing access to the guard byte was not recorded: %+v", short.touches)
	}

	reads := slices.ContainsFunc(big.touches, func(tc cmem.Touch) bool { return tc.Access == cmem.AccessRead })
	writes := slices.ContainsFunc(big.touches, func(tc cmem.Touch) bool { return tc.Access == cmem.AccessWrite })
	for _, c := range []struct {
		prot   cmem.Prot
		denied bool
	}{{cmem.ProtRead, writes}, {cmem.ProtWrite, reads}} {
		if r := callFootprint(t, m, ai, e, c.prot); r.ok == c.denied {
			t.Errorf("a %v region of the recorded extent gives %v (ok %v), but the record says reads %v, writes %v",
				c.prot, r.out, r.ok, reads, writes)
		}
	}
}

// TestRecorderNotInherited: a recorder belongs to the one Memory it was
// set on. Fork and Clone start without it, and Release clears it.
func TestRecorderNotInherited(t *testing.T) {
	p := NewProcess(nil)
	p.Mem.Recorder = func(cmem.Touch) { t.Error("an access was recorded through a copy") }
	c := p.Fork()
	if c.Mem.Recorder != nil {
		t.Error("Fork inherited the recorder")
	}
	c.StoreByte(c.Malloc(8), 1)
	c.Release()
	clone := p.Mem.Clone()
	if clone.Recorder != nil {
		t.Error("a clone inherited the recorder")
	}
	clone.Release()
	mem := p.Mem
	p.Release()
	if mem.Recorder != nil {
		t.Error("Release left the recorder set")
	}
}
