package wrapper

import (
	"testing"

	"healers/internal/cmem"
)

// FuzzHealString fuzzes the string-repair path of the heal strategy
// against its two contractual postconditions:
//
//  1. The wrapper never faults: healString must return normally for any
//     combination of string bytes, bound, writability requirement, and
//     placement (including wild pointers and read-only memory).
//  2. A successful repair is a fixpoint: the (possibly redirected)
//     argument passes the unmodified Reject-mode string check — in
//     particular it is NUL-terminated within accessible memory.
//
// Placement selector: 0 places the bytes at the start of a two-page RW
// region (NUL padding follows), 1 abuts them against the region's end
// (an unterminated string running into the guard gap), 2 hands in a
// wild pointer. Bit 2 of sel additionally write-protects the region, so
// in-place truncation is impossible and the sink path is exercised.
func FuzzHealString(f *testing.F) {
	f.Add([]byte("hello"), uint16(16), false, byte(0))
	f.Add([]byte("no terminator at all"), uint16(64), false, byte(1))
	f.Add([]byte("read only run"), uint16(0), false, byte(1|4))
	f.Add([]byte("writable check"), uint16(8), true, byte(1))
	f.Add([]byte{}, uint16(1), false, byte(2))
	f.Add([]byte{0}, uint16(4096), true, byte(0))
	f.Add([]byte("bound\x00embedded"), uint16(3), false, byte(0))

	lib, decls := fullAutoDecls(f)
	f.Fuzz(func(t *testing.T, data []byte, bound uint16, writable bool, sel byte) {
		if len(data) > 2*cmem.PageSize {
			data = data[:2*cmem.PageSize]
		}
		p := newProc()
		ip := Attach(p, lib, decls, healOpts())
		base, err := p.Mem.MmapRegion(2*cmem.PageSize, cmem.ProtRW)
		if err != nil {
			t.Fatal(err)
		}
		var addr cmem.Addr
		switch sel % 3 {
		case 0:
			addr = base
		case 1:
			addr = base + cmem.Addr(2*cmem.PageSize-len(data))
			if len(data) == 0 {
				addr = base
			}
		case 2:
			addr = 0xdead0000
		}
		if addr != 0xdead0000 && len(data) > 0 {
			if fault := p.Mem.Write(addr, data); fault != nil {
				t.Fatal(fault)
			}
		}
		if sel&4 != 0 {
			p.Mem.Protect(base, 2*cmem.PageSize, cmem.ProtRead)
		}

		args := []uint64{uint64(addr)}
		action, ok := ip.healString(args, 0, int(bound), writable)
		if !ok {
			return // a refused repair leaves the rejection in place
		}
		if action == "" {
			t.Errorf("successful repair with empty action name")
		}
		// Fixpoint: the repaired argument passes the Reject-mode string
		// check it originally failed.
		if !ip.checkCString(cmem.Addr(args[0]), writable) {
			t.Errorf("repair %q at %#x -> %#x fails checkCString(writable=%v)",
				action, addr, args[0], writable)
		}
		// The terminator sits within the walk limit.
		if n, terminated := ip.strlen(cmem.Addr(args[0])); !terminated {
			t.Errorf("repair %q produced an unterminated string", action)
		} else if n >= ip.maxStrlen {
			t.Errorf("repair %q produced a %d-byte string past the walk limit", action, n)
		}
	})
}
