package cmem

import (
	"errors"
	"fmt"
	"unsafe"
)

// zeroPages are the shared zero pages, one per protection: index i has
// protection Prot(i<<1), so ProtNone, ProtRead, ProtWrite and ProtRW sit
// at 0 to 3. Map installs them in place of freshly cleared pool pages,
// so a mapping costs a page-table entry and nothing else until it is
// written. Their bytes are never written and they never enter the page
// pool: the first store turns one into a private page (ensureOwned), a
// protection change swaps it for the zero page of the new protection,
// and release and a fold pass it by.
var zeroPages [4]page

func init() {
	for i := range zeroPages {
		zeroPages[i].prot = Prot(i << 1)
	}
}

// zeroLo is the address of the zero-page array: isZero compares a page
// pointer against the array's range and never dereferences the page,
// so a page-table walk pays no cache miss for the test.
var zeroLo = uintptr(unsafe.Pointer(&zeroPages))

// isZero reports whether pg is one of the shared zero pages.
func isZero(pg *page) bool {
	return uintptr(unsafe.Pointer(pg))-zeroLo < unsafe.Sizeof(zeroPages)
}

// zeroPage returns the shared zero page of prot. A protection outside
// the four defined ones has no zero page and gets a cleared private
// page instead.
func (m *Memory) zeroPage(prot Prot) *page {
	if prot&^ProtRW != 0 {
		return newPage(prot)
	}
	return &zeroPages[prot>>1]
}

// install puts pg in the private delta at base and points the page
// cache at it. A zero page is installed owned too: ensureOwned tests
// for zero pages before it trusts the owned bit.
func (m *Memory) install(base Addr, pg *page) *page {
	m.own[base] = pg
	if m.tlbOn {
		*m.slot(base) = tlbEntry{tag: base | tlbOwned, pg: pg}
	}
	return pg
}

// reprotect changes the protection of the mapped page pg at base. A
// zero page becomes the zero page of prot, with nothing copied; any
// other page is made private and changed in place.
func (m *Memory) reprotect(base Addr, pg *page, prot Prot) {
	if isZero(pg) {
		m.install(base, m.zeroPage(prot))
		return
	}
	m.ensureOwned(base, pg).prot = prot
}

// Zero resets every mapped page overlapping [addr, addr+n) to zeros and
// keeps its protection: the page becomes the shared zero page of that
// protection, and a private page it replaces returns to the pool.
// Unmapped pages stay unmapped. Like Map it rounds outward to page
// boundaries and checks no access: it rewrites the page table, as a
// kernel discarding pages does, rather than storing through it.
func (m *Memory) Zero(addr Addr, n int) {
	if n <= 0 {
		return
	}
	first := addr.PageBase()
	last := (addr + Addr(n) - 1).PageBase()
	for base := first; ; base += PageSize {
		if pg := m.lookup(base); pg != nil && !isZero(pg) {
			z := m.zeroPage(pg.prot)
			if _, owned := m.own[base]; owned {
				pg.release() // own shadows the base: pg is the private page
			}
			m.install(base, z)
		}
		if base == last {
			break
		}
	}
}

// MmapFlush maps a fresh region in the mmap area holding data, its last
// byte flush against the trailing guard gap, and returns the address of
// data's first byte; the region is preceded by a guard gap too, as
// MmapRegion's are. Every page holding data is built in one pass with
// its bytes and its final protection prot, so a filled mapping pays
// neither for a zero page nor for a protection change. The result is
// what MmapRegion of the same pages read-write, a Write of data and a
// Protect of those pages to prot leave behind — including over a page
// an earlier Map already put there. Empty data maps one zero page of
// prot and returns the address just past it.
func (m *Memory) MmapFlush(data []byte, prot Prot) (Addr, error) {
	pages := max(1, (len(data)+PageSize-1)/PageSize)
	if m.mmapCursor+Addr((pages+2)*PageSize) < m.mmapCursor {
		return 0, ErrNoMemory
	}
	first := m.mmapCursor + PageSize // leading guard gap
	end := first + Addr(pages*PageSize)
	m.mmapCursor = end + PageSize // trailing guard gap
	start := end - Addr(len(data))
	if len(data) == 0 {
		m.Map(first, PageSize, prot)
		return start, nil
	}
	for base := first; base < end; base += PageSize {
		off := 0
		if base < start {
			off = int(start - base)
		}
		var pg *page
		if old := m.lookup(base); old != nil {
			pg = m.ensureOwned(base, old)
		} else {
			pg = getPage()
			clear(pg.data[:off])
			m.own[base] = pg
		}
		pg.prot = prot
		copy(pg.data[off:], data[base+Addr(off)-start:])
	}
	return start, nil
}

// CheckZeroPages audits the zero-page invariant: every shared zero page
// holds only zero bytes and its own protection, and the page pool holds
// none. It drains the pool to look and puts every page back, so it sees
// only the pages parked when it runs; tests call it once the Memories
// they exercised are released.
func CheckZeroPages() error {
	var errs []error
	for i := range zeroPages {
		z := &zeroPages[i]
		if want := Prot(i << 1); z.prot != want {
			errs = append(errs, fmt.Errorf("cmem: zero page %d has protection %v, want %v", i, z.prot, want))
		}
		for off, b := range z.data {
			if b != 0 {
				errs = append(errs, fmt.Errorf("cmem: zero page %v holds %#x at offset %d", z.prot, b, off))
				break
			}
		}
	}
	var parked []any
	for v := pagePool.Get(); v != nil; v = pagePool.Get() {
		parked = append(parked, v)
		if isZero(v.(*page)) {
			errs = append(errs, fmt.Errorf("cmem: zero page %v parked in the page pool", v.(*page).prot))
		}
	}
	for _, v := range parked {
		pagePool.Put(v)
	}
	return errors.Join(errs...)
}
