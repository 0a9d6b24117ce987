package cmem

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// poolTraffic reads the page-pool gets and puts.
func poolTraffic() (gets, puts int64) {
	c := PoolCounts()
	return c.Gets, c.Puts
}

// requireZeroPages fails the test when the zero-page audit does.
func requireZeroPages(t *testing.T) {
	t.Helper()
	if err := CheckZeroPages(); err != nil {
		t.Fatal(err)
	}
}

// TestZeroPagesSemantics walks one address space through every
// operation that meets a zero page and checks what it costs in pool
// pages and copy counts as well as what it reads: mapping takes no
// page, a protection change swaps zero pages, the first store takes
// one page and is no copy-on-write copy, Zero gives the page back, and
// a deep copy shares zero pages.
func TestZeroPagesSemantics(t *testing.T) {
	m := New()
	gets, puts := poolTraffic()
	a, err := m.MmapRegion(4*PageSize, ProtRW)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Malloc(3 * PageSize); err != nil {
		t.Fatal(err)
	}
	if g, _ := poolTraffic(); g != gets {
		t.Errorf("mapping 7 pages took %d pool pages, want 0", g-gets)
	}
	if b, f := m.Read(a, 4*PageSize); f != nil || !bytes.Equal(b, make([]byte, 4*PageSize)) {
		t.Fatalf("fresh mapping reads %v, nonzero bytes", f)
	}

	// Protection changes swap zero pages; faults follow the new
	// protection exactly.
	m.Protect(a, PageSize, ProtRead)
	m.Map(a+PageSize, PageSize, ProtNone)
	if g, _ := poolTraffic(); g != gets {
		t.Errorf("protecting zero pages took %d pool pages, want 0", g-gets)
	}
	if f := m.StoreByte(a, 1); f == nil || !f.Mapped {
		t.Errorf("store to a read-only zero page: %v, want a protection fault", f)
	}
	if _, f := m.LoadByte(a + PageSize); f == nil || !f.Mapped {
		t.Errorf("load from a ProtNone zero page: %v, want a protection fault", f)
	}
	if prot, mapped := m.ProtAt(a + PageSize); !mapped || prot != ProtNone {
		t.Errorf("ProtAt = %v, %v; want ---, mapped", prot, mapped)
	}

	// The first store privatizes one page, on the template and on a fork.
	if f := m.StoreByte(a+2*PageSize, 7); f != nil {
		t.Fatal(f)
	}
	c := m.Clone()
	if f := c.WriteCString(a+3*PageSize, "fork"); f != nil {
		t.Fatal(f)
	}
	if g, _ := poolTraffic(); g != gets+2 {
		t.Errorf("two first stores took %d pool pages, want 2", g-gets)
	}
	if n := m.ForkStats().Snapshot().PagesCopied; n != 0 {
		t.Errorf("PagesCopied = %d after zero-page stores, want 0", n)
	}
	if b, _ := m.LoadByte(a + 3*PageSize); b != 0 {
		t.Errorf("a fork's store reached the template: %d", b)
	}
	// A fork's store into a page the template privatized is a real copy.
	if f := c.StoreByte(a+2*PageSize, 8); f != nil {
		t.Fatal(f)
	}
	if n := m.ForkStats().Snapshot().PagesCopied; n != 1 {
		t.Errorf("PagesCopied = %d after a shared page's store, want 1", n)
	}

	// Zero hands a private page back and keeps the protection; over a
	// shared page it only shadows it.
	_, puts = poolTraffic()
	c.Zero(a, 4*PageSize)
	if _, p := poolTraffic(); p != puts+2 {
		t.Errorf("Zero returned %d pages to the pool, want the fork's 2", p-puts)
	}
	if s, f := c.CString(a + 3*PageSize); f != nil || s != "" {
		t.Errorf("after Zero the fork reads %q, %v; want zeros", s, f)
	}
	if b, _ := m.LoadByte(a + 2*PageSize); b != 7 {
		t.Errorf("the fork's Zero reached the template: %d", b)
	}
	if prot, _ := c.ProtAt(a + PageSize); prot != ProtNone {
		t.Errorf("Zero changed a protection to %v", prot)
	}

	// A deep copy copies the private page and shares the zero pages.
	gets, _ = poolTraffic()
	e := m.CloneEager()
	if g, _ := poolTraffic(); g != gets+1 {
		t.Errorf("CloneEager took %d pool pages, want 1 for the one private page", g-gets)
	}
	for _, x := range []*Memory{e, c, m} {
		x.Release()
	}
	requireZeroPages(t)
}

// TestZeroPagesAuditDetects proves the audit can fail: a zero page
// holding a stray byte, or parked in the page pool, is reported.
func TestZeroPagesAuditDetects(t *testing.T) {
	requireZeroPages(t)
	zeroPages[3].data[100] = 1
	err := CheckZeroPages()
	zeroPages[3].data[100] = 0
	if err == nil {
		t.Error("a written zero page passed the audit")
	}
	err = nil
	// The race detector drops a random share of pool puts, so park the
	// page until the audit has seen it once.
	for i := 0; i < 20 && err == nil; i++ {
		pagePool.Put(&zeroPages[1])
		err = CheckZeroPages()
	}
	var keep []any
	for v := pagePool.Get(); v != nil; v = pagePool.Get() {
		if !isZero(v.(*page)) {
			keep = append(keep, v)
		}
	}
	for _, v := range keep {
		pagePool.Put(v)
	}
	if err == nil {
		t.Error("a pooled zero page passed the audit")
	}
	requireZeroPages(t)
}

// TestZeroPagesConcurrentForks is the zero-page race audit: goroutines
// fork one frozen template whose regions are still zero pages, write
// into them, change their protection, zero them again and map filled
// regions, then release. The template must still read zeros, and no
// zero page may have been written or pooled.
func TestZeroPagesConcurrentForks(t *testing.T) {
	tpl := New()
	region, err := tpl.MmapRegion(4*PageSize, ProtRW)
	if err != nil {
		t.Fatal(err)
	}
	heap, err := tpl.Malloc(2 * PageSize)
	if err != nil {
		t.Fatal(err)
	}
	tpl.Freeze()

	const workers, forks = 8, 40
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < forks; i++ {
				c := tpl.Clone()
				at := region + Addr(rng.Intn(4*PageSize-8))
				mark := []byte(fmt.Sprintf("w%di%d", w, i))
				if f := c.Write(at, mark); f != nil {
					errs <- f
					return
				}
				if f := c.StoreByte(heap+Addr(rng.Intn(2*PageSize)), byte(w+1)); f != nil {
					errs <- f
					return
				}
				c.Protect(region, 4*PageSize, ProtRead)
				if got, f := c.Read(at, len(mark)); f != nil || !bytes.Equal(got, mark) {
					errs <- fmt.Errorf("fork lost its write: %q, %v", got, f)
					return
				}
				c.Zero(region, 4*PageSize)
				if got, _ := c.Read(at, len(mark)); !bytes.Equal(got, make([]byte, len(mark))) {
					errs <- fmt.Errorf("Zero left %q", got)
					return
				}
				fill, err := c.MmapFlush(mark, ProtRead)
				if err != nil {
					errs <- err
					return
				}
				if s, _ := c.Read(fill, len(mark)); !bytes.Equal(s, mark) {
					errs <- fmt.Errorf("filled mapping reads %q", s)
					return
				}
				c.Release()
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for _, r := range [][2]Addr{{region, 4 * PageSize}, {heap, 2 * PageSize}} {
		if b, f := tpl.Read(r[0], int(r[1])); f != nil || !bytes.Equal(b, make([]byte, r[1])) {
			t.Fatalf("template region %#x changed under its forks (%v)", r[0], f)
		}
	}
	tpl.Release()
	requireZeroPages(t)
}
