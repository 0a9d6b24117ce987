// Package cmem simulates the paged, protected memory of a C process.
//
// The HEALERS fault injector depends on two hardware facilities: per-page
// memory protection (so that an access one byte past an allocation traps)
// and faulting addresses (so the injector can attribute a segmentation
// fault to the test-case generator that owns the region). Package cmem
// provides both for a simulated 64-bit address space: pages can be mapped
// with independent read/write protection, every access is checked, and a
// failed access reports the exact faulting address and access kind.
//
// Forking is copy-on-write at two granularities. Pages: the first
// mutation of a shared page (a store, a protection change, a re-map)
// copies that page. Page tables: Clone freezes the parent's private
// pages into an immutable, refcounted table and hands the child a
// reference to it — one refcount, not O(pages), so forking a large
// address space costs the same as forking a small one. A Memory is its
// base table (shared, frozen) plus a private delta map; a page-table
// walk probes the delta, then the base. The injector forks a frozen
// template once per call, so a fork sits one level below its template;
// freezing a fork that was written folds its base into a new table.
//
// Fresh memory costs nothing until it is written. Map installs one
// shared, never-written zero page per protection, as a kernel maps its
// zero page; the first store turns it into a private page through the
// same copy-on-write path, a protection change swaps it for the zero
// page of the new protection, and Zero turns written pages back into
// zero pages. A region filled as soon as it is mapped (MmapFlush) is
// built in one pass with its bytes and protection and never passes
// through a zero page.
//
// A small direct-mapped page cache (a software TLB) sits in front of
// the walk, so a run of accesses to one page pays for one walk. Only a
// single-owner Memory that has never been frozen or cloned writes its
// cache — the forked child an experiment runs in. Freezing (explicitly
// or inside the first Clone) flushes the cache and turns it off for
// good, so on a frozen template every read path is write-free. Clone
// serializes its internal freeze, which makes a Memory safe to Clone
// concurrently from several goroutines as long as nobody mutates it —
// the property the parallel campaign schedulers rely on to fork worker
// templates without serializing. Freeze a
// template explicitly before sharing it to make concurrent Clones and
// reads entirely write-free.
//
// All methods return a *Fault on bad accesses instead of panicking; the
// process layer (package csim) converts faults into simulated signals.
// A forked child reports its faults through one slot of its own, so a
// faulting access allocates nothing: the *Fault stays valid until the
// next fault on the same Memory, and a caller that keeps it longer
// copies the value.
package cmem

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
)

// PageSize is the size in bytes of a simulated memory page.
const PageSize = 4096

// Addr is a simulated virtual address.
type Addr uint64

// PageBase returns the address of the start of the page containing a.
func (a Addr) PageBase() Addr { return a &^ (PageSize - 1) }

// Prot is a page protection bitmask.
type Prot uint8

// Page protections. A page may be mapped with no access at all
// (a guard page), read-only, write-only, or read-write.
const (
	ProtNone Prot = 0
	ProtRead Prot = 1 << iota
	ProtWrite
	ProtRW = ProtRead | ProtWrite
)

func (p Prot) String() string {
	switch p {
	case ProtNone:
		return "---"
	case ProtRead:
		return "r--"
	case ProtWrite:
		return "-w-"
	case ProtRW:
		return "rw-"
	}
	return fmt.Sprintf("Prot(%d)", uint8(p))
}

// Access is the kind of memory access that caused a fault.
type Access uint8

// Access kinds.
const (
	AccessRead Access = iota + 1
	AccessWrite
)

func (a Access) String() string {
	switch a {
	case AccessRead:
		return "read"
	case AccessWrite:
		return "write"
	}
	return fmt.Sprintf("Access(%d)", uint8(a))
}

// Touch is one access a Memory reports to its Recorder.
type Touch struct {
	Addr   Addr
	N      int // bytes from Addr the access reaches
	Access Access
	// Scan marks a NUL-terminated scan (CString): N runs through the
	// terminator, or through the byte that faulted.
	Scan bool
	// Kernel marks a syscall-boundary copy, which reports a bad address
	// instead of faulting. Package cmem never sets it; the caller that
	// makes such a copy does.
	Kernel bool
}

// Fault describes a memory access violation: a simulated SIGSEGV.
// It records the exact faulting address, which the adaptive fault
// injector uses to find the test-case generator owning the region.
type Fault struct {
	Addr   Addr   // faulting address
	Access Access // attempted access kind
	Mapped bool   // true if the page was mapped but protection denied access
}

var _ error = (*Fault)(nil)

func (f *Fault) Error() string {
	state := "unmapped"
	if f.Mapped {
		state = "protected"
	}
	return fmt.Sprintf("segmentation fault: %v of %s address %#x", f.Access, state, uint64(f.Addr))
}

// ErrNoMemory is returned when the simulated address space is exhausted.
var ErrNoMemory = errors.New("cmem: out of simulated memory")

// page is one 4 KiB unit of simulated memory. A page lives in exactly
// one container: a Memory's private delta (mutable, exclusively owned)
// or one frozen table (immutable, copied on write), and returns to the
// pool when that container dies. The header padding keeps the payload
// cache-line aligned.
type page struct {
	prot Prot
	_    [63]byte
	data [PageSize]byte
}

// pagePool recycles page buffers: every fork that diverges copies a few
// pages and then discards them when its experiment ends, so a campaign
// would otherwise churn millions of 4 KiB allocations through the GC.
// sync.Pool already caches per P, so concurrent campaigns do not
// contend on it.
var pagePool sync.Pool

// poolCounts counts the pool's traffic. The padding keeps the counters
// on a cache line of their own: every get and put writes one of them,
// and every get and put reads pagePool's fields.
var poolCounts struct {
	_                  [64]byte
	gets, puts, misses atomic.Int64
	_                  [64]byte
}

// PoolTraffic is a snapshot of the page pool's traffic: pages taken
// from the pool, pages returned to it, and gets that missed the
// freelist and allocated.
type PoolTraffic struct {
	Gets   int64
	Puts   int64
	Misses int64
}

// PoolCounts snapshots the pool's counters. They are process-global and
// monotonic; exposure layers publish them as gauges.
func PoolCounts() PoolTraffic {
	return PoolTraffic{Gets: poolCounts.gets.Load(), Puts: poolCounts.puts.Load(), Misses: poolCounts.misses.Load()}
}

// getPage takes a page buffer from the pool, allocating on a freelist
// miss.
func getPage() *page {
	poolCounts.gets.Add(1)
	if v := pagePool.Get(); v != nil {
		return v.(*page)
	}
	poolCounts.misses.Add(1)
	return new(page)
}

// newPage returns an exclusively owned, zeroed page. Pooled pages carry
// the data of their previous life and must be cleared: freshly mapped
// simulated memory reads as zero.
func newPage(prot Prot) *page {
	pg := getPage()
	pg.prot = prot
	pg.data = [PageSize]byte{}
	return pg
}

// copyOf returns an exclusively owned copy of src. No clearing is
// needed: the whole payload is overwritten.
func copyOf(src *page) *page {
	pg := getPage()
	pg.prot = src.prot
	pg.data = src.data
	return pg
}

// release returns the page to the pool; its container is dying or has
// dropped it. A zero page is never returned.
func (pg *page) release() {
	if isZero(pg) {
		return // shared by every mapping of it; never pooled
	}
	poolCounts.puts.Add(1)
	pagePool.Put(pg)
}

// ForkStats counts page sharing across one fork tree. Every Memory
// cloned (directly or transitively) from the same root shares one
// ForkStats, so a campaign can report how much copying its forks
// avoided. All counters are atomic: sibling forks diverge concurrently.
type ForkStats struct {
	forks       atomic.Int64
	pagesShared atomic.Int64
	pagesCopied atomic.Int64
}

// ForkCounts is a point-in-time snapshot of a fork tree's counters.
type ForkCounts struct {
	// Forks is the number of Clone calls in the tree.
	Forks int64
	// PagesShared counts page-table entries forked by reference — each
	// one a 4 KiB copy the eager clone would have performed up front.
	PagesShared int64
	// PagesCopied counts copy-on-write copies actually performed when a
	// fork diverged.
	PagesCopied int64
}

// Snapshot reads the counters.
func (s *ForkStats) Snapshot() ForkCounts {
	return ForkCounts{
		Forks:       s.forks.Load(),
		PagesShared: s.pagesShared.Load(),
		PagesCopied: s.pagesCopied.Load(),
	}
}

// BytesAvoided is the copying the fork tree skipped: pages shared at
// fork time minus the ones later copied on write, in bytes.
func (c ForkCounts) BytesAvoided() int64 {
	return (c.PagesShared - c.PagesCopied) * PageSize
}

// table is the frozen page table of a fork template: an immutable page
// map, with no tombstones, shared by reference between the template and
// every Memory cloned from it. refs counts those Memories; the last
// Release returns the table's pages to the pool.
type table struct {
	pages map[Addr]*page
	refs  atomic.Int32
}

// Memory is a simulated address space. The zero value is not usable;
// call New. A Memory is owned by one goroutine: mutating methods are
// not safe for concurrent use. Read-only methods of a Memory that was
// never frozen or cloned write only its private page cache; once the
// Memory is frozen they perform no writes at all. Clone serializes its
// freeze step, so concurrent Clones of an otherwise-idle Memory are
// safe — forked children then diverge under their exclusive owners via
// copy-on-write. Reads concurrent with the Memory's *first* Clone race
// against the freeze; call Freeze once before sharing a template
// across goroutines and every subsequent Clone and read is write-free.
type Memory struct {
	// base is the frozen page table this Memory was forked from, nil if
	// it has none. own is the private delta on top — the only map this
	// Memory may write: its pages are exclusively owned, and a nil entry
	// is a tombstone unmapping a page base holds. Pages in base are
	// immutable and copied on write.
	base *table
	own  map[Addr]*page

	// tlb caches recent page-table walks; tlbOn says whether this
	// Memory may write it (never frozen, never cloned). See tlbEntry.
	tlb   [tlbSize]tlbEntry
	tlbOn bool

	// cloneMu serializes the lazy freeze inside Clone so sibling
	// goroutines may fork one template concurrently.
	cloneMu sync.Mutex

	// Region cursors for the distinct address-space areas. Keeping the
	// areas far apart mirrors a real process layout and guarantees that
	// heap, mmap and stack allocations never collide.
	heapCursor Addr
	mmapCursor Addr

	heap  heapState
	stack Stack

	// stats is shared by every Memory in this fork tree.
	stats *ForkStats

	// TraceID and SpanID identify the causal span that owns this address
	// space (internal/obs span IDs, kept as plain integers so cmem stays
	// dependency-free). Clone inherits them, which is how a trace crosses
	// the fork boundary: a COW child is attributable to the span that
	// forked its template without any side channel.
	TraceID uint64
	SpanID  uint64

	// Recorder, when non-nil, observes every access made through Read,
	// ReadInto, Write, LoadByte, StoreByte, ReadSpan, WriteSpan and
	// CString (and so through
	// every accessor built on them) before the access is checked. Clone
	// does not inherit it and Release clears it.
	Recorder func(Touch)

	// spare holds the emptied containers a released Memory keeps for
	// its next life; zero on a live Memory. Release sets it, alloc
	// takes it.
	spare spares

	// fault is the slot a faulting access reports through while the
	// Memory writes its page cache (see faultAt).
	fault Fault
}

// spares are the containers a Memory's life grows and its next life
// reuses: the delta map and the heap's allocation table and index.
type spares struct {
	own    map[Addr]*page
	allocs map[Addr]int
	sorted []Addr
}

// mems parks released Memories for the next New or Clone.
var mems FreeList[Memory]

// spareCap bounds each container a released Memory keeps: a Go map
// never shrinks, so one that grew past what a forked child maps or
// allocates is left to the collector instead of being parked, and so
// is an index that grew past as many entries.
const spareCap = 64

// alloc returns a zeroed Memory and empty containers for it: a released
// Memory and the containers it kept when one is parked, new ones
// otherwise. New and Clone initialise every field of the result the
// same way either way.
func alloc() (*Memory, spares) {
	m := mems.Get()
	var sp spares
	if m == nil {
		m = new(Memory)
	} else {
		sp, m.spare = m.spare, spares{}
	}
	if sp.own == nil {
		sp.own = make(map[Addr]*page)
	}
	if sp.allocs == nil {
		sp.allocs = make(map[Addr]int)
	}
	if sp.sorted == nil {
		sp.sorted = make([]Addr, 0, 4)
	}
	return m, sp
}

// keep empties the map c and returns it when it is small enough to
// park, nil otherwise.
func keep[C ~map[Addr]*page | ~map[Addr]int](c C) C {
	if len(c) > spareCap {
		return nil
	}
	clear(c)
	return c
}

// Address-space layout constants. The null page (and everything below
// heapBase) is never mapped, so small integers used as pointers fault.
const (
	heapBase Addr = 0x0000_1000_0000
	mmapBase Addr = 0x2000_0000_0000
	stackTop Addr = 0x7fff_ffff_f000
	// stackSize is deliberately small: a lean stack keeps every
	// template's page table, and what its forks write of it, small.
	stackSize = 32 << 10
)

// New returns an empty simulated address space with a mapped stack.
func New() *Memory {
	m, sp := alloc()
	*m = Memory{
		own:        sp.own,
		heap:       heapState{allocs: sp.allocs, sorted: sp.sorted},
		tlbOn:      true,
		heapCursor: heapBase,
		mmapCursor: mmapBase,
		stats:      &ForkStats{},
	}
	m.stack = newStack(m)
	return m
}

// tlbSize is the number of page-cache entries. Every fork starts with
// an empty cache, so it stays small: 16 entries cover the handful of
// pages one experiment touches (its arguments, a FILE and its buffer,
// a sink chunk, the stack) at 256 bytes per Memory.
const tlbSize = 16

// tlbOwned marks, in the low bits of a page-aligned tlbEntry.tag, that
// the cached page sits in own: a store to it needs no copy and no own
// probe.
const tlbOwned Addr = 1

// tlbEntry caches one page-table walk: tag is the page base, or'ed with
// tlbOwned when the page is this Memory's private copy; pg is the page
// (nil marks an empty slot — unmapped results are never cached).
type tlbEntry struct {
	tag Addr
	pg  *page
}

// slot returns the cache entry base maps to.
func (m *Memory) slot(base Addr) *tlbEntry {
	return &m.tlb[(base/PageSize)&(tlbSize-1)]
}

// flushTLB empties the page cache, dropping its page references.
func (m *Memory) flushTLB() { m.tlb = [tlbSize]tlbEntry{} }

// lookup resolves the page containing base. A nil result means
// unmapped — either never mapped or shadowed by a tombstone. A cache
// hit answers without a walk; a miss walks and, on a Memory allowed to
// write its cache, fills the slot.
func (m *Memory) lookup(base Addr) *page {
	if !m.tlbOn {
		pg, _ := m.walk(base)
		return pg
	}
	e := m.slot(base)
	if e.pg != nil && e.tag&^tlbOwned == base {
		return e.pg
	}
	pg, owned := m.walk(base)
	if pg != nil {
		e.tag, e.pg = base, pg
		if owned {
			e.tag |= tlbOwned
		}
	}
	return pg
}

// walk is the page-table walk: the private delta first, then the
// frozen base. owned reports that the page sits in own.
func (m *Memory) walk(base Addr) (pg *page, owned bool) {
	if pg, ok := m.own[base]; ok {
		return pg, true
	}
	if m.base == nil {
		return nil, false
	}
	return m.base.pages[base], false
}

// Freeze seals the Memory's private pages into its frozen table. After
// Freeze, Clone performs no writes at all, so a fork template can be
// cloned from many goroutines while others read it. Freezing is
// idempotent and happens implicitly on the first Clone.
func (m *Memory) Freeze() {
	m.cloneMu.Lock()
	m.freezeLocked()
	m.cloneMu.Unlock()
}

func (m *Memory) freezeLocked() {
	// The cache's owned bits describe own, which is about to become a
	// shared table, and a frozen Memory must stay write-free under
	// reads: flush and disable it. Testing first keeps repeated freezes
	// of a template free of stores.
	if m.tlbOn {
		m.tlbOn = false
		m.flushTLB()
	}
	if len(m.own) == 0 {
		return
	}
	if old := m.base; old != nil {
		// A written fork is frozen in turn: fold the base it shares
		// under its delta, copying what the delta does not shadow, so
		// that every page stays in one container.
		for base, pg := range old.pages {
			if _, ok := m.own[base]; !ok {
				if !isZero(pg) {
					pg = copyOf(pg)
				}
				m.own[base] = pg
			}
		}
		for base, pg := range m.own {
			if pg == nil {
				delete(m.own, base)
			}
		}
		old.drop()
	}
	m.base = &table{pages: m.own}
	m.base.refs.Store(1)
	m.own = make(map[Addr]*page)
}

// drop releases one reference to the table; the last returns its pages
// to the pool.
func (t *table) drop() {
	if t.refs.Add(-1) == 0 {
		for _, pg := range t.pages {
			pg.release()
		}
	}
}

// Clone returns a copy-on-write fork of the address space. The fault
// injector forks a fresh child for every call of the function under
// test; Clone is the memory half of that fork. The parent's private
// pages are frozen into a shared table (once — repeated Clones reuse
// it) and the child starts as that table plus an empty delta, so a
// fork costs one refcount, independent of the address-space size.
// Either side's first mutation of a shared page copies that page into
// its delta.
//
// Clone serializes the freeze internally, so several goroutines may
// Clone the same Memory concurrently (the scheduler's worker-template
// fork); concurrency with mutations of the parent remains undefined.
func (m *Memory) Clone() *Memory {
	m.cloneMu.Lock()
	m.freezeLocked()
	t := m.base
	m.cloneMu.Unlock()
	c, sp := alloc()
	*c = Memory{
		base:       t,
		own:        sp.own,
		heap:       m.heap.cloneInto(sp.allocs, sp.sorted),
		tlbOn:      true,
		heapCursor: m.heapCursor,
		mmapCursor: m.mmapCursor,
		stats:      m.stats,
		TraceID:    m.TraceID,
		SpanID:     m.SpanID,
	}
	if t != nil {
		t.refs.Add(1)
		m.stats.pagesShared.Add(int64(len(t.pages)))
	}
	c.stack = m.stack.clone()
	m.stats.forks.Add(1)
	return c
}

// Release returns the address space's private pages to the page pool
// and drops its reference to the frozen table, and parks the Memory for
// reuse: the next New or Clone may hand this very struct out again, so
// no reference to it may outlive Release. Until then the released
// Memory has every field zeroed but the emptied containers it keeps for
// that next life: accesses fault as unmapped, mutations panic, and the
// page cache neither answers for a released page nor keeps pooled pages
// reachable. Releasing a released Memory again does nothing.
func (m *Memory) Release() {
	if m.stats == nil {
		return // already released: parked once is enough
	}
	for _, pg := range m.own {
		if pg != nil {
			pg.release()
		}
	}
	if m.base != nil {
		m.base.drop()
	}
	sorted := m.heap.sorted[:0]
	if cap(sorted) > spareCap {
		sorted = nil
	}
	*m = Memory{spare: spares{own: keep(m.own), allocs: keep(m.heap.allocs), sorted: sorted}}
	mems.Put(m)
}

// ForkStats returns the sharing counters of this Memory's fork tree.
func (m *Memory) ForkStats() *ForkStats { return m.stats }

// ensureOwned returns a page for base that this Memory owns
// exclusively, copying a shared page of the base into the delta first if
// needed. Every mutation path funnels through it — the copy-on-write
// fault handler. pg must be the result of lookup(base). A zero page,
// owned or shared, becomes a cleared private page in one map write;
// that is not a copy of a shared page and does not count in
// PagesCopied. When the cache holds base, its owned bit answers
// without probing own, and a copy updates the entry in place.
func (m *Memory) ensureOwned(base Addr, pg *page) *page {
	if isZero(pg) {
		return m.install(base, newPage(pg.prot))
	}
	if !m.tlbOn || !m.cached(base, pg) {
		if opg, ok := m.own[base]; ok {
			return opg
		}
	} else if m.slot(base).tag&tlbOwned != 0 {
		return pg
	}
	m.stats.pagesCopied.Add(1)
	return m.install(base, copyOf(pg))
}

// cached reports whether the cache entry for base holds pg.
func (m *Memory) cached(base Addr, pg *page) bool {
	e := m.slot(base)
	return e.pg == pg && e.tag&^tlbOwned == base
}

// invalidate drops the cache entry for base, if it holds one.
func (m *Memory) invalidate(base Addr) {
	if e := m.slot(base); e.tag&^tlbOwned == base {
		*e = tlbEntry{}
	}
}

// Map maps n bytes starting at the page containing addr with protection
// prot. It rounds the region outward to page boundaries. Mapping an
// already-mapped page resets its protection but preserves its contents.
// A newly mapped page is the shared zero page of prot: it reads as
// zeros and costs nothing until its first store.
func (m *Memory) Map(addr Addr, n int, prot Prot) {
	if n <= 0 {
		return
	}
	first := addr.PageBase()
	last := (addr + Addr(n) - 1).PageBase()
	for base := first; ; base += PageSize {
		if pg := m.lookup(base); pg != nil {
			if pg.prot != prot {
				m.reprotect(base, pg, prot)
			}
		} else {
			m.own[base] = m.zeroPage(prot)
		}
		if base == last {
			break
		}
	}
}

// Unmap removes every page overlapping [addr, addr+n). Subsequent
// accesses to the region fault as unmapped.
func (m *Memory) Unmap(addr Addr, n int) {
	if n <= 0 {
		return
	}
	first := addr.PageBase()
	last := (addr + Addr(n) - 1).PageBase()
	for base := first; ; base += PageSize {
		m.invalidate(base)
		if pg, ok := m.own[base]; ok && pg != nil {
			pg.release()
		}
		if m.base != nil && m.base.pages[base] != nil {
			// A tombstone shadows the frozen mapping below.
			m.own[base] = nil
		} else {
			delete(m.own, base)
		}
		if base == last {
			break
		}
	}
}

// Protect changes the protection of every page overlapping [addr, addr+n).
// Unmapped pages in the range are left unmapped. Changing a shared
// page's protection copies it: protection state lives in the page, and
// the sibling forks must keep seeing the old protection. A zero page is
// not copied but swapped for the zero page of the new protection.
func (m *Memory) Protect(addr Addr, n int, prot Prot) {
	if n <= 0 {
		return
	}
	first := addr.PageBase()
	last := (addr + Addr(n) - 1).PageBase()
	for base := first; ; base += PageSize {
		if pg := m.lookup(base); pg != nil && pg.prot != prot {
			m.reprotect(base, pg, prot)
		}
		if base == last {
			break
		}
	}
}

// ProtAt reports the protection of the page containing addr and whether
// the page is mapped at all.
func (m *Memory) ProtAt(addr Addr) (Prot, bool) {
	pg := m.lookup(addr.PageBase())
	if pg == nil {
		return ProtNone, false
	}
	return pg.prot, true
}

// MmapRegion reserves and maps a fresh region of n bytes (page rounded)
// in the mmap area and returns its base address. The region is preceded
// and followed by permanently unmapped guard gaps so that out-of-bounds
// accesses fault with an address attributable to this region.
func (m *Memory) MmapRegion(n int, prot Prot) (Addr, error) {
	if n < 0 {
		return 0, fmt.Errorf("cmem: negative mmap size %d", n)
	}
	pages := (n + PageSize - 1) / PageSize
	if pages == 0 {
		pages = 1
	}
	if m.mmapCursor+Addr((pages+2)*PageSize) < m.mmapCursor {
		return 0, ErrNoMemory
	}
	base := m.mmapCursor + PageSize // leading guard gap
	m.Map(base, pages*PageSize, prot)
	m.mmapCursor = base + Addr(pages*PageSize) + PageSize // trailing guard gap
	return base, nil
}

// faultAt reports an access violation at addr. A Memory that writes its
// page cache (one owner, never frozen or cloned: the forked child a
// call runs in) writes the fault into its own slot and returns it, so
// the fault allocates nothing; the next fault on m overwrites it. A
// frozen Memory, which concurrent readers may share, writes nothing
// and allocates the fault instead.
func (m *Memory) faultAt(addr Addr, access Access, mapped bool) *Fault {
	if !m.tlbOn {
		return &Fault{Addr: addr, Access: access, Mapped: mapped}
	}
	m.fault = Fault{Addr: addr, Access: access, Mapped: mapped}
	return &m.fault
}

func (m *Memory) check(addr Addr, n int, access Access) *Fault {
	if n <= 0 {
		return nil
	}
	first := addr.PageBase()
	last := (addr + Addr(n) - 1).PageBase()
	for base := first; ; base += PageSize {
		pg := m.lookup(base)
		at := base
		if at < addr {
			at = addr
		}
		if pg == nil {
			return m.faultAt(at, access, false)
		}
		switch access {
		case AccessRead:
			if pg.prot&ProtRead == 0 {
				return m.faultAt(at, access, true)
			}
		case AccessWrite:
			if pg.prot&ProtWrite == 0 {
				return m.faultAt(at, access, true)
			}
		}
		if base == last {
			break
		}
	}
	return nil
}

// Read copies n bytes starting at addr into a fresh slice.
func (m *Memory) Read(addr Addr, n int) ([]byte, *Fault) {
	if m.Recorder != nil {
		m.Recorder(Touch{Addr: addr, N: n, Access: AccessRead})
	}
	if f := m.check(addr, n, AccessRead); f != nil {
		return nil, f
	}
	out := make([]byte, n)
	m.copyOut(addr, out)
	return out, nil
}

// Write copies data into memory at addr. data is never retained, so
// callers may pass stack buffers.
func (m *Memory) Write(addr Addr, data []byte) *Fault {
	if m.Recorder != nil {
		m.Recorder(Touch{Addr: addr, N: len(data), Access: AccessWrite})
	}
	if f := m.check(addr, len(data), AccessWrite); f != nil {
		return f
	}
	m.copyIn(addr, data)
	return nil
}

// copyOut copies from memory into out; all pages must be mapped.
func (m *Memory) copyOut(addr Addr, out []byte) {
	for len(out) > 0 {
		pg := m.lookup(addr.PageBase())
		off := int(addr - addr.PageBase())
		n := copy(out, pg.data[off:])
		out = out[n:]
		addr += Addr(n)
	}
}

// copyIn copies data into memory; all pages must be mapped. Shared
// pages are copied before the store lands.
func (m *Memory) copyIn(addr Addr, data []byte) {
	for len(data) > 0 {
		base := addr.PageBase()
		pg := m.ensureOwned(base, m.lookup(base))
		off := int(addr - base)
		n := copy(pg.data[off:], data)
		data = data[n:]
		addr += Addr(n)
	}
}

// LoadByte reads a single byte. On a frozen Memory it performs no
// writes, so snapshots and fork templates stay pristine under reads.
func (m *Memory) LoadByte(addr Addr) (byte, *Fault) {
	if m.Recorder != nil {
		m.Recorder(Touch{Addr: addr, N: 1, Access: AccessRead})
	}
	pg := m.lookup(addr.PageBase())
	if pg == nil {
		return 0, m.faultAt(addr, AccessRead, false)
	}
	if pg.prot&ProtRead == 0 {
		return 0, m.faultAt(addr, AccessRead, true)
	}
	return pg.data[addr&(PageSize-1)], nil
}

// StoreByte writes a single byte. The protection check precedes the
// copy-on-write fault, so a denied store never copies the page.
func (m *Memory) StoreByte(addr Addr, b byte) *Fault {
	if m.Recorder != nil {
		m.Recorder(Touch{Addr: addr, N: 1, Access: AccessWrite})
	}
	base := addr.PageBase()
	pg := m.lookup(base)
	if pg == nil {
		return m.faultAt(addr, AccessWrite, false)
	}
	if pg.prot&ProtWrite == 0 {
		return m.faultAt(addr, AccessWrite, true)
	}
	pg = m.ensureOwned(base, pg)
	pg.data[addr&(PageSize-1)] = b
	return nil
}

// inPage returns the page and offset of [addr, addr+n) when the range
// lies inside one page that permits access, or the fault check would
// report for it. ok is false when the range spans pages: the caller
// then takes the general check-and-copy path.
func (m *Memory) inPage(addr Addr, n int, access Access) (pg *page, off int, f *Fault, ok bool) {
	off = int(addr & (PageSize - 1))
	if off+n > PageSize {
		return nil, 0, nil, false
	}
	pg = m.lookup(addr.PageBase())
	switch {
	case pg == nil:
		return nil, 0, m.faultAt(addr, access, false), true
	case access == AccessRead && pg.prot&ProtRead == 0,
		access == AccessWrite && pg.prot&ProtWrite == 0:
		return nil, 0, m.faultAt(addr, access, true), true
	}
	return pg, off, nil, true
}

// ReadInto fills out from addr without allocating: in place when the
// range lies inside one page, through check+copyOut when it spans
// several — with exactly the faults Read reports either way.
func (m *Memory) ReadInto(addr Addr, out []byte) *Fault {
	if m.Recorder != nil {
		m.Recorder(Touch{Addr: addr, N: len(out), Access: AccessRead})
	}
	if len(out) == 0 {
		return nil
	}
	if pg, off, f, ok := m.inPage(addr, len(out), AccessRead); ok {
		if f == nil {
			copy(out, pg.data[off:])
		}
		return f
	}
	if f := m.check(addr, len(out), AccessRead); f != nil {
		return f
	}
	m.copyOut(addr, out)
	return nil
}

// ReadU16 reads a little-endian 16-bit value.
func (m *Memory) ReadU16(addr Addr) (uint16, *Fault) {
	var b [2]byte
	if f := m.ReadInto(addr, b[:]); f != nil {
		return 0, f
	}
	return binary.LittleEndian.Uint16(b[:]), nil
}

// ReadU32 reads a little-endian 32-bit value.
func (m *Memory) ReadU32(addr Addr) (uint32, *Fault) {
	var b [4]byte
	if f := m.ReadInto(addr, b[:]); f != nil {
		return 0, f
	}
	return binary.LittleEndian.Uint32(b[:]), nil
}

// ReadU64 reads a little-endian 64-bit value.
func (m *Memory) ReadU64(addr Addr) (uint64, *Fault) {
	var b [8]byte
	if f := m.ReadInto(addr, b[:]); f != nil {
		return 0, f
	}
	return binary.LittleEndian.Uint64(b[:]), nil
}

// WriteU16 writes a little-endian 16-bit value.
func (m *Memory) WriteU16(addr Addr, v uint16) *Fault {
	var b [2]byte
	binary.LittleEndian.PutUint16(b[:], v)
	return m.Write(addr, b[:])
}

// WriteU32 writes a little-endian 32-bit value.
func (m *Memory) WriteU32(addr Addr, v uint32) *Fault {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	return m.Write(addr, b[:])
}

// WriteU64 writes a little-endian 64-bit value.
func (m *Memory) WriteU64(addr Addr, v uint64) *Fault {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return m.Write(addr, b[:])
}

// maxCString caps CString scans: a terminator must appear within the
// mapped region, and a megabyte without one means the simulation set up
// a pathological string. The scan then faults at the cursor, exactly as
// the historical byte-at-a-time loop did.
const maxCString = 1 << 20

// Segment returns a view of the bytes from addr to the end of its
// page, and the page's protection: nil when the page is unmapped or
// unreadable, with mapped telling the two apart. The view aliases the
// page, which may be shared with other forks: read it, never write it,
// and drop it before the next mutation of this Memory. Scans that move
// a page at a time use it in place of a LoadByte per byte.
func (m *Memory) Segment(addr Addr) (b []byte, prot Prot, mapped bool) {
	pg := m.lookup(addr.PageBase())
	switch {
	case pg == nil:
		return nil, ProtNone, false
	case pg.prot&ProtRead == 0:
		return nil, pg.prot, true
	}
	return pg.data[addr&(PageSize-1):], pg.prot, true
}

// ReadSpan returns the n bytes at addr as a view of their page, for a
// caller that would otherwise read them with n LoadByte calls: the
// Recorder sees the span, and an unreadable byte faults as LoadByte
// would. The view aliases the page, which may be shared with other
// forks: read it, never write it. A WriteSpan of the same page leaves
// it valid, holding the bytes from before the write. n must not take
// the span past the end of addr's page unless a byte faults first.
func (m *Memory) ReadSpan(addr Addr, n int) ([]byte, *Fault) {
	return m.span(addr, n, AccessRead)
}

// WriteSpan is the writable counterpart of Segment and ReadSpan: it
// returns the n bytes at addr as a view of their page to store into,
// for a caller that would otherwise make n StoreByte calls. The
// Recorder sees the span, an unwritable byte faults as StoreByte
// would, and a shared page is made private once, through the same
// copy-on-write fault a StoreByte takes, only when n > 0. Drop the view
// before the next mutation of this Memory. n must not take the span
// past the end of addr's page unless a byte faults first.
func (m *Memory) WriteSpan(addr Addr, n int) ([]byte, *Fault) {
	return m.span(addr, n, AccessWrite)
}

func (m *Memory) span(addr Addr, n int, access Access) ([]byte, *Fault) {
	if n <= 0 {
		return nil, nil
	}
	if m.Recorder != nil {
		m.Recorder(Touch{Addr: addr, N: n, Access: access})
	}
	pg, off, f, ok := m.inPage(addr, n, access)
	if !ok {
		if f := m.check(addr, n, access); f != nil {
			return nil, f
		}
		panic(fmt.Sprintf("cmem: a %d-byte span at %#x crosses a page", n, uint64(addr)))
	}
	if f != nil {
		return nil, f
	}
	if access == AccessWrite {
		pg = m.ensureOwned(addr.PageBase(), pg)
	}
	return pg.data[off : off+n], nil
}

// CString reads a NUL-terminated string starting at addr. The scan
// observes protection page by page, so an unterminated string in a
// bounded region faults at exactly the first inaccessible byte — the
// behaviour real C string functions exhibit. The string is allocated
// once, however many pages it spans. The Recorder sees the scan once it
// ends: through the terminator, or through the byte that faults.
func (m *Memory) CString(addr Addr) (string, *Fault) {
	n, view, f := m.cscan(addr)
	m.recordScan(addr, n, f)
	switch {
	case f != nil:
		return "", f
	case view != nil:
		return string(view), nil
	}
	var b strings.Builder
	b.Grow(n)
	for a := addr; b.Len() < n; {
		chunk, _, _ := m.Segment(a)
		k, _ := b.Write(chunk[:min(len(chunk), n-b.Len())])
		a += Addr(k)
	}
	return b.String(), nil
}

// CStringView is CString without the string: the same scan, fault and
// record, returning the string's bytes (without the terminator). When
// they lie in addr's page, as short strings do, the result is a view of
// the page that allocates nothing: read it, never write it, and drop it
// before the next mutation of this Memory. A string that crosses pages
// comes back as a fresh copy.
func (m *Memory) CStringView(addr Addr) ([]byte, *Fault) {
	n, view, f := m.cscan(addr)
	m.recordScan(addr, n, f)
	switch {
	case f != nil:
		return nil, f
	case view != nil:
		return view, nil
	}
	out := make([]byte, n)
	m.copyOut(addr, out)
	return out, nil
}

// recordScan reports a string scan of n bytes at addr, or the one that
// ended in fault f, to the Recorder.
func (m *Memory) recordScan(addr Addr, n int, f *Fault) {
	if m.Recorder == nil {
		return
	}
	if f != nil {
		n = int(f.Addr - addr)
	}
	m.Recorder(Touch{Addr: addr, N: n + 1, Access: AccessRead, Scan: true})
}

// cscan finds the NUL that ends the string at addr: n bytes precede it.
// view holds those bytes, a view of addr's page, when the terminator
// lies in that page; nil otherwise, and on a fault.
func (m *Memory) cscan(addr Addr) (n int, view []byte, f *Fault) {
	for a := addr; ; {
		chunk, _, mapped := m.Segment(a)
		if chunk == nil {
			return 0, nil, m.faultAt(a, AccessRead, mapped)
		}
		i := bytes.IndexByte(chunk, 0)
		if i < 0 {
			i = len(chunk)
		}
		if n+i > maxCString {
			return 0, nil, m.faultAt(a+Addr(maxCString-n), AccessRead, true)
		}
		if i < len(chunk) {
			if n == 0 {
				return i, chunk[:i], nil
			}
			return n + i, nil, nil
		}
		n += len(chunk)
		a += Addr(len(chunk))
	}
}

// WriteCString writes s followed by a NUL terminator at addr.
func (m *Memory) WriteCString(addr Addr, s string) *Fault {
	b := make([]byte, len(s)+1)
	copy(b, s)
	return m.Write(addr, b)
}

// Stack returns the simulated stack of this address space.
func (m *Memory) Stack() *Stack { return &m.stack }
