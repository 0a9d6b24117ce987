package cmem

import "sort"

// AllocInfo describes one live heap allocation. The robustness wrapper's
// stateful memory checking (paper §5.1) consults this table to perform
// exact boundary checks — including overflows that stay within a mapped
// page and therefore cannot be caught by page probing.
type AllocInfo struct {
	Base Addr
	Size int
}

// End returns the first address past the allocation.
func (a AllocInfo) End() Addr { return a.Base + Addr(a.Size) }

// heapState tracks live allocations. The sorted index is maintained
// incrementally by Malloc/Free rather than rebuilt lazily on lookup:
// AllocAt is a read path, and read paths must not write state (a frozen
// snapshot or a shared fork template stays bit-identical under reads).
//
// Both containers exist for the whole life of a Memory: alloc hands
// them over, emptied by the Release of the Memory's previous life when
// one is parked, so a forked child's first Malloc allocates nothing.
type heapState struct {
	allocs map[Addr]int // base -> size
	sorted []Addr       // sorted bases, for containing-block lookup
}

// cloneInto copies the heap into the empty containers allocs and
// sorted and returns the copy.
func (h *heapState) cloneInto(allocs map[Addr]int, sorted []Addr) heapState {
	for b, s := range h.allocs {
		allocs[b] = s
	}
	return heapState{allocs: allocs, sorted: append(sorted, h.sorted...)}
}

// insert records base in the sorted index. The heap cursor only grows,
// so within one address space new bases append; the general insert
// covers forked children interleaving with inherited allocations.
func (h *heapState) insert(base Addr) {
	if n := len(h.sorted); n == 0 || h.sorted[n-1] < base {
		h.sorted = append(h.sorted, base)
		return
	}
	i := sort.Search(len(h.sorted), func(i int) bool { return h.sorted[i] >= base })
	h.sorted = append(h.sorted, 0)
	copy(h.sorted[i+1:], h.sorted[i:])
	h.sorted[i] = base
}

// remove drops base from the sorted index.
func (h *heapState) remove(base Addr) {
	i := sort.Search(len(h.sorted), func(i int) bool { return h.sorted[i] >= base })
	if i < len(h.sorted) && h.sorted[i] == base {
		h.sorted = append(h.sorted[:i], h.sorted[i+1:]...)
	}
}

// Malloc allocates size bytes on the simulated heap. Each allocation is
// placed on fresh pages followed by an unmapped guard gap, so an access
// past the final mapped page faults. (Accesses past the allocation but
// within its final page do NOT fault — exactly the real-hardware gap that
// motivates the paper's stateful heap tracking.)
func (m *Memory) Malloc(size int) (Addr, error) {
	if size < 0 {
		return 0, ErrNoMemory
	}
	n := size
	if n == 0 {
		n = 1 // C malloc(0) may return a unique pointer; give it a byte of page
	}
	pages := (n + PageSize - 1) / PageSize
	base := m.heapCursor + PageSize // leading guard gap
	if base+Addr((pages+1)*PageSize) < m.heapCursor {
		return 0, ErrNoMemory
	}
	m.Map(base, pages*PageSize, ProtRW)
	m.heapCursor = base + Addr(pages*PageSize) + PageSize
	m.heap.allocs[base] = size
	m.heap.insert(base)
	return base, nil
}

// Calloc allocates and zeroes size bytes (pages start zeroed, so this is
// Malloc plus bookkeeping parity with C).
func (m *Memory) Calloc(size int) (Addr, error) { return m.Malloc(size) }

// Free releases the allocation based at addr. Freeing an address that is
// not a live allocation base reports false (the simulated libc would
// corrupt its arena; the wrapper cares only about validity).
func (m *Memory) Free(addr Addr) bool {
	size, ok := m.heap.allocs[addr]
	if !ok {
		return false
	}
	n := size
	if n == 0 {
		n = 1
	}
	m.Unmap(addr, n)
	delete(m.heap.allocs, addr)
	m.heap.remove(addr)
	return true
}

// Realloc resizes the allocation at addr to size bytes, moving it and
// copying min(old,new) bytes. Realloc(0, size) behaves like Malloc.
func (m *Memory) Realloc(addr Addr, size int) (Addr, error) {
	if addr == 0 {
		return m.Malloc(size)
	}
	old, ok := m.heap.allocs[addr]
	if !ok {
		return 0, ErrNoMemory
	}
	nb, err := m.Malloc(size)
	if err != nil {
		return 0, err
	}
	n := old
	if size < n {
		n = size
	}
	if n > 0 {
		data, f := m.Read(addr, n)
		if f == nil {
			_ = m.Write(nb, data)
		}
	}
	m.Free(addr)
	return nb, nil
}

// AllocAt returns the live allocation whose [Base, End) range contains
// addr, if any. This is the wrapper's stateful lookup. It is a pure
// read: the sorted index is maintained at allocation time.
func (m *Memory) AllocAt(addr Addr) (AllocInfo, bool) {
	h := &m.heap
	i := sort.Search(len(h.sorted), func(i int) bool { return h.sorted[i] > addr })
	if i == 0 {
		return AllocInfo{}, false
	}
	base := h.sorted[i-1]
	size := h.allocs[base]
	end := base + Addr(size)
	if size == 0 {
		end = base + 1
	}
	if addr < end {
		return AllocInfo{Base: base, Size: size}, true
	}
	return AllocInfo{}, false
}

// IsAllocBase reports whether addr is the base of a live allocation.
func (m *Memory) IsAllocBase(addr Addr) bool {
	_, ok := m.heap.allocs[addr]
	return ok
}

// LiveAllocs returns the number of live heap allocations.
func (m *Memory) LiveAllocs() int { return len(m.heap.allocs) }
