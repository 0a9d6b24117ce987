package cmem

// The eager fork: the reference model the copy-on-write Clone is tested
// and benchmarked against.

// forEachPage visits every mapped page, with own entries shadowing the
// base.
func (m *Memory) forEachPage(fn func(base Addr, pg *page)) {
	for base, pg := range m.own {
		if pg != nil {
			fn(base, pg)
		}
	}
	if m.base == nil {
		return
	}
	for base, pg := range m.base.pages {
		if _, ok := m.own[base]; !ok {
			fn(base, pg)
		}
	}
}

// CloneEager returns a deep copy sharing no pages or tables: the
// pre-COW fork, kept as the reference implementation for the
// differential tests and the eager-vs-COW benchmarks. It does not
// count toward ForkStats.
func (m *Memory) CloneEager() *Memory {
	c, sp := alloc()
	*c = Memory{
		own:        sp.own,
		heap:       m.heap.cloneInto(sp.allocs, sp.sorted),
		tlbOn:      true,
		heapCursor: m.heapCursor,
		mmapCursor: m.mmapCursor,
		stats:      m.stats,
		TraceID:    m.TraceID,
		SpanID:     m.SpanID,
	}
	m.forEachPage(func(base Addr, pg *page) {
		if isZero(pg) {
			c.own[base] = pg // immutable: shared even by a deep copy
		} else {
			c.own[base] = copyOf(pg)
		}
	})
	c.stack = m.stack.clone()
	return c
}
