//go:build race

package cmem

import "sync"

// FreeList is the race build's free list (see freelist.go): a bounded,
// locked stack. Unlike a sync.Pool under the race detector it never
// drops an entry on its own, so what a fork allocates is deterministic
// and a struct released just before a Get is the one it returns.
type FreeList[T any] struct {
	mu    sync.Mutex
	items []*T
}

// freeListCap bounds each free list: far more than the worlds a few
// workers hold live at once, and small enough that what is parked
// costs nothing measurable.
const freeListCap = 64

// Get takes a parked struct, or returns nil when none is parked. The
// struct is in whatever state its Release left it.
func (l *FreeList[T]) Get() *T {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.items)
	if n == 0 {
		return nil
	}
	x := l.items[n-1]
	l.items[n-1] = nil
	l.items = l.items[:n-1]
	return x
}

// Put parks x for reuse. Beyond the cap it is left to the collector.
func (l *FreeList[T]) Put(x *T) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.items) < freeListCap {
		l.items = append(l.items, x)
	}
}
