//go:build !race

package cmem

import "sync"

// FreeList parks released structs for reuse. The per-test world of a
// campaign (a forked process, its Memory, a wrapper interposer) is
// built and dropped thousands of times per suite; a struct its owner
// releases here is what the next fork takes instead of a fresh
// allocation. It is a typed sync.Pool, which parks per P: a worker
// takes back what it released on its own core, with no lock and no
// write to a line another worker writes. A pool may drop what it holds
// at a garbage collection, so a struct is only ever saved, never owed.
// The zero value is empty and ready to use.
//
// Under the race detector sync.Pool drops entries at random as well,
// so race builds use the locked stack of freelist_race.go instead: it
// never drops an entry, and the allocation gates and the reuse checks
// hold under -race as they do without it.
type FreeList[T any] struct{ pool sync.Pool }

// Get takes a parked struct, or returns nil when none is parked. The
// struct is in whatever state its Release left it.
func (l *FreeList[T]) Get() *T {
	x, _ := l.pool.Get().(*T)
	return x
}

// Put parks x for reuse.
func (l *FreeList[T]) Put(x *T) { l.pool.Put(x) }
