package cmem

import (
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"
)

// TestForkChildWriteDoesNotLeak pins the core aliasing rule: a write in
// one fork is invisible to the parent and to every sibling fork, even
// though all three share the page until the write.
func TestForkChildWriteDoesNotLeak(t *testing.T) {
	m := New()
	p, err := m.Malloc(64)
	if err != nil {
		t.Fatal(err)
	}
	if f := m.StoreByte(p, 1); f != nil {
		t.Fatal(f)
	}

	a := m.Clone()
	b := m.Clone()
	if f := a.StoreByte(p, 2); f != nil {
		t.Fatal(f)
	}
	if f := b.StoreByte(p, 3); f != nil {
		t.Fatal(f)
	}

	for _, tt := range []struct {
		name string
		m    *Memory
		want byte
	}{
		{"parent", m, 1},
		{"child a", a, 2},
		{"child b", b, 3},
	} {
		if got, f := tt.m.LoadByte(p); f != nil || got != tt.want {
			t.Errorf("%s byte = %d, %v; want %d", tt.name, got, f, tt.want)
		}
	}

	fk := m.ForkStats().Snapshot()
	if fk.Forks != 2 {
		t.Errorf("Forks = %d, want 2", fk.Forks)
	}
	if fk.PagesShared == 0 || fk.PagesCopied == 0 {
		t.Errorf("expected sharing and copying, got %+v", fk)
	}
	if fk.BytesAvoided() <= 0 {
		t.Errorf("BytesAvoided = %d, want > 0", fk.BytesAvoided())
	}
}

// TestForkParentWriteDoesNotLeak is the symmetric direction: the parent
// diverging after a fork must not disturb the child's view.
func TestForkParentWriteDoesNotLeak(t *testing.T) {
	m := New()
	p, err := m.Malloc(16)
	if err != nil {
		t.Fatal(err)
	}
	if f := m.StoreByte(p, 7); f != nil {
		t.Fatal(f)
	}
	c := m.Clone()
	if f := m.StoreByte(p, 8); f != nil {
		t.Fatal(f)
	}
	if got, _ := c.LoadByte(p); got != 7 {
		t.Errorf("child byte = %d after parent write, want 7", got)
	}
	if got, _ := m.LoadByte(p); got != 8 {
		t.Errorf("parent byte = %d, want 8", got)
	}
}

// TestProtectAfterForkSplits verifies that changing a shared page's
// protection in one fork copies it: the other fork keeps both the old
// protection and the old contents.
func TestProtectAfterForkSplits(t *testing.T) {
	m := New()
	base, err := m.MmapRegion(PageSize, ProtRW)
	if err != nil {
		t.Fatal(err)
	}
	if f := m.StoreByte(base, 42); f != nil {
		t.Fatal(f)
	}
	c := m.Clone()
	c.Protect(base, PageSize, ProtRead)

	if f := c.StoreByte(base, 1); f == nil {
		t.Error("child write after Protect(ProtRead) did not fault")
	}
	if f := m.StoreByte(base, 43); f != nil {
		t.Errorf("parent write faulted after child Protect: %v", f)
	}
	if prot, ok := m.ProtAt(base); !ok || prot != ProtRW {
		t.Errorf("parent prot = %v, %v; want rw-", prot, ok)
	}
	if prot, ok := c.ProtAt(base); !ok || prot != ProtRead {
		t.Errorf("child prot = %v, %v; want r--", prot, ok)
	}
	if got, _ := c.LoadByte(base); got != 42 {
		t.Errorf("child lost pre-fork contents: byte = %d, want 42", got)
	}
}

// TestWriteOnlyPagesSurviveFork checks WONLY semantics across a fork:
// the page stays write-only on both sides, reads keep faulting with
// Mapped=true, and a child write still copies rather than aliasing.
func TestWriteOnlyPagesSurviveFork(t *testing.T) {
	m := New()
	wo, err := m.MmapRegion(PageSize, ProtWrite)
	if err != nil {
		t.Fatal(err)
	}
	if f := m.StoreByte(wo, 5); f != nil {
		t.Fatal(f)
	}
	c := m.Clone()
	for name, mm := range map[string]*Memory{"parent": m, "child": c} {
		if prot, ok := mm.ProtAt(wo); !ok || prot != ProtWrite {
			t.Errorf("%s prot = %v, %v; want -w-", name, prot, ok)
		}
		_, f := mm.LoadByte(wo)
		if f == nil {
			t.Errorf("%s read of write-only page did not fault", name)
		} else if !f.Mapped || f.Access != AccessRead {
			t.Errorf("%s fault = %+v, want mapped read fault", name, f)
		}
	}
	// The child's write must land on a private copy.
	if f := c.StoreByte(wo, 9); f != nil {
		t.Fatal(f)
	}
	c.Protect(wo, PageSize, ProtRW)
	m.Protect(wo, PageSize, ProtRW)
	if got, _ := c.LoadByte(wo); got != 9 {
		t.Errorf("child byte = %d, want 9", got)
	}
	if got, _ := m.LoadByte(wo); got != 5 {
		t.Errorf("parent byte = %d, want 5", got)
	}
}

// TestChildFreeLeavesParentAllocIntact: releasing a heap block in a
// fork unmaps the child's pages only; the parent's allocation table and
// data survive.
func TestChildFreeLeavesParentAllocIntact(t *testing.T) {
	m := New()
	p, err := m.Malloc(100)
	if err != nil {
		t.Fatal(err)
	}
	if f := m.Write(p, []byte("payload")); f != nil {
		t.Fatal(f)
	}
	c := m.Clone()
	if !c.Free(p) {
		t.Fatal("child Free returned false")
	}
	if _, f := c.LoadByte(p); f == nil {
		t.Error("child use-after-free did not fault")
	}
	if c.LiveAllocs() != 0 {
		t.Errorf("child LiveAllocs = %d, want 0", c.LiveAllocs())
	}

	if m.LiveAllocs() != 1 {
		t.Errorf("parent LiveAllocs = %d, want 1", m.LiveAllocs())
	}
	info, ok := m.AllocAt(p + 50)
	if !ok || info.Base != p || info.Size != 100 {
		t.Errorf("parent AllocAt = %+v, %v", info, ok)
	}
	got, f := m.Read(p, 7)
	if f != nil || string(got) != "payload" {
		t.Errorf("parent data = %q, %v", got, f)
	}

	// And the reverse: a parent Free must not unmap the child's view.
	m2 := New()
	q, _ := m2.Malloc(10)
	c2 := m2.Clone()
	m2.Free(q)
	if _, f := c2.LoadByte(q); f != nil {
		t.Errorf("child read faulted after parent Free: %v", f)
	}
}

// TestMapResetAfterForkSplits: re-mapping an already-mapped shared page
// (which resets protection but preserves contents) must not be visible
// to the other fork.
func TestMapResetAfterForkSplits(t *testing.T) {
	m := New()
	base, err := m.MmapRegion(PageSize, ProtRead)
	if err != nil {
		t.Fatal(err)
	}
	c := m.Clone()
	c.Map(base, PageSize, ProtRW)
	if f := c.StoreByte(base, 1); f != nil {
		t.Errorf("child write after re-map faulted: %v", f)
	}
	if f := m.StoreByte(base, 2); f == nil {
		t.Error("parent write to read-only page did not fault after child re-map")
	}
}

// TestForkOfForkDiverges exercises a three-generation chain: pages
// shared across grandparent/parent/child split correctly at each level.
func TestForkOfForkDiverges(t *testing.T) {
	g := New()
	p, err := g.Malloc(32)
	if err != nil {
		t.Fatal(err)
	}
	if f := g.StoreByte(p, 1); f != nil {
		t.Fatal(f)
	}
	mid := g.Clone()
	leaf := mid.Clone()
	if f := leaf.StoreByte(p, 3); f != nil {
		t.Fatal(f)
	}
	if f := mid.StoreByte(p, 2); f != nil {
		t.Fatal(f)
	}
	for _, tt := range []struct {
		name string
		m    *Memory
		want byte
	}{{"grandparent", g, 1}, {"middle", mid, 2}, {"leaf", leaf, 3}} {
		if got, _ := tt.m.LoadByte(p); got != tt.want {
			t.Errorf("%s byte = %d, want %d", tt.name, got, tt.want)
		}
	}
}

// TestForkOfWrittenForkReleaseOrders: forking a written fork folds the
// base it shares under its delta into a table of its own. Chain a
// template, a written mid fork and a leaf of it, release the three in
// every order, and check after each release that every survivor still
// reads its own bytes. At the end every page the chain took from the
// pool has gone back exactly once, and no zero page was written or
// pooled.
func TestForkOfWrittenForkReleaseOrders(t *testing.T) {
	const unmapped = "-"
	orders := [][3]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}
	for _, order := range orders {
		t.Run(fmt.Sprint(order), func(t *testing.T) {
			before := PoolCounts()
			tpl := New()
			a, err := tpl.MmapRegion(4*PageSize, ProtRW)
			if err != nil {
				t.Fatal(err)
			}
			page := func(i int) Addr { return a + Addr(i*PageSize) }
			write := func(m *Memory, i int, s string) {
				if f := m.WriteCString(page(i), s); f != nil {
					t.Fatal(f)
				}
			}
			// Page 2 stays a zero page in the template; the mid fork
			// overwrites page 1, writes page 2 and unmaps page 3.
			write(tpl, 0, "tpl0")
			write(tpl, 1, "tpl1")
			write(tpl, 3, "tpl3")
			mid := tpl.Clone()
			write(mid, 1, "mid1")
			write(mid, 2, "mid2")
			mid.Unmap(page(3), PageSize)
			leaf := mid.Clone()
			write(leaf, 0, "leaf0")

			chain := []*Memory{tpl, mid, leaf}
			wants := [][4]string{
				{"tpl0", "tpl1", "", "tpl3"},
				{"tpl0", "mid1", "mid2", unmapped},
				{"leaf0", "mid1", "mid2", unmapped},
			}
			names := []string{"template", "mid", "leaf"}
			released := [3]bool{}
			for step, r := range order {
				chain[r].Release()
				released[r] = true
				for k, m := range chain {
					if released[k] {
						continue
					}
					for i, want := range wants[k] {
						s, f := m.CString(page(i))
						if want == unmapped {
							if f == nil || f.Mapped {
								t.Errorf("step %d: %s page %d = %q, %v; want an unmapped fault", step, names[k], i, s, f)
							}
						} else if f != nil || s != want {
							t.Errorf("step %d: %s page %d = %q, %v; want %q", step, names[k], i, s, f, want)
						}
					}
				}
			}
			after := PoolCounts()
			if gets, puts := after.Gets-before.Gets, after.Puts-before.Puts; gets != puts {
				t.Errorf("the chain took %d pages from the pool and returned %d", gets, puts)
			}
			requireZeroPages(t)
		})
	}
}

// TestForkOfUnwrittenForkReleaseOrders: a worker forks the shared
// template and never writes its fork; every test forks that fork. A
// never-written fork of a never-written fork shares the template's
// frozen table, with no copy. With a written child under each, the
// five Memories are released in every order: survivors keep reading
// their bytes, the table lives exactly as long as some Memory of the
// tree does, every page taken from the pool returns to it exactly
// once, and the tree's ForkStats count every fork.
func TestForkOfUnwrittenForkReleaseOrders(t *testing.T) {
	var orders [][]int
	var permute func(prefix []int, rest []int)
	permute = func(prefix, rest []int) {
		if len(rest) == 0 {
			orders = append(orders, prefix)
			return
		}
		for i := range rest {
			next := append(append([]int(nil), rest[:i]...), rest[i+1:]...)
			permute(append(append([]int(nil), prefix...), rest[i]), next)
		}
	}
	permute(nil, []int{0, 1, 2, 3, 4})
	for _, order := range orders {
		before := PoolCounts()
		tpl := New()
		a, err := tpl.MmapRegion(2*PageSize, ProtRW)
		if err != nil {
			t.Fatal(err)
		}
		page := func(i int) Addr { return a + Addr(i*PageSize) }
		write := func(m *Memory, i int, s string) {
			if f := m.WriteCString(page(i), s); f != nil {
				t.Fatal(f)
			}
		}
		write(tpl, 0, "tpl0")
		write(tpl, 1, "tpl1")
		w := tpl.Clone()
		root := tpl.base
		w2 := w.Clone()
		c1 := w.Clone()
		c2 := w2.Clone()
		if w.base != root || w2.base != root {
			t.Fatalf("%v: an unwritten fork froze a table of its own", order)
		}
		write(c1, 0, "c1")
		write(c2, 1, "c2")
		stats := tpl.ForkStats()

		chain := []*Memory{tpl, w, w2, c1, c2}
		wants := [][2]string{{"tpl0", "tpl1"}, {"tpl0", "tpl1"}, {"tpl0", "tpl1"}, {"c1", "tpl1"}, {"tpl0", "c2"}}
		released := make([]bool, len(chain))
		for step, r := range order {
			chain[r].Release()
			released[r] = true
			if last := step == len(order)-1; (root.refs.Load() == 0) != last {
				t.Fatalf("%v step %d: root table refs %d", order, step, root.refs.Load())
			}
			for k, m := range chain {
				if released[k] {
					continue
				}
				for i, want := range wants[k] {
					if s, f := m.CString(page(i)); f != nil || s != want {
						t.Errorf("%v step %d: Memory %d page %d = %q, %v; want %q", order, step, k, i, s, f, want)
					}
				}
			}
		}
		after := PoolCounts()
		if gets, puts := after.Gets-before.Gets, after.Puts-before.Puts; gets != puts {
			t.Errorf("%v: the tree took %d pages from the pool and returned %d", order, gets, puts)
		}
		if fk, n := stats.Snapshot(), int64(len(root.pages)); fk.Forks != 4 || fk.PagesCopied != 2 || fk.PagesShared != 4*n {
			t.Errorf("%v: fork counts %+v, want 4 forks sharing %d pages each and 2 copies", order, fk, n)
		}
	}
	requireZeroPages(t)
}

// TestReleaseReturnsPagesAndPoisons: Release drops the page table; the
// memory then faults as unmapped, and pooled pages handed to a fresh
// mapping read as zero (no stale data escapes the pool).
func TestReleaseReturnsPagesAndPoisons(t *testing.T) {
	m := New()
	p, err := m.Malloc(PageSize)
	if err != nil {
		t.Fatal(err)
	}
	fill := make([]byte, PageSize)
	for i := range fill {
		fill[i] = 0xAB
	}
	if f := m.Write(p, fill); f != nil {
		t.Fatal(f)
	}
	m.Release()
	if _, f := m.LoadByte(p); f == nil {
		t.Error("read after Release did not fault")
	}

	// Fresh mappings must be zeroed even when served from the pool.
	m2 := New()
	q, err := m2.Malloc(PageSize)
	if err != nil {
		t.Fatal(err)
	}
	data, f := m2.Read(q, PageSize)
	if f != nil {
		t.Fatal(f)
	}
	for i, b := range data {
		if b != 0 {
			t.Fatalf("fresh page byte %d = %#x, want 0 (stale pool data leaked)", i, b)
		}
	}
}

// TestSharedPageReleaseKeepsSibling: releasing one fork must not return
// still-shared pages to the pool while a sibling references them.
func TestSharedPageReleaseKeepsSibling(t *testing.T) {
	m := New()
	p, err := m.Malloc(64)
	if err != nil {
		t.Fatal(err)
	}
	if f := m.StoreByte(p, 0x5A); f != nil {
		t.Fatal(f)
	}
	c := m.Clone()
	c.Release()
	// Thrash the pool so a wrongly released page would be recycled.
	for i := 0; i < 8; i++ {
		x := New()
		if _, err := x.Malloc(4 * PageSize); err != nil {
			t.Fatal(err)
		}
		x.Release()
	}
	if got, f := m.LoadByte(p); f != nil || got != 0x5A {
		t.Errorf("parent byte = %d, %v after child release; want 0x5a", got, f)
	}
}

// TestConcurrentTemplateForks is the race audit for the scheduler's
// worker-template pattern: many goroutines fork one idle template
// concurrently, diverge privately, and release. Run under -race this
// validates the atomic refcount protocol end to end.
func TestConcurrentTemplateForks(t *testing.T) {
	template := New()
	p, err := template.Malloc(3 * PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if f := template.WriteCString(p, "template"); f != nil {
		t.Fatal(f)
	}

	const workers, forksPerWorker = 8, 50
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < forksPerWorker; i++ {
				c := template.Clone()
				if s, f := c.CString(p); f != nil || s != "template" {
					errs <- "fork saw corrupted template data"
				}
				if f := c.StoreByte(p, byte(w)); f != nil {
					errs <- f.Error()
				}
				if got, _ := c.LoadByte(p); got != byte(w) {
					errs <- "fork lost its private write"
				}
				c.Release()
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	if s, f := template.CString(p); f != nil || s != "template" {
		t.Fatalf("template mutated by concurrent forks: %q, %v", s, f)
	}
	fk := template.ForkStats().Snapshot()
	if want := int64(workers * forksPerWorker); fk.Forks != want {
		t.Errorf("Forks = %d, want %d", fk.Forks, want)
	}
}

// TestPoolHygieneStalePagePoisoning is the pool-hygiene audit: a page
// handed back on Release carries its previous life's bytes in the
// freelist, so a recycled mapping that skipped the newPage zeroing —
// or a page released while still shared — would surface here as
// poison. Poison a released fork's private pages, recycle them through
// fresh mappings, and verify the survivors and the recycled view both
// stay clean, with the pool counters accounting for the round trip.
func TestPoolHygieneStalePagePoisoning(t *testing.T) {
	before := PoolCounts()

	m := New()
	p, err := m.MmapRegion(2*PageSize, ProtRW)
	if err != nil {
		t.Fatal(err)
	}
	if f := m.WriteCString(p, "pristine"); f != nil {
		t.Fatal(f)
	}
	sib := m.Clone()

	// Diverge a child with poison across both pages; its private copies
	// go back to the pool on Release still holding the poison bytes.
	child := m.Clone()
	for off := 0; off < 2*PageSize; off += PageSize {
		if f := child.WriteCString(p+Addr(off), "POISON"); f != nil {
			t.Fatal(f)
		}
	}
	child.Release()

	// Recycle: fresh mappings drawn from the freelist must read as zero
	// even though the buffers last held the poison.
	fresh := New()
	q, err := fresh.MmapRegion(4*PageSize, ProtRW)
	if err != nil {
		t.Fatal(err)
	}
	data, f := fresh.Read(q, 4*PageSize)
	if f != nil {
		t.Fatal(f)
	}
	for i, b := range data {
		if b != 0 {
			t.Fatalf("recycled page byte %d = %#x, want 0 (stale pool data leaked)", i, b)
		}
	}

	// Scribbling over the recycled pages must not reach the survivors:
	// if Release had returned a still-shared page, this write would
	// tear through the parent or sibling view.
	if f := fresh.WriteCString(q, "scribble"); f != nil {
		t.Fatal(f)
	}
	if s, f := m.CString(p); f != nil || s != "pristine" {
		t.Errorf("parent = %q, %v after pool recycle; want \"pristine\"", s, f)
	}
	if s, f := sib.CString(p); f != nil || s != "pristine" {
		t.Errorf("sibling = %q, %v after pool recycle; want \"pristine\"", s, f)
	}
	fresh.Release()
	sib.Release()

	after := PoolCounts()
	if gets, puts := after.Gets-before.Gets, after.Puts-before.Puts; gets == 0 || puts == 0 {
		t.Errorf("pool counters did not move: gets=%d puts=%d", gets, puts)
	}
}

// TestConcurrentTemplateForksThroughCheckpoints extends the race audit
// to fork-of-fork chains, the refcount protocol's deepest sharing
// pattern: each worker forks the shared template into a diverged
// mid-depth checkpoint, then forks a stream of short-lived run children
// from that checkpoint. Run under -race via the bench-smoke regex, this
// validates that children release back through two levels of sharing
// without corrupting the checkpoint, its siblings, or the template.
func TestConcurrentTemplateForksThroughCheckpoints(t *testing.T) {
	template := New()
	p, err := template.Malloc(3 * PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if f := template.WriteCString(p, "template"); f != nil {
		t.Fatal(f)
	}

	const workers, runsPerCheckpoint = 8, 40
	var wg sync.WaitGroup
	errs := make(chan string, workers*4)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			mark := fmt.Sprintf("checkpoint-%d", w)
			ckpt := template.Clone()
			if f := ckpt.WriteCString(p, mark); f != nil {
				errs <- f.Error()
				return
			}
			for i := 0; i < runsPerCheckpoint; i++ {
				c := ckpt.Clone()
				if s, f := c.CString(p); f != nil || s != mark {
					errs <- "run child saw corrupted checkpoint state: " + s
				}
				if f := c.StoreByte(p+PageSize, byte(i+1)); f != nil {
					errs <- f.Error()
				}
				if got, _ := c.LoadByte(p + PageSize); got != byte(i+1) {
					errs <- "run child lost its private write"
				}
				c.Release()
			}
			// Children released; the checkpoint's divergence must survive.
			if s, f := ckpt.CString(p); f != nil || s != mark {
				errs <- "checkpoint corrupted by its released children: " + s
			}
			if got, _ := ckpt.LoadByte(p + PageSize); got != 0 {
				errs <- "run-child write leaked into its checkpoint"
			}
			ckpt.Release()
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	if s, f := template.CString(p); f != nil || s != "template" {
		t.Fatalf("template mutated by checkpoint forks: %q, %v", s, f)
	}
	fk := template.ForkStats().Snapshot()
	if want := int64(workers * (runsPerCheckpoint + 1)); fk.Forks != want {
		t.Errorf("Forks = %d, want %d", fk.Forks, want)
	}
}

// zeroExcept reports the fields of the struct v points to that are not
// zero, other than those named in keep. Release tests use it so a field
// added to a recycled struct later cannot carry one life's state into
// the next unnoticed.
func zeroExcept(v any, keep ...string) []string {
	var dirty []string
	s := reflect.ValueOf(v).Elem()
	for i := 0; i < s.NumField(); i++ {
		name := s.Type().Field(i).Name
		if !s.Field(i).IsZero() && !slices.Contains(keep, name) {
			dirty = append(dirty, name)
		}
	}
	return dirty
}

// TestReleaseZeroesEveryField: a released Memory keeps its emptied
// delta map and heap containers for reuse and nothing else — no page,
// layer, cursor, heap or stack state, fork counters or trace identity.
func TestReleaseZeroesEveryField(t *testing.T) {
	tpl := New()
	if _, err := tpl.Malloc(100); err != nil {
		t.Fatal(err)
	}
	m := tpl.Clone()
	a, err := m.Malloc(2 * PageSize)
	if err != nil {
		t.Fatal(err)
	}
	m.StoreByte(a, 1)
	m.Stack().PushFrame(32)
	m.TraceID, m.SpanID = 1, 2
	m.Release()
	if dirty := zeroExcept(m, "spare"); len(dirty) > 0 {
		t.Errorf("Release left fields set: %v", dirty)
	}
	if sp := m.spare; sp.own == nil || len(sp.own) != 0 || sp.allocs == nil || len(sp.allocs) != 0 || sp.sorted == nil || len(sp.sorted) != 0 {
		t.Errorf("released Memory keeps spares %v, want empty ones", sp)
	}
	m.Release() // a second release parks nothing twice
	if got, again := mems.Get(), mems.Get(); got != m || again == m {
		t.Errorf("free list holds %p then %p, want the released Memory %p once", got, again, m)
	}
	tpl.Release()
}
