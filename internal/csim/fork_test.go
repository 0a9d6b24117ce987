package csim

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"testing"
)

// TestConcurrentTemplateForksShareFS is the race audit for the shared
// filesystem name table: many goroutines fork one idle template at
// once, and every child creates, removes and rewrites files. The
// template's table and file bytes must come out untouched, every child
// must see only its own changes, and a second round of forks (which
// finds the table already shared) must behave the same. Run it under
// -race: the freeze and share bits are the only template state a fork
// may write.
func TestConcurrentTemplateForksShareFS(t *testing.T) {
	fs := NewFS()
	fs.Create("/fixture", []byte("fixture"))
	fs.Create("/dir/one", []byte("1"))
	tpl := NewProcess(fs)
	before := fs.List("/")

	for round := 0; round < 2; round++ {
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				c := tpl.Fork()
				defer c.Release()
				mine := fmt.Sprintf("/child%d", g)
				c.FS.Create(mine, []byte(mine))
				c.FS.Remove("/dir/one")
				fd := c.OpenFile("/fixture", ReadWrite, false)
				of := c.FD(fd)
				c.PrivatizeForWrite(of)
				of.File.Data[0] = 'F'
				if f, ok := c.FS.Lookup("/fixture"); !ok || f != of.File || string(f.Data) != "Fixture" {
					t.Errorf("child %d: its name table does not see its own write", g)
				}
				if _, ok := c.FS.Lookup(mine); !ok {
					t.Errorf("child %d: created file missing", g)
				}
				for h := 0; h < 8; h++ {
					if _, ok := c.FS.Lookup(fmt.Sprintf("/child%d", h)); ok && h != g {
						t.Errorf("child %d sees child %d's file", g, h)
					}
				}
			}(g)
		}
		wg.Wait()
		if got := fs.List("/"); fmt.Sprint(got) != fmt.Sprint(before) {
			t.Fatalf("round %d: template root = %v, want %v", round, got, before)
		}
		f, ok := fs.Lookup("/fixture")
		if !ok || string(f.Data) != "fixture" || !f.Frozen() {
			t.Fatalf("round %d: template fixture = %q (frozen %v), want the frozen original", round, f.Data, f.Frozen())
		}
		if _, ok := fs.Lookup("/dir/one"); !ok {
			t.Fatalf("round %d: a child's Remove reached the template", round)
		}
	}
}

// TestReleaseZeroesProcess: a released process keeps nothing — its
// memory, filesystem view, descriptors, callbacks, statics, stdio and
// counters are all gone — so a field added later cannot carry one
// test's state into the next fork that reuses the struct. Its Memory is
// released with it, and a second release parks nothing twice.
func TestReleaseZeroesProcess(t *testing.T) {
	fs := NewFS()
	fs.Create("/f", []byte("data"))
	tpl := NewProcess(fs)
	tpl.Stdin = []byte("in")
	c := tpl.Fork()
	c.OpenFile("/f", ReadWrite, false)
	c.RegisterCallback(func(*Process, []uint64) uint64 { return 0 })
	c.Static("s", 8)
	c.SetErrno(EINVAL)
	c.Stdout = append(c.Stdout, 'x')
	c.SetStepBudget(5)
	c.Metrics = &Metrics{}
	mem := c.Mem
	c.Release()
	v := reflect.ValueOf(c).Elem()
	for i := 0; i < v.NumField(); i++ {
		if !v.Field(i).IsZero() {
			t.Errorf("Release left %s set", v.Type().Field(i).Name)
		}
	}
	if _, f := mem.LoadByte(0x7fff_ffff_e000); f == nil {
		t.Error("the released process's memory still reads its stack")
	}
	c.Release()
	if got, again := procs.Get(), procs.Get(); got != c || again == c {
		t.Errorf("free list holds %p then %p, want the released process %p once", got, again, c)
	}
	tpl.Release()
}

// TestTruncatingOpenCopiesNothing: "w" and creat on a fork-shared file
// privatize it empty — the child sees an empty file, its sibling and
// the template keep the bytes, and no byte of the old contents is
// copied. The parked files are drained first, so the private copy is a
// new file and an empty buffer shows that nothing was copied into it.
func TestTruncatingOpenCopiesNothing(t *testing.T) {
	for spareFiles.Get() != nil {
	}
	for bareFiles.Get() != nil {
	}
	fs := NewFS()
	fixture := fs.Create("/f", bytes.Repeat([]byte("z"), 8192))
	tpl := NewProcess(fs)
	sib := tpl.Fork()
	defer sib.Release()
	c := tpl.Fork()
	defer c.Release()
	for _, trunc := range []func() *OpenFD{
		func() *OpenFD { return c.FD(c.FILEFd(c.Fopen("/f", "w"))) },
		func() *OpenFD {
			fd := c.OpenFile("/f", WriteOnly, true)
			c.TruncateForWrite(c.FD(fd))
			return c.FD(fd)
		},
	} {
		of := trunc()
		if of.File == fixture || len(of.File.Data) != 0 || cap(of.File.Data) != 0 || of.File.Frozen() {
			t.Errorf("truncated file: shared %v, len %d, cap %d, frozen %v; want a private empty file with no copied bytes",
				of.File == fixture, len(of.File.Data), cap(of.File.Data), of.File.Frozen())
		}
		if f, _ := c.FS.Lookup("/f"); f != of.File {
			t.Error("the name table still points at the shared file")
		}
	}
	for name, p := range map[string]*Process{"template": tpl, "sibling": sib} {
		if f, _ := p.FS.Lookup("/f"); len(f.Data) != 8192 {
			t.Errorf("%s sees %d bytes after the child's truncation, want 8192", name, len(f.Data))
		}
	}
}

// TestCreateUnchangedIsNoOp: re-creating a file with the bytes it
// already holds, while it is frozen, returns the very file — same
// inode — and leaves the forked child's name table shared and its
// replacements empty, without allocating.
func TestCreateUnchangedIsNoOp(t *testing.T) {
	fs := NewFS()
	data := []byte("fixture")
	f := fs.Create("/dir/f", data)
	tpl := NewProcess(fs)
	defer tpl.Release()
	c := tpl.Fork()
	defer c.Release()
	table := reflect.ValueOf(c.FS.files).UnsafePointer()
	if g := c.FS.Create("/dir/f", []byte("fixture")); g != f || g.Ino != f.Ino {
		t.Fatalf("re-create returned inode %d (same file %v), want the existing file, inode %d", g.Ino, g == f, f.Ino)
	}
	if reflect.ValueOf(c.FS.files).UnsafePointer() != table || !c.FS.shared.Load() || len(c.FS.repl) != 0 {
		t.Error("an unchanged re-create touched the child's name table")
	}
	if n := testing.AllocsPerRun(100, func() { c.FS.Create("/dir/f", data) }); n != 0 {
		t.Errorf("an unchanged re-create allocates %.0f times, want 0", n)
	}
}

// TestCreateDifferingKeepsInode: re-creating a name with other bytes
// keeps its inode, as an O_TRUNC open does, without copying the
// child's name table or taking an inode number; the template and a
// sibling still read the old bytes.
func TestCreateDifferingKeepsInode(t *testing.T) {
	fs := NewFS()
	f := fs.Create("/dir/f", []byte("fixture"))
	tpl := NewProcess(fs)
	defer tpl.Release()
	sib := tpl.Fork()
	defer sib.Release()
	c := tpl.Fork()
	defer c.Release()
	table, next := reflect.ValueOf(c.FS.files).UnsafePointer(), c.FS.nextIno
	g := c.FS.Create("/dir/f", []byte("other"))
	if g == f || g.Ino != f.Ino || c.FS.nextIno != next {
		t.Errorf("re-create gave inode %d (same file %v, next inode %d), want a new file on inode %d (next %d)",
			g.Ino, g == f, c.FS.nextIno, f.Ino, next)
	}
	if reflect.ValueOf(c.FS.files).UnsafePointer() != table {
		t.Error("a differing re-create copied the child's name table")
	}
	for who, p := range map[string]*Process{"child": c, "sibling": sib, "template": tpl} {
		want := "fixture"
		if p == c {
			want = "other"
		}
		if h, _ := p.FS.Lookup("/dir/f"); string(h.Data) != want || h.Ino != f.Ino {
			t.Errorf("%s reads %q on inode %d, want %q on inode %d", who, h.Data, h.Ino, want, f.Ino)
		}
	}
	// A process that owns its table keeps the inode too.
	if h := fs.Create("/dir/f", []byte("again")); h.Ino != f.Ino {
		t.Errorf("re-create in the template gave inode %d, want %d", h.Ino, f.Ino)
	}
}

// TestDescriptorTable: the slice-backed table keeps dup aliasing
// across Fork, answers EBADF for closed, negative and out-of-range
// descriptors, and keeps its open count through closes, past its
// inline slots and in a fork.
func TestDescriptorTable(t *testing.T) {
	fs := NewFS()
	fs.Create("/f", []byte("abc"))
	p := NewProcess(fs)
	defer p.Release()
	fd := p.OpenFile("/f", ReadWrite, false)
	dup := p.DupFD(p.FD(fd))
	c := p.Fork()
	defer c.Release()
	if c.FD(fd) != c.FD(dup) || c.FD(fd) == p.FD(fd) {
		t.Fatal("the fork lost the dup aliasing or shares the parent's description")
	}
	c.FD(fd).Pos = 2
	if p.FD(fd).Pos != 0 || c.FD(dup).Pos != 2 {
		t.Error("a fork's position moved the parent's, or not its own dup's")
	}
	if !c.CloseFD(dup) || c.FD(fd) == nil {
		t.Fatal("closing the dup failed, or closed its alias too")
	}
	if c.CloseFD(dup) || c.Errno() != EBADF {
		t.Errorf("a double close succeeded or set errno %d, want EBADF", c.Errno())
	}
	for _, bad := range []int{-1, 2, 1 << 20} {
		c.ClearErrno()
		if c.FD(bad) != nil || c.CloseFD(bad) || c.Errno() != EBADF {
			t.Errorf("descriptor %d: resolved or closed (errno %d), want EBADF", bad, c.Errno())
		}
	}
	if c.OpenFDCount() != 1 || p.OpenFDCount() != 2 {
		t.Errorf("open counts: fork %d, parent %d; want 1 and 2", c.OpenFDCount(), p.OpenFDCount())
	}

	var fds []int
	for i := 0; i < 2*fdInline; i++ {
		fds = append(fds, p.OpenFile("/f", ReadOnly, false))
	}
	for i := 0; i < len(fds); i += 2 {
		p.CloseFD(fds[i])
	}
	if want := 2 + fdInline; p.OpenFDCount() != want {
		t.Errorf("past the inline slots: %d open, want %d", p.OpenFDCount(), want)
	}
	gc := p.Fork()
	defer gc.Release()
	if gc.OpenFDCount() != p.OpenFDCount() {
		t.Errorf("the fork counts %d open, the parent %d", gc.OpenFDCount(), p.OpenFDCount())
	}
	for i, fd := range fds {
		if open := gc.FD(fd) != nil; open != (i%2 == 1) {
			t.Errorf("the fork's descriptor %d open %v, want %v", fd, open, i%2 == 1)
		}
	}
}
