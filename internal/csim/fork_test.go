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
// copied.
func TestTruncatingOpenCopiesNothing(t *testing.T) {
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
