package csim

import (
	"fmt"
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
