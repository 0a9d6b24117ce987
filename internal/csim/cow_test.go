package csim_test

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"healers/internal/clib"
	"healers/internal/csim"
	"healers/internal/gens"
)

// writeFile opens name in mode and fputs s through lib, as a program
// writing the file would.
func writeFile(t *testing.T, lib *clib.Library, p *csim.Process, name, mode, s string) {
	t.Helper()
	fp := p.Fopen(name, mode)
	if fp == 0 {
		t.Fatalf("fopen(%s, %q) failed, errno %d", name, mode, p.Errno())
	}
	buf := p.Malloc(len(s) + 1)
	p.StoreCString(buf, s)
	lib.Call(p, "fputs", uint64(buf), uint64(fp))
	lib.Call(p, "fclose", uint64(fp))
}

// contents is what p reads from name.
func contents(p *csim.Process, name string) string {
	f, ok := p.FS.Lookup(name)
	if !ok {
		return "<missing>"
	}
	return string(f.Data)
}

// TestFileWritesCopyOnWrite checks that a write stays with its
// writer: writes, truncating opens and appends through a process,
// before and after it forks, and through its forks leave the slice
// given to FS.Create as it was, and siblings and the template still
// read the bytes they had.
func TestFileWritesCopyOnWrite(t *testing.T) {
	lib := clib.New()
	const orig = "fixture bytes\n"
	data := []byte(orig)
	fs := csim.NewFS()
	for _, name := range []string{"/f", "/g", "/h", "/i"} {
		fs.Create(name, data)
	}
	tpl := csim.NewProcess(fs)
	defer tpl.Release()
	// Before any fork has frozen the table.
	writeFile(t, lib, tpl, "/h", "r+", "H")
	writeFile(t, lib, tpl, "/i", "w", "I")

	a := tpl.Fork()
	defer a.Release()
	writeFile(t, lib, a, "/f", "r+", "XY")
	b := tpl.Fork()
	defer b.Release()
	writeFile(t, lib, b, "/g", "w", "Z")
	bb := b.Fork()
	defer bb.Release()
	writeFile(t, lib, bb, "/f", "a", "tail")
	writeFile(t, lib, tpl, "/g", "r+", "T")
	sib := tpl.Fork()
	defer sib.Release()

	if string(data) != orig {
		t.Fatalf("caller's slice is %q after the writes, want %q", data, orig)
	}
	for _, c := range []struct {
		who        string
		p          *csim.Process
		name, want string
	}{
		{"template before its forks", tpl, "/h", "Hixture bytes\n"},
		{"template before its forks", tpl, "/i", "I"},
		{"writer a", a, "/f", "XYxture bytes\n"},
		{"writer b", b, "/g", "Z"},
		{"b's fork", bb, "/f", orig + "tail"},
		{"template", tpl, "/g", "Tixture bytes\n"},
		{"a's sibling b", b, "/f", orig},
		{"b's sibling a", a, "/g", orig},
		{"template under its forks", tpl, "/f", orig},
		{"b under its fork", b, "/f", orig},
		{"sibling forked after the template wrote", sib, "/f", orig},
		{"sibling forked after the template wrote", sib, "/g", "Tixture bytes\n"},
	} {
		if got := contents(c.p, c.name); got != c.want {
			t.Errorf("%s reads %q from %s, want %q", c.who, got, c.name, c.want)
		}
	}
}

// TestSharedFixtureTemplate checks the fixture sharing every campaign
// and Ballista test relies on: FS.Create keeps the caller's slice,
// frozen, so every process that creates the fixture from the one
// gens.FixtureFileContents template reads the same bytes, and each
// write copies first. Under -race, goroutines each create the fixture
// from the template and write through it with fputc, fwrite, a
// truncating fopen and an append, concurrently; the template and every
// other goroutine's files must keep their bytes.
func TestSharedFixtureTemplate(t *testing.T) {
	tmpl := gens.FixtureFileContents()
	want := bytes.Clone(tmpl)

	fs := csim.NewFS()
	f := fs.Create("/fixture", tmpl)
	if !f.Frozen() || &f.Data[0] != &tmpl[0] {
		t.Fatalf("Create made a private copy (frozen %v), want the caller's slice, frozen", f.Frozen())
	}

	// A descriptor opened with create on a missing name gets a frozen
	// empty file, and a write through it privatizes and lands.
	lib := clib.New()
	p := csim.NewProcess(fs)
	defer p.Release()
	fd := p.OpenFile("/new", csim.ReadWrite, true)
	if of := p.FD(fd); of == nil || !of.File.Frozen() {
		t.Fatal("OpenFile(create) did not return a frozen empty file")
	}
	buf := p.Malloc(8)
	p.StoreCString(buf, "hello")
	if n := lib.Call(p, "write", uint64(uint32(fd)), uint64(buf), 5); n != 5 {
		t.Fatalf("write to the created file returned %d, errno %d", int64(n), p.Errno())
	}
	if got := contents(p, "/new"); got != "hello" {
		t.Fatalf("created file reads %q after the write, want %q", got, "hello")
	}

	const workers = 8
	procs := make([]*csim.Process, workers)
	var wg sync.WaitGroup
	for g := range procs {
		fs := csim.NewFS()
		for _, name := range []string{"/putc", "/fwrite", "/trunc", "/append"} {
			fs.Create(name, gens.FixtureFileContents())
		}
		procs[g] = csim.NewProcess(fs)
		wg.Add(1)
		go func(g int, p *csim.Process) {
			defer wg.Done()
			lib := clib.New()
			mark := fmt.Sprintf("<%d>", g)
			s := p.Malloc(len(mark) + 1)
			p.StoreCString(s, mark)
			fp := p.Fopen("/putc", "r+")
			lib.Call(p, "fputc", uint64('0'+g), uint64(fp))
			lib.Call(p, "fclose", uint64(fp))
			fp = p.Fopen("/fwrite", "r+")
			lib.Call(p, "fwrite", uint64(s), 1, uint64(len(mark)), uint64(fp))
			lib.Call(p, "fclose", uint64(fp))
			writeFile(t, lib, p, "/trunc", "w", mark)
			writeFile(t, lib, p, "/append", "a", mark)
		}(g, procs[g])
	}
	wg.Wait()

	if !bytes.Equal(tmpl, want) {
		t.Fatal("the fixture template changed under the writes")
	}
	for g, p := range procs {
		mark := fmt.Sprintf("<%d>", g)
		for _, c := range []struct{ name, want string }{
			{"/putc", string(rune('0'+g)) + string(want[1:])},
			{"/fwrite", mark + string(want[len(mark):])},
			{"/trunc", mark},
			{"/append", string(want) + mark},
		} {
			if got := contents(p, c.name); got != c.want {
				t.Errorf("goroutine %d reads %d bytes from %s starting %q, want %d starting %q",
					g, len(got), c.name, got[:min(len(got), 8)], len(c.want), c.want[:min(len(c.want), 8)])
			}
		}
		p.Release()
	}
}
