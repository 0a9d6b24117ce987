package csim_test

import (
	"testing"

	"healers/internal/clib"
	"healers/internal/csim"
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
