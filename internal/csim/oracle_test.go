package csim

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// The file copy-on-write oracle: a seeded random tree of processes
// forks, creates, opens, writes, truncates, appends, unlinks, closes
// and releases, and after every step each live process's names and
// descriptors are checked against a flat model in which every process
// owns a private copy of everything. Released processes feed the
// parked-file lists, so the oracle is also the audit that a recycled
// buffer or VFile never shows through to a live process.

// mfile is a model file: its bytes, and whether the real file must be
// frozen (shared copy-on-write with another fork or with the caller of
// Create).
type mfile struct {
	data   string
	frozen bool
}

// mfd is a model open-file description; dup'd descriptors share one.
type mfd struct {
	f      *mfile
	pos    int
	append bool
}

// mproc is one process's flat model.
type mproc struct {
	names  map[string]*mfile
	fds    map[int]*mfd
	nextFD int
}

// fork deep-copies the model, keeping the sharing inside the process
// (a name and a descriptor on one file, dup'd descriptors), and
// freezes every file on both sides, as Fork does.
func (m *mproc) fork() *mproc {
	files := map[*mfile]*mfile{}
	cp := func(f *mfile) *mfile {
		f.frozen = true
		if c, ok := files[f]; ok {
			return c
		}
		c := &mfile{data: f.data, frozen: true}
		files[f] = c
		return c
	}
	c := &mproc{names: map[string]*mfile{}, fds: map[int]*mfd{}, nextFD: m.nextFD}
	for name, f := range m.names {
		c.names[name] = cp(f)
	}
	descs := map[*mfd]*mfd{}
	for fd, d := range m.fds {
		if _, ok := descs[d]; !ok {
			descs[d] = &mfd{f: cp(d.f), pos: d.pos, append: d.append}
		}
		c.fds[fd] = descs[d]
	}
	return c
}

// oracleNames are the only names the oracle uses.
var oracleNames = []string{"/f0", "/f1", "/f2", "/d/f3"}

// oracleProc is a live process of the oracle with its model.
type oracleProc struct {
	p *Process
	m *mproc
}

// writeFD writes b at the descriptor's position the way the stdio and
// unistd writers do (clib's fdWrite): privatize, move to the end when
// appending, grow with zeros past the end, copy, advance.
func writeFD(p *Process, of *OpenFD, b []byte) {
	p.PrivatizeForWrite(of)
	if of.Append {
		of.Pos = len(of.File.Data)
	}
	end := of.Pos + len(b)
	if grow := end - len(of.File.Data); grow > 0 {
		of.File.Data = append(of.File.Data, make([]byte, grow)...)
	}
	copy(of.File.Data[of.Pos:end], b)
	of.Pos = end
}

// modelWrite is writeFD on the model.
func modelWrite(d *mfd, b string) {
	f := d.f
	if d.append {
		d.pos = len(f.data)
	}
	if d.pos > len(f.data) {
		f.data += string(make([]byte, d.pos-len(f.data)))
	}
	end := d.pos + len(b)
	tail := ""
	if end < len(f.data) {
		tail = f.data[end:]
	}
	f.data = f.data[:d.pos] + b + tail
	f.frozen = false
	d.pos = end
}

// runFileOracle runs steps random operations over a tree rooted at a
// fork of tpl, whose files are given by names (contents) and frozen.
// tag makes the written bytes unique to this run, so a file another
// run recycled cannot pass for one of this run's by coincidence.
func runFileOracle(tpl *Process, names map[string][]byte, seed int64, steps int, tag string) error {
	rng := rand.New(rand.NewSource(seed))
	root := &mproc{names: map[string]*mfile{}, fds: map[int]*mfd{}, nextFD: tpl.nextFD}
	for name, data := range names {
		root.names[name] = &mfile{data: string(data), frozen: true}
	}
	live := []*oracleProc{{p: tpl.Fork(), m: root}}
	defer func() {
		for _, op := range live {
			op.p.Release()
		}
	}()
	// Contents Create may be given: the template's (an unchanged
	// re-create is a no-op while the file is frozen), none (what a
	// truncation leaves) and fresh bytes.
	contents := [][]byte{nil}
	for _, name := range oracleNames {
		if data, ok := names[name]; ok {
			contents = append(contents, data)
		}
	}
	fixed := len(contents)
	contents = append(contents, nil, nil, nil)
	pick := func(n int) int { return rng.Intn(n) }
	openFD := func(m *mproc) (int, bool) {
		var open []int
		for fd := range m.fds {
			open = append(open, fd)
		}
		if len(open) == 0 {
			return 0, false
		}
		slices.Sort(open)
		return open[pick(len(open))], true
	}
	for step := 0; step < steps; step++ {
		i := pick(len(live))
		op := live[i]
		p, m := op.p, op.m
		name := oracleNames[pick(len(oracleNames))]
		what := ""
		switch k := pick(20); {
		case k < 3 && len(live) < 8:
			what = "fork"
			live = append(live, &oracleProc{p: p.Fork(), m: m.fork()})
		case k < 5 && len(live) > 1:
			// Any process may go, the root included: its forks
			// outlive it, as a released child's grandchildren do.
			what = "release"
			p.Release()
			live = slices.Delete(live, i, i+1)
		case k < 7:
			what = "create " + name
			data := contents[pick(len(contents))]
			if pick(3) == 0 {
				// Fresh bytes take the place of older fresh ones,
				// so every content stays likely to come up again.
				data = []byte(fmt.Sprintf("%s created at %d", tag, step))
				contents[fixed+pick(len(contents)-fixed)] = data
			}
			p.FS.Create(name, data)
			if cur, ok := m.names[name]; ok && cur.frozen && cur.data == string(data) {
				break
			}
			m.names[name] = &mfile{data: string(data), frozen: true}
		case k < 10:
			modes := []AccessMode{ReadOnly, WriteOnly, ReadWrite}
			mode, create := modes[pick(3)], pick(2) == 0
			what = fmt.Sprintf("open %s mode %d create %v", name, mode, create)
			fd := p.OpenFile(name, mode, create)
			f, ok := m.names[name]
			if !ok && create {
				f = &mfile{frozen: true}
				m.names[name] = f
				ok = true
			}
			if !ok {
				if fd != -1 {
					return fmt.Errorf("step %d: %s: opened a missing file as %d", step, what, fd)
				}
				break
			}
			if fd != m.nextFD {
				return fmt.Errorf("step %d: %s: got descriptor %d, want %d", step, what, fd, m.nextFD)
			}
			m.nextFD++
			d := &mfd{f: f}
			switch pick(3) {
			case 0: // a truncating open (fopen "w", creat)
				what += " truncate"
				p.TruncateForWrite(p.FD(fd))
				f.data, f.frozen = "", false
			case 1: // an appending open (fopen "a")
				what += " append"
				of := p.FD(fd)
				of.Append, of.Pos = true, len(of.File.Data)
				d.append, d.pos = true, len(f.data)
			}
			m.fds[fd] = d
		case k < 14:
			fd, ok := openFD(m)
			if !ok {
				break
			}
			b := fmt.Sprintf("[%s %d]", tag, step)
			b = b[:1+pick(len(b))]
			if pick(4) == 0 {
				// Bytes Create may be given again: an unchanged
				// re-create of a written file is not a no-op.
				b = string(contents[pick(len(contents))])
			}
			what = fmt.Sprintf("write %q to %d", b, fd)
			d := m.fds[fd]
			if pick(4) == 0 {
				d.pos = pick(len(d.f.data) + 3)
				p.FD(fd).Pos = d.pos
			}
			writeFD(p, p.FD(fd), []byte(b))
			modelWrite(d, b)
		case k < 15:
			fd, ok := openFD(m)
			if !ok {
				break
			}
			what = fmt.Sprintf("dup %d", fd)
			if got := p.DupFD(p.FD(fd)); got != m.nextFD {
				return fmt.Errorf("step %d: %s: got descriptor %d, want %d", step, what, got, m.nextFD)
			}
			m.fds[m.nextFD] = m.fds[fd]
			m.nextFD++
		case k < 17:
			fd, ok := openFD(m)
			if !ok {
				break
			}
			what = fmt.Sprintf("close %d", fd)
			if !p.CloseFD(fd) {
				return fmt.Errorf("step %d: %s failed", step, what)
			}
			delete(m.fds, fd)
		default:
			what = "unlink " + name
			_, ok := m.names[name]
			if p.FS.Remove(name) != ok {
				return fmt.Errorf("step %d: %s: Remove returned %v, want %v", step, what, !ok, ok)
			}
			delete(m.names, name)
		}
		if err := checkOracle(live); err != nil {
			return fmt.Errorf("step %d (%s): %w", step, what, err)
		}
	}
	return nil
}

// checkOracle compares every live process with its model: the bytes
// under every name and behind every descriptor, descriptor positions,
// dup aliasing, which references share a file, the frozen bits, and
// that no unfrozen file is reachable from two processes.
func checkOracle(live []*oracleProc) error {
	owner := map[*VFile]int{}
	for i, op := range live {
		p, m := op.p, op.m
		real := map[*mfile]*VFile{}
		same := func(what string, mf *mfile, f *VFile) error {
			if string(f.Data) != mf.data || f.Frozen() != mf.frozen {
				return fmt.Errorf("process %d %s holds %q (frozen %v), want %q (frozen %v)",
					i, what, f.Data, f.Frozen(), mf.data, mf.frozen)
			}
			if g, ok := real[mf]; ok && g != f {
				return fmt.Errorf("process %d %s is a different file from another view of it", i, what)
			}
			real[mf] = f
			if !f.Frozen() {
				if j, ok := owner[f]; ok && j != i {
					return fmt.Errorf("an unfrozen file is reachable from processes %d and %d", j, i)
				}
				owner[f] = i
			}
			return nil
		}
		for _, name := range oracleNames {
			f, ok := p.FS.Lookup(name)
			mf, want := m.names[name]
			if ok != want {
				return fmt.Errorf("process %d finds %s: %v, want %v", i, name, ok, want)
			}
			if ok {
				if err := same(name, mf, f); err != nil {
					return err
				}
			}
		}
		descs := map[*mfd]*OpenFD{}
		for fd := 0; fd < m.nextFD+2; fd++ {
			of, d := p.FD(fd), m.fds[fd]
			if (of != nil) != (d != nil) {
				return fmt.Errorf("process %d descriptor %d open %v, want %v", i, fd, of != nil, d != nil)
			}
			if d == nil {
				continue
			}
			if of.Pos != d.pos || of.Append != d.append {
				return fmt.Errorf("process %d descriptor %d at %d (append %v), want %d (%v)", i, fd, of.Pos, of.Append, d.pos, d.append)
			}
			if prev, ok := descs[d]; ok && prev != of {
				return fmt.Errorf("process %d descriptor %d lost its dup aliasing", i, fd)
			}
			descs[d] = of
			if err := same(fmt.Sprintf("descriptor %d", fd), d.f, of.File); err != nil {
				return err
			}
		}
		if got := p.OpenFDCount(); got != len(m.fds) {
			return fmt.Errorf("process %d counts %d open descriptors, want %d", i, got, len(m.fds))
		}
	}
	return nil
}

// oracleTemplate returns a template process whose files hold the given
// contents, frozen, and the contents by name.
func oracleTemplate() (*Process, map[string][]byte) {
	names := map[string][]byte{
		"/f0":   bytes.Repeat([]byte("0123456789"), 820), // a fixture-sized file
		"/f1":   []byte("one"),
		"/d/f3": []byte("three"),
	}
	fs := NewFS()
	for name, data := range names {
		fs.Create(name, data)
	}
	return NewProcess(fs), names
}

// TestFileCOWOracle runs the oracle over several seeds in sequence,
// then from several goroutines at once over one shared template, so
// under -race files parked by one goroutine's releases are drawn by
// another's writes. The template's files and the slices given to
// Create must come out untouched.
func TestFileCOWOracle(t *testing.T) {
	tpl, names := oracleTemplate()
	defer tpl.Release()
	want := map[string]string{}
	for name, data := range names {
		want[name] = string(data)
	}
	for seed := int64(1); seed <= 4; seed++ {
		if err := runFileOracle(tpl, names, seed, 1500, fmt.Sprintf("s%d", seed)); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if err := runFileOracle(tpl, names, int64(100+g), 1500, fmt.Sprintf("g%d", g)); err != nil {
				t.Errorf("goroutine %d: %v", g, err)
			}
		}(g)
	}
	wg.Wait()
	for name, w := range want {
		if f, ok := tpl.FS.Lookup(name); !ok || string(f.Data) != w || string(names[name]) != w || !f.Frozen() {
			t.Errorf("the template's %s changed under the oracle", name)
		}
	}
}

// TestRecycledFilesStayPrivate pins the two cases a parked file must
// never come from: a file a released child privatized that its
// still-live fork (the grandchild) shares, and a file written by a
// process made by NewProcess over a filesystem another process shares.
// Many forks then privatize and release; none may draw either file.
func TestRecycledFilesStayPrivate(t *testing.T) {
	tpl, _ := oracleTemplate()
	defer tpl.Release()
	write := func(p *Process, name, s string) *VFile {
		fd := p.OpenFile(name, ReadWrite, false)
		of := p.FD(fd)
		writeFD(p, of, []byte(s))
		return of.File
	}

	child := tpl.Fork()
	kept := write(child, "/f0", "child")
	grandchild := child.Fork()
	defer grandchild.Release()
	child.Release()

	shared := NewFS()
	shared.Create("/s", []byte("shared"))
	a, b := NewProcess(shared), NewProcess(shared)
	defer b.Release()
	written := write(a, "/s", "A")
	a.Release()

	for i := 0; i < 200; i++ {
		c := tpl.Fork()
		if f := write(c, "/f0", "x"); f == kept || f == written {
			t.Fatalf("fork %d privatized into a file a live process still reads", i)
		}
		c.Release()
	}
	if f, _ := grandchild.FS.Lookup("/f0"); f != kept || string(f.Data[:5]) != "child" || !f.Frozen() {
		t.Errorf("the grandchild reads %q from /f0, want the released child's write, frozen", f.Data[:5])
	}
	if f, _ := b.FS.Lookup("/s"); f != written || string(f.Data) != "Ahared" {
		t.Errorf("the process sharing the filesystem reads %q, want %q", f.Data, "Ahared")
	}
}
