package csim

import (
	"path"
	"sort"
	"sync/atomic"
)

// VFile is an in-memory file. Files are shared between processes like
// inodes on a real system.
type VFile struct {
	Data  []byte
	Mode  uint32 // permission bits, 0644-style
	IsDir bool
	Ino   uint64

	// frozen marks a file whose bytes are shared copy-on-write: with
	// the slice given to Create, or across forked filesystems. A frozen
	// file's Data must never be mutated in place; every mutation path
	// privatizes first (unshareFile). The flag is atomic because
	// concurrent template forks freeze the same inode from several
	// goroutines.
	frozen atomic.Bool
}

// Frozen reports whether the file's bytes are currently shared
// copy-on-write (and therefore must not be mutated in place). Tests use
// it to audit the privatize-on-write funnel.
func (f *VFile) Frozen() bool { return f.frozen.Load() }

// unfrozenCopy returns a private, mutable copy of f holding its first
// n bytes.
func (f *VFile) unfrozenCopy(n int) *VFile {
	return &VFile{
		Data:  append([]byte(nil), f.Data[:n]...),
		Mode:  f.Mode,
		IsDir: f.IsDir,
		Ino:   f.Ino,
	}
}

// FS is an in-memory filesystem shared by simulated processes.
type FS struct {
	files   map[string]*VFile
	nextIno uint64

	// shared marks the name table as referenced by another FS: Clone
	// hands its table to the child by reference, and every name-table
	// mutation goes through own, which copies a shared table first.
	// While shared is set every file in the table is frozen. The flag
	// is atomic, and only stored when it changes, because concurrent
	// template forks clone one FS from several goroutines.
	shared atomic.Bool
}

// own makes the name table private ahead of a mutation, copying it if
// a clone still references it.
func (fs *FS) own() {
	if !fs.shared.Load() {
		return
	}
	files := make(map[string]*VFile, len(fs.files)+1)
	for name, f := range fs.files {
		files[name] = f
	}
	fs.files = files
	fs.shared.Store(false)
}

// NewFS returns a filesystem containing only the root directory.
func NewFS() *FS {
	fs := &FS{files: make(map[string]*VFile), nextIno: 2}
	fs.files["/"] = &VFile{IsDir: true, Mode: 0o755, Ino: 1}
	return fs
}

// Create adds (or truncates) a regular file with the given contents.
// The file keeps data itself, frozen: the caller's bytes are shared
// copy-on-write from the start, and the first in-place write through a
// descriptor privatizes a copy (PrivatizeForWrite, TruncateForWrite),
// so data is never mutated and may be shared read-only by every
// process that creates the same fixture.
func (fs *FS) Create(name string, data []byte) *VFile {
	name = path.Clean(name)
	fs.mkParents(name)
	f := &VFile{Data: data, Mode: 0o644, Ino: fs.nextIno}
	f.frozen.Store(true)
	fs.nextIno++
	fs.own()
	fs.files[name] = f
	return f
}

// Mkdir adds a directory (and any missing parents).
func (fs *FS) Mkdir(name string) *VFile {
	name = path.Clean(name)
	if f, ok := fs.files[name]; ok && f.IsDir {
		return f
	}
	fs.mkParents(name)
	f := &VFile{IsDir: true, Mode: 0o755, Ino: fs.nextIno}
	fs.nextIno++
	fs.own()
	fs.files[name] = f
	return f
}

func (fs *FS) mkParents(name string) {
	dir := path.Dir(name)
	if dir == name || dir == "." {
		return
	}
	if f, ok := fs.files[dir]; ok && f.IsDir {
		return
	}
	fs.Mkdir(dir)
}

// Clone forks the filesystem copy-on-write at two levels. The name
// table is shared by reference and copied by whichever side first
// creates, removes or replaces a name (own). The files themselves are
// shared by pointer and frozen; a frozen file is privatized the moment
// either side needs to mutate it — at its first in-place write, or at
// Fork time for descriptors the child inherits open for writing — so
// a test that truncates or unlinks a fixture still cannot pollute
// sibling tests, while the historical eager clone (which deep-copied
// every fixture byte on every fork, the dominant fork cost) is gone.
//
// Freezing happens once per table: the first Clone after a table
// change freezes every file and marks the table shared, and later
// Clones of the same table find it shared and write nothing. Clone
// only reads fs besides those atomic bits, so one filesystem may be
// cloned concurrently from several goroutines.
func (fs *FS) Clone() *FS {
	if !fs.shared.Load() {
		for _, f := range fs.files {
			if !f.frozen.Load() {
				f.frozen.Store(true)
			}
		}
		// Published after the loop: a concurrent Clone that sees the
		// table shared also sees every file frozen.
		fs.shared.Store(true)
	}
	c := &FS{files: fs.files, nextIno: fs.nextIno}
	c.shared.Store(true)
	return c
}

// Lookup finds a file by name.
func (fs *FS) Lookup(name string) (*VFile, bool) {
	f, ok := fs.files[path.Clean(name)]
	return f, ok
}

// Remove deletes a file by name.
func (fs *FS) Remove(name string) bool {
	name = path.Clean(name)
	if _, ok := fs.files[name]; !ok {
		return false
	}
	fs.own()
	delete(fs.files, name)
	return true
}

// List returns the sorted child names of a directory.
func (fs *FS) List(dir string) []string {
	dir = path.Clean(dir)
	var out []string
	for name := range fs.files {
		if name == dir {
			continue
		}
		if path.Dir(name) == dir {
			out = append(out, path.Base(name))
		}
	}
	sort.Strings(out)
	return out
}

// Open-file access modes.
type AccessMode uint8

// Access modes for open descriptors.
const (
	ReadOnly AccessMode = iota + 1
	WriteOnly
	ReadWrite
)

// Readable reports whether the mode permits reading.
func (m AccessMode) Readable() bool { return m == ReadOnly || m == ReadWrite }

// Writable reports whether the mode permits writing.
func (m AccessMode) Writable() bool { return m == WriteOnly || m == ReadWrite }

// OpenFD is an open-file description, shared across forked descriptor
// tables like a real kernel's file table entry.
type OpenFD struct {
	File   *VFile
	Name   string
	Mode   AccessMode
	Pos    int
	Append bool

	// Directory streams.
	IsDir   bool
	Entries []string
	DirPos  int
}

// unshareFile replaces a frozen (shared) file with a private
// mutable copy of its first keep bytes throughout this process: the
// filesystem name table and every open descriptor referencing the
// shared inode are re-pointed, so all of this process's views of the
// file stay coherent while sibling forks keep the pre-fork bytes. This
// is the copy-on-write privatize funnel every file mutation path goes
// through.
func (p *Process) unshareFile(f *VFile, keep int) *VFile {
	if f == nil || !f.frozen.Load() {
		return f
	}
	nf := f.unfrozenCopy(keep)
	for name, g := range p.FS.files {
		if g == f {
			// own may swap in a private copy of the table; the
			// range keeps walking the old one, which still holds
			// the same names.
			p.FS.own()
			p.FS.files[name] = nf
		}
	}
	for _, of := range p.fds {
		if of.File == f {
			of.File = nf
		}
	}
	return nf
}

// PrivatizeForWrite prepares an open description for an in-place Data
// mutation: a file still shared (frozen) is replaced by a private
// copy throughout the process first. The stdio/unistd writers call it
// immediately before every mutation, which is what lets Create and
// Fork hand out writable descriptors over still-shared file bytes — an
// experiment that opens the fixture FILE and never writes it never
// pays for a copy.
func (p *Process) PrivatizeForWrite(of *OpenFD) {
	if of == nil || of.File == nil || !of.File.frozen.Load() {
		return
	}
	of.File = p.unshareFile(of.File, len(of.File.Data))
}

// TruncateForWrite empties the file behind an open description, as a
// truncating open (fopen "w", creat) does. A file still shared is
// replaced by an empty private copy throughout the process, so the
// bytes the truncation discards are never copied.
func (p *Process) TruncateForWrite(of *OpenFD) {
	if of.File.frozen.Load() {
		of.File = p.unshareFile(of.File, 0)
		return
	}
	of.File.Data = of.File.Data[:0]
}

// OpenFile opens name with the given mode, allocating a descriptor.
// It returns -1 and sets errno on failure. A writable open of a
// fork-shared file does NOT copy it: privatization is deferred to the
// first in-place mutation (PrivatizeForWrite), so the common campaign
// shape — fopen a fixture "r+" and only ever read it — shares the
// fixture bytes across every fork.
func (p *Process) OpenFile(name string, mode AccessMode, create bool) int {
	f, ok := p.FS.Lookup(name)
	if !ok {
		if !create {
			p.SetErrno(ENOENT)
			return -1
		}
		f = p.FS.Create(name, nil)
	}
	if f.IsDir && mode.Writable() {
		p.SetErrno(EISDIR)
		return -1
	}
	fd := p.nextFD
	p.nextFD++
	p.setFD(fd, &OpenFD{File: f, Name: name, Mode: mode})
	return fd
}

// OpenDir opens a directory stream descriptor.
func (p *Process) OpenDir(name string) int {
	f, ok := p.FS.Lookup(name)
	if !ok {
		p.SetErrno(ENOENT)
		return -1
	}
	if !f.IsDir {
		p.SetErrno(ENOTDIR)
		return -1
	}
	fd := p.nextFD
	p.nextFD++
	p.setFD(fd, &OpenFD{File: f, Name: name, Mode: ReadOnly, IsDir: true, Entries: p.FS.List(name)})
	return fd
}

// FD resolves a descriptor, returning nil if it is not open.
func (p *Process) FD(fd int) *OpenFD {
	if fd < 0 {
		return nil
	}
	return p.fds[fd]
}

// CloseFD closes a descriptor. Returns false (EBADF) if not open.
func (p *Process) CloseFD(fd int) bool {
	if _, ok := p.fds[fd]; !ok {
		p.SetErrno(EBADF)
		return false
	}
	delete(p.fds, fd)
	return true
}

// OpenFDCount returns the number of open descriptors (tests use this to
// detect descriptor leaks in wrappers).
func (p *Process) OpenFDCount() int { return len(p.fds) }

// DupFD installs an additional descriptor sharing the open-file
// description of and returns its number.
func (p *Process) DupFD(of *OpenFD) int {
	fd := p.nextFD
	p.nextFD++
	p.setFD(fd, of)
	return fd
}

// setFD installs a descriptor. The table is created on first use, so a
// process (or fork) that never opens anything carries none.
func (p *Process) setFD(fd int, of *OpenFD) {
	if p.fds == nil {
		p.fds = make(map[int]*OpenFD)
	}
	p.fds[fd] = of
}
