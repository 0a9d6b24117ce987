package csim

import (
	"bytes"
	"path"
	"sort"
	"strings"
	"sync/atomic"

	"healers/internal/cmem"
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

// privateCopy returns a private, mutable copy of f holding its first
// n bytes, in a file another fork released when one is parked. It
// draws one that kept its buffer first, so a copy lands in bytes that
// are already there and a copy of nothing (a truncation) keeps the
// buffer at length 0 for the writes that follow; no byte of the old
// contents is copied either way. It falls back on a bare file before
// allocating, so no more files are parked than forks ever held at once.
func (f *VFile) privateCopy(n int) *VFile {
	nf := spareFiles.Get()
	if nf == nil {
		nf = bareFiles.Get()
	}
	if nf == nil {
		nf = new(VFile)
	}
	nf.Data = append(nf.Data[:0], f.Data[:n]...)
	nf.Mode, nf.IsDir, nf.Ino = f.Mode, f.IsDir, f.Ino
	return nf
}

// Parked private files. A forked process alone owns every file it
// privatized while that file stays unfrozen, so its Release parks them
// here for the next first write or truncation instead of dropping them:
// spareFiles keep a byte buffer worth filling (a first-write copy of
// the fixture draws one and allocates nothing), bareFiles keep none.
var spareFiles, bareFiles cmem.FreeList[VFile]

// A parked file keeps its buffer when the buffer holds at least
// minSpareBytes (smaller copies cost little to allocate, and a small
// buffer drawn for a large copy would be reallocated anyway) and at
// most maxSpareBytes (an odd test's huge file is not kept alive).
const (
	minSpareBytes = 4 << 10
	maxSpareBytes = 64 << 10
)

// park puts an exclusively owned, unfrozen file on a free list.
func park(f *VFile) {
	data := f.Data[:0]
	*f = VFile{}
	if c := cap(data); c >= minSpareBytes && c <= maxSpareBytes {
		f.Data = data
		spareFiles.Put(f)
		return
	}
	bareFiles.Put(f)
}

// replacement records that every name resolving to old now resolves to
// new, without a write to a name table another fork may share.
type replacement struct{ old, new *VFile }

// FS is an in-memory filesystem shared by simulated processes.
type FS struct {
	files   map[string]*VFile
	nextIno uint64

	// shared marks the name table as referenced by another FS: Clone
	// hands its table to the child by reference, and every insertion
	// or removal of a name goes through own, which copies a shared
	// table first. While shared is set every file in the table is
	// frozen. The flag is atomic, and only stored when it changes,
	// because concurrent template forks clone one FS from several
	// goroutines.
	shared atomic.Bool

	// repl replaces files without touching the name table: a write
	// that privatizes a frozen file, or a Create over an existing name,
	// records the pair here and Lookup resolves through it. A table
	// file is never a replacement's new, so one step resolves. It is
	// the filesystem's own (Clone copies it), and every new in it is
	// frozen by the next Clone like the table's files.
	repl []replacement

	// owner is the forked process this FS was cloned for (nil for
	// NewFS and Clone): the process's Release parks the FS and the
	// unfrozen files it privatized, which no one else can reach.
	owner *Process
}

// forkFSs parks the filesystems of released forked processes.
var forkFSs cmem.FreeList[FS]

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
//
// On an existing name the file keeps its inode, as an O_TRUNC open
// does, and re-creating an unchanged file is a no-op: a frozen regular
// file with mode 0644 and the same bytes is returned as it is, so a
// probe that re-creates a fixture the campaign template already holds
// neither copies the name table nor allocates.
func (fs *FS) Create(name string, data []byte) *VFile {
	name = path.Clean(name)
	if old, ok := fs.files[name]; ok {
		cur := fs.resolve(old)
		if cur.frozen.Load() && !cur.IsDir && cur.Mode == 0o644 && bytes.Equal(cur.Data, data) {
			return cur
		}
		f := &VFile{Data: data, Mode: 0o644, Ino: cur.Ino}
		f.frozen.Store(true)
		fs.replace(cur, f)
		return f
	}
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
	if f, ok := fs.lookup(name); ok && f.IsDir {
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
	if f, ok := fs.lookup(dir); ok && f.IsDir {
		return
	}
	fs.Mkdir(dir)
}

// Clone forks the filesystem copy-on-write at two levels. The name
// table is shared by reference and copied by whichever side first
// creates or removes a name (own). The files themselves are shared by
// pointer and frozen; a frozen file is privatized the moment either
// side needs to mutate it — at its first in-place write, or at Fork
// time for descriptors the child inherits open for writing — and the
// private copy is recorded in the writer's replacements, not its name
// table, so a test that truncates or unlinks a fixture still cannot
// pollute sibling tests, while the historical eager clone (which
// deep-copied every fixture byte on every fork, the dominant fork
// cost) is gone.
//
// Freezing happens once per table: the first Clone after a table
// change freezes every file and marks the table shared, and later
// Clones of the same table find it shared and write nothing to it
// (replacement files are frozen on every Clone; there are few). Clone
// only reads fs besides those atomic bits, so one filesystem may be
// cloned concurrently from several goroutines.
func (fs *FS) Clone() *FS {
	c := new(FS)
	fs.cloneInto(c)
	return c
}

// cloneInto is Clone into c, an empty FS (new or parked).
func (fs *FS) cloneInto(c *FS) {
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
	for _, r := range fs.repl {
		if !r.new.frozen.Load() {
			r.new.frozen.Store(true)
		}
	}
	c.files, c.nextIno = fs.files, fs.nextIno
	c.shared.Store(true)
	c.repl = append(c.repl[:0], fs.repl...)
}

// release parks a released forked process's filesystem: every
// replacement file no Clone froze is the process's alone, and so is
// the FS itself. The emptied replacement list stays with the parked FS
// for its next fork, as cmem's parked Memory keeps its emptied map.
func (fs *FS) release() {
	for _, r := range fs.repl {
		if !r.new.frozen.Load() {
			park(r.new)
		}
	}
	clear(fs.repl)
	fs.repl = fs.repl[:0]
	fs.files, fs.nextIno, fs.owner = nil, 0, nil
	fs.shared.Store(false)
	forkFSs.Put(fs)
}

// resolve returns the file a name table entry f currently stands for.
func (fs *FS) resolve(f *VFile) *VFile {
	for _, r := range fs.repl {
		if r.old == f {
			return r.new
		}
	}
	return f
}

// replace makes every name that resolves to cur resolve to nf.
func (fs *FS) replace(cur, nf *VFile) {
	for i := range fs.repl {
		if fs.repl[i].new == cur {
			fs.repl[i].new = nf
			return
		}
	}
	fs.repl = append(fs.repl, replacement{old: cur, new: nf})
}

// lookup is Lookup of a clean name.
func (fs *FS) lookup(name string) (*VFile, bool) {
	f, ok := fs.files[name]
	if !ok {
		return nil, false
	}
	return fs.resolve(f), true
}

// Lookup finds a file by name.
func (fs *FS) Lookup(name string) (*VFile, bool) { return fs.lookup(path.Clean(name)) }

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
// filesystem resolves every name of the shared inode to the copy (a
// replacement, so the name table is not copied) and every open
// descriptor referencing it is re-pointed, so all of this process's
// views of the file stay coherent while sibling forks keep the
// pre-fork bytes. This is the copy-on-write privatize funnel every
// file mutation path goes through.
func (p *Process) unshareFile(f *VFile, keep int) *VFile {
	if f == nil || !f.frozen.Load() {
		return f
	}
	nf := f.privateCopy(keep)
	p.FS.replace(f, nf)
	for _, of := range p.fds {
		if of != nil && of.File == f {
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
		f = p.FS.Create(strings.Clone(name), nil)
	}
	if f.IsDir && mode.Writable() {
		p.SetErrno(EISDIR)
		return -1
	}
	fd := p.nextFD
	p.nextFD++
	p.setFD(fd, p.newOpenFD(OpenFD{File: f, Mode: mode}))
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
	p.setFD(fd, p.newOpenFD(OpenFD{File: f, Mode: ReadOnly, IsDir: true, Entries: p.FS.List(name)}))
	return fd
}

// FD resolves a descriptor, returning nil if it is not open.
func (p *Process) FD(fd int) *OpenFD {
	if fd < 0 || fd >= len(p.fds) {
		return nil
	}
	return p.fds[fd]
}

// CloseFD closes a descriptor. Returns false (EBADF) if not open.
func (p *Process) CloseFD(fd int) bool {
	if p.FD(fd) == nil {
		p.SetErrno(EBADF)
		return false
	}
	p.fds[fd] = nil
	p.openFDs--
	return true
}

// OpenFDCount returns the number of open descriptors (tests use this to
// detect descriptor leaks in wrappers).
func (p *Process) OpenFDCount() int { return p.openFDs }

// DupFD installs an additional descriptor sharing the open-file
// description of and returns its number.
func (p *Process) DupFD(of *OpenFD) int {
	fd := p.nextFD
	p.nextFD++
	p.setFD(fd, of)
	return fd
}

// newOpenFD returns a new open-file description holding of. The first
// fdStoreLen a process makes live in its own store, so a process that
// opens a few files allocates no description; later ones are
// allocated. A description outlives its descriptors no longer than the
// process does.
func (p *Process) newOpenFD(of OpenFD) *OpenFD {
	var d *OpenFD
	if p.fdStored < len(p.fdStore) {
		d = &p.fdStore[p.fdStored]
		p.fdStored++
	} else {
		d = new(OpenFD)
	}
	*d = of
	return d
}

// setFD installs a descriptor at fd, a number never handed out before.
// The table starts in the process's inline slots, so a process (or
// fork) that opens a few descriptors allocates no table.
func (p *Process) setFD(fd int, of *OpenFD) {
	if p.fds == nil {
		p.fds = p.fdSlots[:0]
	}
	for len(p.fds) <= fd {
		p.fds = append(p.fds, nil)
	}
	p.fds[fd] = of
	p.openFDs++
}
