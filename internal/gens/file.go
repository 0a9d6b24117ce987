package gens

import (
	"healers/internal/cmem"
	"healers/internal/csim"
	"healers/internal/typesys"
)

// FileGen is the specific test case generator for FILE* arguments the
// paper describes in §4.2. Beyond genuinely open streams in the three
// access modes, it produces the cases that separate robust from safe:
// accessible-but-garbage FILE memory, a *corrupted* FILE (valid
// descriptor, smashed buffer pointer — the case that defeats fileno+
// fstat checking), and a stale FILE whose descriptor was closed.
type FileGen struct {
	// FixturePath is the file opened for the genuine stream cases; the
	// generator (re)creates it in the child before opening.
	FixturePath string

	fixedSeq
}

var _ Generator = (*FileGen)(nil)

// DefaultFixturePath is where generators keep their scratch files.
const DefaultFixturePath = "/healers-fixtures/file.txt"

// NewFileGen returns a FILE* generator over the given fixture path.
func NewFileGen(path string) *FileGen {
	if path == "" {
		path = DefaultFixturePath
	}
	g := &FileGen{FixturePath: path}
	g.build = g.probes
	return g
}

// Name implements Generator.
func (g *FileGen) Name() string { return "file" }

// openProbe opens the fixture in the given mode.
func (g *FileGen) openProbe(fund, mode string) *Probe {
	return &Probe{
		Fund: fund,
		Build: func(p *csim.Process) uint64 {
			p.FS.Create(g.FixturePath, FixtureFileContents())
			return uint64(p.Fopen(g.FixturePath, mode))
		},
	}
}

// garbageProbe materializes SizeofFILE bytes of accessible zeroed
// memory that is not a FILE.
func garbageProbe() *Probe {
	pr := &Probe{Fund: typesys.NameRWFixed(csim.SizeofFILE), Size: csim.SizeofFILE}
	pr.Build = func(p *csim.Process) uint64 {
		pr.Region = mountFlush(p, csim.SizeofFILE, cmem.ProtRW)
		return uint64(pr.Region.Base)
	}
	return pr
}

// CorruptFILE copies the open FILE at real to dst and smashes the
// copy's buffer pointer while keeping its valid descriptor: the
// struct-integrity failure class that defeats fileno+fstat checking.
// It returns dst, or 0 if any access faults. The caller opens the
// stream and maps dst, so each suite keeps its own placement and its
// own route to fopen.
func CorruptFILE(p *csim.Process, real, dst cmem.Addr) uint64 {
	if !copyStruct(p, real, dst, csim.SizeofFILE) ||
		p.Mem.WriteU64(dst+csim.FILEOffBufPtr, 0xdead0000) != nil ||
		p.Mem.WriteU64(dst+csim.FILEOffBufPos, 4) != nil {
		return 0
	}
	return uint64(dst)
}

// CorruptDIR is CorruptFILE for a DIR: the copy keeps the descriptor
// and points its entry buffer at unmapped memory.
func CorruptDIR(p *csim.Process, real, dst cmem.Addr) uint64 {
	if !copyStruct(p, real, dst, csim.SizeofDIR) ||
		p.Mem.WriteU64(dst+csim.DIROffBuf, 0xdead0000) != nil {
		return 0
	}
	return uint64(dst)
}

// copyStruct copies a FILE or DIR of size bytes from src to dst
// through a buffer on the stack.
func copyStruct(p *csim.Process, src, dst cmem.Addr, size int) bool {
	var buf [max(csim.SizeofFILE, csim.SizeofDIR)]byte
	data := buf[:size]
	return p.Mem.ReadInto(src, data) == nil && p.Mem.Write(dst, data) == nil
}

func (g *FileGen) corruptedProbe() *Probe {
	pr := &Probe{Fund: typesys.NameRWFixed(csim.SizeofFILE), Size: csim.SizeofFILE}
	pr.Build = func(p *csim.Process) uint64 {
		p.FS.Create(g.FixturePath, FixtureFileContents())
		real := p.Fopen(g.FixturePath, "r+")
		if real == 0 {
			return 0
		}
		pr.Region = mountFlush(p, csim.SizeofFILE, cmem.ProtRW)
		return CorruptFILE(p, real, pr.Region.Base)
	}
	return pr
}

// staleProbe opens a FILE and closes its descriptor behind its back.
func (g *FileGen) staleProbe() *Probe {
	return &Probe{
		Fund: typesys.NameRWFixed(csim.SizeofFILE),
		Build: func(p *csim.Process) uint64 {
			p.FS.Create(g.FixturePath, FixtureFileContents())
			fp := p.Fopen(g.FixturePath, "r")
			if fp == 0 {
				return 0
			}
			p.CloseFD(p.FILEFd(fp))
			return uint64(fp)
		},
	}
}

func (g *FileGen) probes() []*Probe {
	return append([]*Probe{
		g.openProbe(typesys.TypeROnlyFile, "r"),
		g.openProbe(typesys.TypeRWFile, "r+"),
		g.openProbe(typesys.TypeWOnlyFile, "w"),
		garbageProbe(),
		g.corruptedProbe(),
		g.staleProbe(),
		nullProbe(),
	}, invalidProbes()...)
}

// Default implements Generator: an open read-write stream.
func (g *FileGen) Default() *Probe { return g.openProbe(typesys.TypeRWFile, "r+") }

// Hierarchy implements Generator: the Figure 4 hierarchy over the
// Figure 3 array types at the FILE size.
func (g *FileGen) Hierarchy() *typesys.Hierarchy {
	h := typesys.NewHierarchy()
	typesys.AddArrayTypes(h, []int{csim.SizeofFILE})
	typesys.AddFileTypes(h, csim.SizeofFILE)
	if err := h.Finalize(); err != nil {
		panic(err)
	}
	return h
}

// DirGen generates DIR* cases analogously to FileGen. POSIX offers no
// validity check for DIR*, which is why these robust types cannot be
// checked automatically and the paper needed manual state tracking.
type DirGen struct {
	// FixtureDir is the directory opened for the genuine cases.
	FixtureDir string

	fixedSeq
}

var _ Generator = (*DirGen)(nil)

// DefaultFixtureDir is the directory DirGen materializes and opens.
const DefaultFixtureDir = "/healers-fixtures"

// The contents of the two files DirGen puts in its fixture directory.
// Like FixtureFileContents they are read-only: csim.FS.Create keeps
// them copy-on-write, so a probe build allocates no contents, and
// re-creating them over a template that holds the same bytes is a
// no-op.
var dirEntryA, dirEntryB = []byte("x"), []byte("y")

// NewDirGen returns a DIR* generator over the given fixture directory.
func NewDirGen(dir string) *DirGen {
	if dir == "" {
		dir = DefaultFixtureDir
	}
	g := &DirGen{FixtureDir: dir}
	g.build = g.probes
	return g
}

// Name implements Generator.
func (g *DirGen) Name() string { return "dir" }

func (g *DirGen) openProbe() *Probe {
	return &Probe{
		Fund: typesys.TypeOpenDir,
		Build: func(p *csim.Process) uint64 {
			p.FS.Create(g.FixtureDir+"/a.txt", dirEntryA)
			p.FS.Create(g.FixtureDir+"/b.txt", dirEntryB)
			fd := p.OpenDir(g.FixtureDir)
			if fd < 0 {
				return 0
			}
			return uint64(p.NewDIR(fd))
		},
	}
}

func (g *DirGen) garbageProbe() *Probe {
	pr := &Probe{Fund: typesys.NameRWFixed(csim.SizeofDIR), Size: csim.SizeofDIR}
	pr.Build = func(p *csim.Process) uint64 {
		pr.Region = mountFlush(p, csim.SizeofDIR, cmem.ProtRW)
		return uint64(pr.Region.Base)
	}
	return pr
}

func (g *DirGen) corruptedProbe() *Probe {
	pr := &Probe{Fund: typesys.NameRWFixed(csim.SizeofDIR), Size: csim.SizeofDIR}
	pr.Build = func(p *csim.Process) uint64 {
		p.FS.Create(g.FixtureDir+"/a.txt", dirEntryA)
		fd := p.OpenDir(g.FixtureDir)
		if fd < 0 {
			return 0
		}
		real := p.NewDIR(fd)
		if real == 0 {
			return 0
		}
		pr.Region = mountFlush(p, csim.SizeofDIR, cmem.ProtRW)
		return CorruptDIR(p, real, pr.Region.Base)
	}
	return pr
}

// staleProbe opens a DIR and closes its descriptor behind its back:
// the structure (and its buffer) stay intact, so functions reach their
// EBADF path without crashing.
func (g *DirGen) staleProbe() *Probe {
	return &Probe{
		Fund: typesys.NameRWFixed(csim.SizeofDIR),
		Build: func(p *csim.Process) uint64 {
			p.FS.Create(g.FixtureDir+"/a.txt", dirEntryA)
			fd := p.OpenDir(g.FixtureDir)
			if fd < 0 {
				return 0
			}
			dp := p.NewDIR(fd)
			p.CloseFD(fd)
			return uint64(dp)
		},
	}
}

func (g *DirGen) probes() []*Probe {
	return append([]*Probe{
		g.openProbe(),
		g.garbageProbe(),
		g.corruptedProbe(),
		g.staleProbe(),
		nullProbe(),
	}, invalidProbes()...)
}

// Default implements Generator.
func (g *DirGen) Default() *Probe { return g.openProbe() }

// Hierarchy implements Generator.
func (g *DirGen) Hierarchy() *typesys.Hierarchy {
	h := typesys.NewHierarchy()
	typesys.AddArrayTypes(h, []int{csim.SizeofDIR})
	typesys.AddDirTypes(h, csim.SizeofDIR)
	if err := h.Finalize(); err != nil {
		panic(err)
	}
	return h
}
