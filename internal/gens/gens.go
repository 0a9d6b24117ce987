// Package gens implements the test-case generators of paper §4.1/4.2.
//
// A generator produces a finite sequence of probes for one argument of
// the function under test. Each probe carries the name of the
// fundamental type its value belongs to and a Build function that
// materializes the value inside a fresh child process. Array-like
// generators are adaptive: when the function crashes at an address the
// probe owns, Adjust enlarges the region (the paper's "iteratively
// enlarged until no more segmentation faults occur") — regions are
// mounted flush against a guard page so the faulting address reveals
// exactly how many more bytes the function needed.
package gens

import (
	"healers/internal/cmem"
	"healers/internal/csim"
	"healers/internal/typesys"
)

// Region is the memory a probe materialized, plus its guard window.
// A fault at addr is attributed to the probe iff Base ≤ addr < GuardEnd.
type Region struct {
	Base     cmem.Addr
	Size     int
	GuardEnd cmem.Addr
}

// Owns reports whether addr falls inside the region or its guard.
func (r Region) Owns(addr cmem.Addr) bool {
	return r.Base != 0 && addr >= r.Base && addr < r.GuardEnd
}

// Probe is one test-case recipe. Build runs inside the child process
// and returns the argument value; it records the owned region (if any)
// so the injector can attribute faults.
type Probe struct {
	// Fund is the fundamental type name of the value.
	Fund string
	// Size is the region size for array probes (0 otherwise).
	Size int
	// Build materializes the value in p.
	Build func(p *csim.Process) uint64
	// Region is the memory owned by the most recent Build.
	Region Region
}

// Generator produces probes for one argument.
type Generator interface {
	// Name identifies the generator in logs.
	Name() string
	// Next returns the next probe in the sequence, or nil when done.
	Next() *Probe
	// Adjust reacts to a crash at faultAddr owned by pr: it returns a
	// replacement probe (e.g. a larger region) or nil if it cannot
	// adapt further.
	Adjust(pr *Probe, faultAddr cmem.Addr) *Probe
	// Default returns a benign probe used for this argument while the
	// injector explores the other arguments.
	Default() *Probe
	// Hierarchy instantiates the type hierarchy over everything the
	// generator observed (array sizes probed, etc.). Call it after the
	// enumeration is complete.
	Hierarchy() *typesys.Hierarchy
}

// fixedSeq is the shared core of the non-adaptive generators: build
// makes the probe sequence on the first Next (so fields written after
// construction, such as Contents or FixturePath, still count), Next
// hands it out in order, and Adjust never adapts.
type fixedSeq struct {
	build   func() []*Probe
	queue   []*Probe
	started bool
}

// Next implements Generator.
func (s *fixedSeq) Next() *Probe {
	if !s.started {
		s.started = true
		s.queue = s.build()
	}
	if len(s.queue) == 0 {
		return nil
	}
	pr := s.queue[0]
	s.queue = s.queue[1:]
	return pr
}

// Adjust implements Generator: fixed sequences are not adaptive.
func (s *fixedSeq) Adjust(pr *Probe, faultAddr cmem.Addr) *Probe { return nil }

// mountFlush maps a region of the given size and protection with its
// last byte flush against an unmapped guard page, so the first access
// past the region faults at exactly Base+Size.
func mountFlush(p *csim.Process, size int, prot cmem.Prot) Region {
	pages := (size + cmem.PageSize - 1) / cmem.PageSize
	if pages == 0 {
		pages = 1
	}
	mapped, err := p.Mem.MmapRegion(pages*cmem.PageSize, prot)
	if err != nil {
		return Region{}
	}
	end := mapped + cmem.Addr(pages*cmem.PageSize)
	return Region{
		Base:     end - cmem.Addr(size),
		Size:     size,
		GuardEnd: end + cmem.PageSize,
	}
}

// MountFlushData maps a region holding data with the given protection,
// flush against its guard page. Each page is built with its bytes and
// protection in one pass (cmem.Memory.MmapFlush). An empty region's one
// page stays read-write whatever prot says: the protection applies to
// the pages holding data, and there are none.
func MountFlushData(p *csim.Process, data []byte, prot cmem.Prot) Region {
	if len(data) == 0 {
		prot = cmem.ProtRW
	}
	base, err := p.Mem.MmapFlush(data, prot)
	if err != nil {
		return Region{}
	}
	return Region{Base: base, Size: len(data), GuardEnd: base + cmem.Addr(len(data)) + cmem.PageSize}
}

// fixtureFileTemplate is the precomputed fixture payload; file probes
// recreate the fixture on every Build, so rendering these 8 KiB
// byte-by-byte each time was a measurable slice of campaign CPU.
var fixtureFileTemplate = func() []byte {
	line := make([]byte, 0, 8192)
	for i := 0; i < 120; i++ {
		line = append(line, byte('a'+i%26))
	}
	line = append(line, '\n')
	for len(line) < 8192 {
		line = append(line, byte('0'+len(line)%10))
	}
	return line
}()

// FixtureFileContents is the standard content of the scratch file the
// generators open: a long first line (so fgets-style sizing inference
// has room to grow) followed by filler up to a few KiB (so fread-style
// product inference never runs out of file). Every call returns the
// same read-only bytes: csim.FS.Create keeps them copy-on-write, so a
// process that writes the file copies it first. Callers must not
// mutate the slice.
func FixtureFileContents() []byte {
	return fixtureFileTemplate
}

// FixtureStdinLine is the first line of the simulated standard input
// (shared by the injector and the Ballista harness so gets-style fixed
// sizing matches between them).
func FixtureStdinLine() string { return "healers standard input!" }

// Common non-region probes shared by pointer-like generators.

func nullProbe() *Probe {
	return &Probe{
		Fund:  typesys.TypeNull,
		Build: func(p *csim.Process) uint64 { return 0 },
	}
}

var invalidPointers = []uint64{
	0xdead0000,         // unmapped low-ish address
	^uint64(0),         // (void*)-1, the paper's example
	0x0000000000000001, // near-null
}

func invalidProbes() []*Probe {
	out := make([]*Probe, len(invalidPointers))
	for i, v := range invalidPointers {
		val := v
		out[i] = &Probe{
			Fund:  typesys.TypeInvalid,
			Build: func(p *csim.Process) uint64 { return val },
		}
	}
	return out
}
