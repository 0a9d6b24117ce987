package gens

import (
	"strings"

	"healers/internal/cmem"
	"healers/internal/csim"
	"healers/internal/typesys"
)

// CStringGen generates NUL-terminated string test cases: valid strings
// in writable and read-only memory, unterminated regions that fault at
// their guard page, NULL, and invalid pointers.
type CStringGen struct {
	// Contents are the valid string payloads to try. Defaults cover the
	// paper's interesting cases: empty, mode-like, delimiter-ish, long.
	Contents []string
	// DefaultContent is the benign payload used while other arguments
	// are explored; it must drive the function's success path (an "r"
	// for a mode string, an existing path for a file name).
	DefaultContent string

	untermSizes []int
	fixedSeq
}

var _ Generator = (*CStringGen)(nil)

// DefaultStringContents exercises short, empty, mode-like, path-like
// and long payloads; the long one drives destination-buffer overflows,
// and the XXXXXX path is the generic payload that lets the injector
// find a success case for template-consuming functions like mkstemp.
func DefaultStringContents() []string {
	return []string{
		"hello",
		"",
		"r",
		"a,b,c",
		"/healers-fixtures/tmpXXXXXX",
		"/healers-fixtures/file.txt",
		strings.Repeat("A", 300),
	}
}

// UntermSize is the length of the unterminated region CStringGen probes.
const UntermSize = 16

// NewCStringGen returns a string generator with the given payloads
// (DefaultStringContents if nil).
func NewCStringGen(contents []string) *CStringGen {
	if contents == nil {
		contents = DefaultStringContents()
	}
	g := &CStringGen{Contents: contents, DefaultContent: "hello", untermSizes: []int{UntermSize}}
	g.build = g.probes
	return g
}

// Name implements Generator.
func (g *CStringGen) Name() string { return "cstring" }

// StringProbe builds a probe holding the given string with the given
// protection, labelled with the matching fundamental type. The
// terminated bytes are made once; every Build mounts them flush against
// the guard page (MountFlushData), the one layout of a string value,
// which the Ballista pools share.
func StringProbe(s string, prot cmem.Prot) *Probe {
	fund := typesys.NameCStringRW(len(s))
	if prot == cmem.ProtRead {
		fund = typesys.NameCStringRO(len(s))
	}
	z := NulTerminated(s)
	pr := &Probe{Fund: fund, Size: len(z)}
	pr.Build = func(p *csim.Process) uint64 {
		pr.Region = MountFlushData(p, z, prot)
		return uint64(pr.Region.Base)
	}
	return pr
}

// NulTerminated returns s followed by its NUL terminator: the bytes a
// string value mounts. Make them once and mount them as often as needed.
func NulTerminated(s string) []byte {
	return append([]byte(s), 0)
}

// untermFills holds a page of each fill byte an unterminated region can
// carry, 'B' through 'H'. It is only ever read.
var untermFills = func() (t [7][cmem.PageSize]byte) {
	for k := range t {
		for i := range t[k] {
			t[k][i] = byte('B' + k)
		}
	}
	return t
}()

// UntermProbe maps a readable region of the given size containing no
// NUL terminator, flush against its guard page (MountUnterm).
func UntermProbe(size int) *Probe {
	pr := &Probe{Fund: typesys.NameUnterminated(size), Size: size}
	pr.Build = func(p *csim.Process) uint64 {
		pr.Region = MountUnterm(p, size)
		return uint64(pr.Region.Base)
	}
	return pr
}

// MountUnterm maps a read-only region of size bytes holding no NUL,
// flush against its guard page: the one layout of an unterminated
// value, shared by UntermProbe and the Ballista pools. The zero Region
// reports a mapping that failed.
func MountUnterm(p *csim.Process, size int) Region {
	r := mountFlush(p, size, cmem.ProtRW)
	if r.Base == 0 {
		return Region{}
	}
	// The fill is derived from the region address so two unterminated
	// regions in one call differ: comparison functions then return a
	// mismatch instead of racing both pointers off their guard pages.
	// The address picks a page of fill, written as often as the
	// region needs.
	run := untermFills[(r.Base>>12)%7][:]
	for off := 0; off < size; off += len(run) {
		if f := p.Mem.Write(r.Base+cmem.Addr(off), run[:min(len(run), size-off)]); f != nil {
			return Region{}
		}
	}
	p.Mem.Protect(r.Base.PageBase(), size+int(r.Base-r.Base.PageBase()), cmem.ProtRead)
	return r
}

func (g *CStringGen) probes() []*Probe {
	var out []*Probe
	for _, s := range g.Contents {
		// Read-only variants: functions that secretly write their
		// "const char *" argument crash on these.
		out = append(out, StringProbe(s, cmem.ProtRW), StringProbe(s, cmem.ProtRead))
	}
	for _, s := range g.untermSizes {
		out = append(out, UntermProbe(s))
	}
	out = append(out, nullProbe())
	return append(out, invalidProbes()...)
}

// Default implements Generator.
func (g *CStringGen) Default() *Probe { return StringProbe(g.DefaultContent, cmem.ProtRW) }

// VariantWithLen returns a valid-string probe of exactly n content
// bytes, used by the injector's dependent-size inference.
func (g *CStringGen) VariantWithLen(n int) *Probe {
	return StringProbe(strings.Repeat("B", n), cmem.ProtRW)
}

// Hierarchy implements Generator.
func (g *CStringGen) Hierarchy() *typesys.Hierarchy {
	h := typesys.NewHierarchy()
	lens := make([]int, 0, len(g.Contents))
	sizes := append([]int{}, g.untermSizes...)
	for _, s := range g.Contents {
		lens = append(lens, len(s))
		sizes = append(sizes, len(s)+1)
	}
	typesys.AddArrayTypes(h, sizes)
	typesys.AddCStringTypes(h, g.untermSizes, lens)
	if err := h.Finalize(); err != nil {
		panic(err)
	}
	return h
}
