package gens

import (
	"strings"

	"healers/internal/cmem"
	"healers/internal/cparse"
	"healers/internal/csim"
	"healers/internal/typesys"
)

// CharBufGen generates cases for non-const char* arguments, which are
// usually destination buffers but sometimes read-written strings
// (strtok) or templates (mkstemp). It combines the adaptive array
// chains (for sizing) with valid-string payloads in both protections.
type CharBufGen struct {
	arr     *ArrayGen
	strs    []*Probe
	started bool
	lens    []int
}

var _ Generator = (*CharBufGen)(nil)

// NewCharBufGen returns a generator for char* buffer arguments.
func NewCharBufGen() *CharBufGen {
	g := &CharBufGen{arr: NewArrayGen(ArrayMaxSize, ArrayDefaultSize)}
	for _, s := range DefaultStringContents() {
		g.strs = append(g.strs, StringProbe(s, cmem.ProtRW), StringProbe(s, cmem.ProtRead))
		g.lens = append(g.lens, len(s))
	}
	return g
}

// Name implements Generator.
func (g *CharBufGen) Name() string { return "charbuf" }

// Next implements Generator: array chains first (NULL and invalid
// pointers come from the array generator), then string payloads.
func (g *CharBufGen) Next() *Probe {
	if pr := g.arr.Next(); pr != nil {
		return pr
	}
	if len(g.strs) == 0 {
		return nil
	}
	pr := g.strs[0]
	g.strs = g.strs[1:]
	return pr
}

// Adjust implements Generator: only the array chains adapt.
func (g *CharBufGen) Adjust(pr *Probe, faultAddr cmem.Addr) *Probe {
	return g.arr.Adjust(pr, faultAddr)
}

// Default implements Generator: a large zeroed read-write region (which
// doubles as an empty string).
func (g *CharBufGen) Default() *Probe { return g.arr.Default() }

// Array exposes the embedded array generator for dependent-size
// inference.
func (g *CharBufGen) Array() *ArrayGen { return g.arr }

// NoteSuccess forwards success confirmations to the array chains.
func (g *CharBufGen) NoteSuccess(pr *Probe) { g.arr.NoteSuccess(pr) }

// Hierarchy implements Generator.
func (g *CharBufGen) Hierarchy() *typesys.Hierarchy {
	h := typesys.NewHierarchy()
	sizes := g.arr.SizesObserved()
	for _, l := range g.lens {
		sizes = append(sizes, l+1)
	}
	typesys.AddArrayTypes(h, sizes)
	typesys.AddCStringTypes(h, nil, g.lens)
	if err := h.Finalize(); err != nil {
		panic(err)
	}
	return h
}

// Fd type names (canonical definitions live in typesys, next to the
// rest of the shared vocabulary).
const (
	TypeFdOpen  = typesys.TypeFdOpen
	TypeFdBad   = typesys.TypeFdBad
	TypeFdValid = typesys.TypeFdValid
	TypeFdAny   = typesys.TypeFdAny
)

// FdGen generates file-descriptor arguments: one genuinely open
// descriptor and several invalid numbers. Descriptors cannot cause
// memory faults, so functions taking them are expected to come out
// with an unconstrained robust type — errors, not crashes.
type FdGen struct {
	// FixturePath is (re)created and opened for the valid case.
	FixturePath string

	fixedSeq
}

var _ Generator = (*FdGen)(nil)

// fdFixtureContents is what FdGen writes to its fixture before opening
// it. It is read-only (csim.FS.Create keeps it copy-on-write), so a
// probe build allocates no contents.
var fdFixtureContents = []byte("fd fixture\n")

// NewFdGen returns a descriptor generator.
func NewFdGen() *FdGen {
	g := &FdGen{FixturePath: DefaultFixturePath}
	g.build = g.probes
	return g
}

// Name implements Generator.
func (g *FdGen) Name() string { return "fd" }

func (g *FdGen) openFdProbe() *Probe {
	return &Probe{
		Fund: TypeFdOpen,
		Build: func(p *csim.Process) uint64 {
			p.FS.Create(g.FixturePath, fdFixtureContents)
			fd := p.OpenFile(g.FixturePath, csim.ReadWrite, false)
			return uint64(uint32(fd))
		},
	}
}

func badFdProbe(v int64) *Probe {
	return &Probe{
		Fund:  TypeFdBad,
		Build: func(p *csim.Process) uint64 { return uint64(v) },
	}
}

func (g *FdGen) probes() []*Probe {
	out := []*Probe{g.openFdProbe()}
	for _, v := range []int64{-1, 0, 2, 999, 1 << 30} {
		out = append(out, badFdProbe(v))
	}
	return out
}

// Default implements Generator.
func (g *FdGen) Default() *Probe { return g.openFdProbe() }

// Hierarchy implements Generator.
func (g *FdGen) Hierarchy() *typesys.Hierarchy {
	h := typesys.NewHierarchy()
	typesys.AddFdTypes(h)
	if err := h.Finalize(); err != nil {
		panic(err)
	}
	return h
}

// BenignStringDefault picks a benign default payload for a string
// parameter from its declared name, so that exploring the *other*
// arguments exercises the function's success path.
func BenignStringDefault(name string) string {
	switch name {
	case "mode":
		return "r"
	case "path", "pathname", "name", "filename":
		return DefaultFixturePath
	case "delim":
		return ","
	default:
		return "hello"
	}
}

// BenignIntDefault picks a benign default value for an integer
// parameter from its declared name, so that exploration of the *other*
// arguments runs the function's success path.
func BenignIntDefault(name string) int64 {
	switch name {
	case "whence", "flags", "optional_actions", "mode":
		return 0
	case "base":
		return 10
	case "speed":
		return 13 // B9600
	case "c":
		return 'x'
	case "loc", "offset":
		return 0
	default:
		return 8
	}
}

// IsFdParam reports whether an int parameter is a file descriptor.
func IsFdParam(name string) bool {
	switch name {
	case "fd", "oldfd", "newfd", "fildes":
		return true
	}
	return false
}

// Class is what a parameter's C type is, as far as choosing its test
// values goes. The injector's generators, the Ballista pools, the
// static predictor and the body scan all key off it.
type Class string

// The parameter classes. The spellings are committed in the body facts.
const (
	ClassCString Class = "cstring" // const char *
	ClassCharBuf Class = "charbuf" // char * (writable)
	ClassPtr     Class = "ptr"     // any other pointer: struct*, void*, scalar out-params, char**
	ClassFile    Class = "file"    // FILE *
	ClassDir     Class = "dir"     // DIR *
	ClassFd      Class = "fd"      // descriptor-named int
	ClassInt     Class = "int"     // any other integer, and kinds with no class of their own
	ClassDouble  Class = "double"  // double, float
	ClassFuncPtr Class = "funcptr" // function pointer
)

// Classify decides a parameter's class from its C type (paper §4.1:
// generators are selected "using the C argument type"). A by-value
// struct, an array, or void falls to ClassInt; callers that treat
// those apart test the kind themselves.
func Classify(param cparse.Param) Class {
	t := param.Type
	switch t.Kind {
	case cparse.KindFuncPtr:
		return ClassFuncPtr
	case cparse.KindPointer:
		elem := t.Elem
		switch {
		case elem.Kind == cparse.KindStruct && elem.Struct == "_IO_FILE":
			return ClassFile
		case elem.Kind == cparse.KindStruct && elem.Struct == "__dirstream":
			return ClassDir
		case elem.Kind == cparse.KindInt && strings.Contains(elem.Name, "char") && elem.Const:
			return ClassCString
		case elem.Kind == cparse.KindInt && strings.Contains(elem.Name, "char"):
			return ClassCharBuf
		}
		return ClassPtr
	case cparse.KindInt:
		if IsFdParam(param.Name) {
			return ClassFd
		}
	case cparse.KindDouble, cparse.KindFloat:
		return ClassDouble
	}
	return ClassInt
}

// ForParam selects the test-case generator for one function parameter
// (paper §4.1: "uses the C argument type to select at least one test
// case generator for each argument"). Specific generators exist for
// FILE*, DIR* and descriptors; everything else falls back to the
// generic pointer, string, integer and double generators.
func ForParam(param cparse.Param, table *cparse.TypeTable) Generator {
	switch Classify(param) {
	case ClassFuncPtr:
		return NewFuncPtrGen()
	case ClassFile:
		return NewFileGen("")
	case ClassDir:
		return NewDirGen("")
	case ClassCString:
		g := NewCStringGen(nil)
		g.DefaultContent = BenignStringDefault(param.Name)
		return g
	case ClassCharBuf:
		return NewCharBufGen()
	case ClassPtr:
		// Generic pointer: structs (adaptively sized), scalar out
		// parameters, void*, char**.
		g := NewArrayGen(ArrayMaxSize, ArrayDefaultSize)
		if elem := param.Type.Elem; elem.Kind == cparse.KindInt && elem.Name == "time_t" {
			// Scalar time pointers: besides the zeroed growth chains, add
			// 0x7F-filled variants whose astronomically large value
			// exercises the out-of-range errno paths of gmtime/localtime.
			g.VariantFills = []byte{0x7F}
		}
		return g
	case ClassFd:
		return NewFdGen()
	case ClassDouble:
		return NewDoubleGen()
	}
	if param.Type.Kind == cparse.KindStruct {
		// By-value structs do not occur in the library; treat like int.
		return NewIntGen(0)
	}
	return NewIntGen(BenignIntDefault(param.Name))
}
