// Package ballista implements the robustness evaluation of paper §6: a
// Ballista-style test suite that calls each of the 86 crash-prone POSIX
// functions with combinations of valid and exceptional argument values,
// classifies every outcome as crash (SIGSEGV, hang or abort), silent
// (invalid input accepted without any error indication), or errno-set,
// and aggregates the three bars of Figure 6 across the unwrapped,
// fully automatic, and semi-automatic configurations.
package ballista

import (
	"fmt"
	"sort"
	"strings"

	"healers/internal/clib"
	"healers/internal/cmem"
	"healers/internal/cparse"
	"healers/internal/csim"
	"healers/internal/extract"
	"healers/internal/gens"
)

// Caller dispatches a library call; the bare library and the wrapper
// interposer both satisfy it.
type Caller interface {
	Call(p *csim.Process, name string, args ...uint64) uint64
}

// PoolEntry is one test value for an argument position. At least one
// Exceptional entry appears in every generated test (the 11,995 tests
// of the paper were those exhibiting robustness violations, i.e. none
// of them was an all-valid call).
type PoolEntry struct {
	Name        string
	Exceptional bool
	// Build materializes the value in the child process, performing
	// setup calls (fopen, malloc, opendir) through the Caller so that
	// wrapped configurations see them. The set-up calls pass their
	// arguments in f (Frame.setupCall). Everything else Build needs is made once,
	// with the pool: a test builds its value without allocating.
	Build func(p *csim.Process, c Caller, f *Frame) uint64
}

// Frame is the argument frame of one test, owned by the goroutine that
// runs it and reused test after test: args holds the call's arguments,
// setup those of a set-up call a pool entry makes. A slice of it passed
// to Caller.Call costs nothing, where a fresh variadic slice escapes to
// the heap on every call through the interface.
type Frame struct {
	args  []uint64
	setup [2]uint64
}

// setupCall makes a set-up call through c with args from the frame.
func (f *Frame) setupCall(p *csim.Process, c Caller, name string, args ...uint64) uint64 {
	n := copy(f.setup[:], args)
	return c.Call(p, name, f.setup[:n]...)
}

// Test is one generated test case.
type Test struct {
	Func    string
	Entries []*PoolEntry
}

// Suite is the full deterministic test suite.
type Suite struct {
	Tests []Test
	// PerFunc counts tests by function.
	PerFunc map[string]int
}

// FixtureFile is the scratch file the pool entries open.
const FixtureFile = "/ballista/fix.txt"

// FixtureDir is the scratch directory the DIR pool opens.
const FixtureDir = "/ballista"

// NewTemplate builds the process template the suite forks children
// from. It shares the injector's stdin line so gets-style fixed sizes
// transfer.
func NewTemplate() *csim.Process {
	fs := csim.NewFS()
	fs.Create(FixtureFile, gens.FixtureFileContents())
	fs.Create(FixtureDir+"/one.txt", []byte("1"))
	fs.Create(FixtureDir+"/two.txt", []byte("2"))
	p := csim.NewProcess(fs)
	p.Stdin = []byte(gens.FixtureStdinLine() + "\nmore input\n")
	return p
}

// --- pool construction ---

func valueEntry(name string, exceptional bool, v uint64) *PoolEntry {
	return &PoolEntry{
		Name:        name,
		Exceptional: exceptional,
		Build:       func(*csim.Process, Caller, *Frame) uint64 { return v },
	}
}

// mallocEntry allocates size bytes through the caller (so wrapped
// configurations track it) and zeroes are implicit.
func mallocEntry(name string, exceptional bool, size int) *PoolEntry {
	return &PoolEntry{
		Name:        name,
		Exceptional: exceptional,
		Build: func(p *csim.Process, c Caller, f *Frame) uint64 {
			return f.setupCall(p, c, "malloc", uint64(size))
		},
	}
}

// stringEntry maps a NUL-terminated payload with the given protection,
// flush against a guard page.
func stringEntry(name string, exceptional bool, payload string, prot cmem.Prot) *PoolEntry {
	z := gens.NulTerminated(payload)
	return &PoolEntry{
		Name:        name,
		Exceptional: exceptional,
		Build: func(p *csim.Process, _ Caller, _ *Frame) uint64 {
			return uint64(gens.MountFlushData(p, z, prot).Base)
		},
	}
}

// untermEntry maps a readable region with no terminator, flush against
// its guard page.
func untermEntry(size int) *PoolEntry {
	return &PoolEntry{
		Name:        fmt.Sprintf("unterm[%d]", size),
		Exceptional: true,
		Build: func(p *csim.Process, _ Caller, _ *Frame) uint64 {
			return uint64(gens.MountUnterm(p, size).Base)
		},
	}
}

// regionEntry maps a fresh size-byte region with the given protection
// and passes its address, uninitialised memory standing in for an
// object.
func regionEntry(name string, size int, prot cmem.Prot) *PoolEntry {
	return &PoolEntry{
		Name:        name,
		Exceptional: true,
		Build: func(p *csim.Process, _ Caller, _ *Frame) uint64 {
			a, err := p.Mem.MmapRegion(size, prot)
			if err != nil {
				return 0
			}
			return uint64(a)
		},
	}
}

// The fixture names the file and directory entries open, terminated
// once for every test that mounts them.
var (
	fixtureFileZ = gens.NulTerminated(FixtureFile)
	fixtureDirZ  = gens.NulTerminated(FixtureDir)
)

// fopenFixture opens the fixture file with the given mode, both strings
// mounted from their terminated bytes, through the caller.
func fopenFixture(p *csim.Process, c Caller, f *Frame, modeZ []byte) uint64 {
	path := gens.MountFlushData(p, fixtureFileZ, cmem.ProtRW).Base
	mode := gens.MountFlushData(p, modeZ, cmem.ProtRW).Base
	return f.setupCall(p, c, "fopen", uint64(path), uint64(mode))
}

// opendirFixture opens the fixture directory through the caller.
func opendirFixture(p *csim.Process, c Caller, f *Frame) uint64 {
	return f.setupCall(p, c, "opendir", uint64(gens.MountFlushData(p, fixtureDirZ, cmem.ProtRW).Base))
}

func stringPool() []*PoolEntry {
	return []*PoolEntry{
		stringEntry("str-valid", false, "hello world", cmem.ProtRW),
		stringEntry("str-path", false, FixtureFile, cmem.ProtRW),
		stringEntry("str-mode", false, "r", cmem.ProtRW),
		stringEntry("str-ro", true, "hello world", cmem.ProtRead),
		stringEntry("str-empty", true, "", cmem.ProtRW),
		stringEntry("str-long", true, strings.Repeat("A", 300), cmem.ProtRW),
		untermEntry(16),
		untermEntry(4096),
		untermEntry(1),
		valueEntry("null", true, 0),
		valueEntry("wild", true, 0xdead0000),
		valueEntry("wild-high", true, 0x7fff00000000),
		valueEntry("near-null", true, 1),
		valueEntry("minus-one", true, ^uint64(0)),
	}
}

func bufferPool() []*PoolEntry {
	return []*PoolEntry{
		mallocEntry("buf-64", false, 64),
		mallocEntry("buf-4096", false, 4096),
		mallocEntry("buf-8", true, 8),
		mallocEntry("buf-1", true, 1),
		regionEntry("buf-ro", 64, cmem.ProtRead),
		valueEntry("null", true, 0),
		valueEntry("wild", true, 0xdead0000),
		valueEntry("wild-high", true, 0x7fff00000000),
		valueEntry("near-null", true, 1),
		valueEntry("minus-one", true, ^uint64(0)),
	}
}

func filePool() []*PoolEntry {
	openEntry := func(name, mode string) *PoolEntry {
		modeZ := gens.NulTerminated(mode)
		return &PoolEntry{
			Name: name,
			Build: func(p *csim.Process, c Caller, f *Frame) uint64 {
				return fopenFixture(p, c, f, modeZ)
			},
		}
	}
	modeRW, modeR := gens.NulTerminated("r+"), gens.NulTerminated("r")
	return []*PoolEntry{
		openEntry("file-r", "r"),
		openEntry("file-w", "w"),
		{
			Name:        "file-corrupt",
			Exceptional: true,
			Build: func(p *csim.Process, c Caller, f *Frame) uint64 {
				real := fopenFixture(p, c, f, modeRW)
				if real == 0 {
					return 0
				}
				region, err := p.Mem.MmapRegion(csim.SizeofFILE, cmem.ProtRW)
				if err != nil {
					return 0
				}
				return gens.CorruptFILE(p, cmem.Addr(real), region)
			},
		},
		{
			Name:        "file-stale",
			Exceptional: true,
			Build: func(p *csim.Process, c Caller, f *Frame) uint64 {
				fp := fopenFixture(p, c, f, modeR)
				if fp != 0 {
					p.CloseFD(p.FILEFd(cmem.Addr(fp)))
				}
				return fp
			},
		},
		regionEntry("file-garbage", csim.SizeofFILE, cmem.ProtRW),
		valueEntry("null", true, 0),
		valueEntry("wild", true, 0xdead0000),
		valueEntry("minus-one", true, ^uint64(0)),
	}
}

func dirPool() []*PoolEntry {
	return []*PoolEntry{
		{
			Name:  "dir-open",
			Build: opendirFixture,
		},
		{
			Name:        "dir-corrupt",
			Exceptional: true,
			Build: func(p *csim.Process, c Caller, f *Frame) uint64 {
				real := opendirFixture(p, c, f)
				if real == 0 {
					return 0
				}
				region, err := p.Mem.MmapRegion(csim.SizeofDIR, cmem.ProtRW)
				if err != nil {
					return 0
				}
				return gens.CorruptDIR(p, cmem.Addr(real), region)
			},
		},
		regionEntry("dir-garbage", csim.SizeofDIR, cmem.ProtRW),
		valueEntry("null", true, 0),
		valueEntry("wild", true, 0xdead0000),
		valueEntry("minus-one", true, ^uint64(0)),
	}
}

func intPool() []*PoolEntry {
	return []*PoolEntry{
		valueEntry("int-1", false, 1),
		valueEntry("int-16", false, 16),
		valueEntry("int-0", true, 0),
		valueEntry("int-4096", true, 4096),
		valueEntry("int-neg", true, ^uint64(0)),             // -1
		valueEntry("int-neg2", true, ^uint64(0)-1),          // -2
		valueEntry("int-max", true, uint64(int64(1<<31-1))), // INT_MAX
		valueEntry("int-min", true, 0xFFFFFFFF80000000),     // INT_MIN sign-extended
	}
}

func fdPool() []*PoolEntry {
	return []*PoolEntry{
		{
			Name: "fd-open",
			Build: func(p *csim.Process, _ Caller, _ *Frame) uint64 {
				fd := p.OpenFile(FixtureFile, csim.ReadWrite, false)
				return uint64(uint32(fd))
			},
		},
		valueEntry("fd-neg", true, ^uint64(0)),
		valueEntry("fd-999", true, 999),
		valueEntry("fd-0", true, 0),
		valueEntry("fd-max", true, uint64(int64(1<<31-1))),
	}
}

func funcPtrPool() []*PoolEntry {
	return []*PoolEntry{
		{
			Name: "func-valid",
			Build: func(p *csim.Process, _ Caller, _ *Frame) uint64 {
				return uint64(p.RegisterCallback(gens.ValidCallback))
			},
		},
		valueEntry("null", true, 0),
		valueEntry("wild", true, 0xdeadbeef),
		valueEntry("minus-one", true, ^uint64(0)),
	}
}

func doublePool() []*PoolEntry {
	return []*PoolEntry{
		valueEntry("dbl-1", false, 0x3FF8000000000000), // 1.5
		valueEntry("dbl-0", false, 0),
		valueEntry("dbl-qnan", true, 0x7FF8000000000001),
	}
}

// structPool covers struct out/in parameters (struct tm*, termios*,
// stat*, time_t*, char**...).
func structPool(size int) []*PoolEntry {
	if size <= 0 || size > 4096 {
		size = 64
	}
	return []*PoolEntry{
		mallocEntry("struct-ok", false, size),
		mallocEntry("struct-small", true, 4),
		regionEntry("struct-ro", size, cmem.ProtRead),
		valueEntry("null", true, 0),
		valueEntry("wild", true, 0xdead0000),
		valueEntry("wild-high", true, 0x7fff00000000),
		valueEntry("near-null", true, 1),
		valueEntry("minus-one", true, ^uint64(0)),
	}
}

// poolKey identifies a pool: the parameter class, and for a struct
// pointer the pointee size.
type poolKey struct {
	class gens.Class
	size  int
}

// poolFor selects the value pool for one parameter (Ballista generates
// by type). The type's class is the injector's; the pools are
// Ballista's own, so Figure 6 stays an independent check. Entries are
// immutable, so all parameters of one key share one pool: built keeps
// each pool once it is made.
func poolFor(param cparse.Param, table *cparse.TypeTable, built map[poolKey][]*PoolEntry) []*PoolEntry {
	k := poolKey{class: gens.Classify(param)}
	if k.class == gens.ClassPtr {
		k.size = table.Sizeof(param.Type.Elem)
	}
	if pool, ok := built[k]; ok {
		return pool
	}
	pool := newPool(k)
	built[k] = pool
	return pool
}

// newPool builds the value pool of a key.
func newPool(k poolKey) []*PoolEntry {
	switch k.class {
	case gens.ClassFuncPtr:
		return funcPtrPool()
	case gens.ClassFile:
		return filePool()
	case gens.ClassDir:
		return dirPool()
	case gens.ClassCString:
		return stringPool()
	case gens.ClassCharBuf:
		return bufferPool()
	case gens.ClassPtr:
		return structPool(k.size)
	case gens.ClassFd:
		return fdPool()
	case gens.ClassDouble:
		return doublePool()
	}
	return intPool()
}

// Generate builds the deterministic suite over the 86 crash-prone
// functions: the cross product of the per-argument pools, restricted to
// vectors containing at least one exceptional value, sampled with a
// fixed stride down to capPerFunc tests per function.
func Generate(lib *clib.Library, ext *extract.Result, capPerFunc int) (*Suite, error) {
	if capPerFunc <= 0 {
		capPerFunc = 400
	}
	suite := &Suite{PerFunc: make(map[string]int)}
	built := make(map[poolKey][]*PoolEntry)
	for _, name := range lib.CrashProne86() {
		fi, ok := ext.Lookup(name)
		if !ok || fi.Proto == nil {
			return nil, fmt.Errorf("ballista: %s has no prototype", name)
		}
		pools := make([][]*PoolEntry, len(fi.Proto.Params))
		for i, param := range fi.Proto.Params {
			pools[i] = poolFor(param, ext.Table, built)
		}
		// Classic Ballista single-fault vectors first: each exceptional
		// value in isolation with valid siblings, so every failure mode
		// is reachable regardless of sampling.
		tests := singleFault(name, pools)
		seen := make(map[string]bool, len(tests))
		for _, t := range tests {
			seen[testKey(t)] = true
		}
		// Fill to the cap with an even stride over the remaining cross
		// product (a prefix would bias toward the first pool entries of
		// the slow odometer digits).
		full := crossProduct(name, pools)
		want := capPerFunc - len(tests)
		if want > 0 && len(full) > 0 {
			if want > len(full) {
				want = len(full)
			}
			for i := 0; i < want; i++ {
				t := full[i*len(full)/want]
				if k := testKey(t); !seen[k] {
					seen[k] = true
					tests = append(tests, t)
				}
			}
		}
		suite.Tests = append(suite.Tests, tests...)
		suite.PerFunc[name] = len(tests)
	}
	return suite, nil
}

// singleFault builds the one-exceptional-at-a-time vectors: argument i
// takes each of its exceptional values while every other argument holds
// its first valid value (or first value if the pool has no valid one).
func singleFault(name string, pools [][]*PoolEntry) []Test {
	firstValid := func(pool []*PoolEntry) *PoolEntry {
		for _, e := range pool {
			if !e.Exceptional {
				return e
			}
		}
		return pool[0]
	}
	var out []Test
	for i := range pools {
		for _, e := range pools[i] {
			if !e.Exceptional {
				continue
			}
			entries := make([]*PoolEntry, len(pools))
			for j := range pools {
				entries[j] = firstValid(pools[j])
			}
			entries[i] = e
			out = append(out, Test{Func: name, Entries: entries})
		}
	}
	return out
}

// testKey identifies a vector by its entry names for deduplication.
func testKey(t Test) string {
	k := ""
	for _, e := range t.Entries {
		k += e.Name + "|"
	}
	return k
}

// crossProduct enumerates every vector with ≥1 exceptional entry.
func crossProduct(name string, pools [][]*PoolEntry) []Test {
	if len(pools) == 0 {
		return nil
	}
	var out []Test
	idx := make([]int, len(pools))
	for {
		entries := make([]*PoolEntry, len(pools))
		exceptional := false
		for i := range pools {
			entries[i] = pools[i][idx[i]]
			exceptional = exceptional || entries[i].Exceptional
		}
		if exceptional {
			out = append(out, Test{Func: name, Entries: entries})
		}
		i := 0
		for ; i < len(idx); i++ {
			idx[i]++
			if idx[i] < len(pools[i]) {
				break
			}
			idx[i] = 0
		}
		if i == len(idx) {
			return out
		}
	}
}

// Trim cuts the suite down to exactly total tests (dropping from the
// most-tested functions first), matching the paper's 11,995.
func (s *Suite) Trim(total int) {
	if len(s.Tests) <= total {
		return
	}
	// Iteratively drop the last test of the function with the most
	// tests. Deterministic and roughly balanced.
	for len(s.Tests) > total {
		worst := ""
		worstN := 0
		for name, n := range s.PerFunc {
			if n > worstN || (n == worstN && name < worst) {
				worst, worstN = name, n
			}
		}
		for i := len(s.Tests) - 1; i >= 0; i-- {
			if s.Tests[i].Func == worst {
				s.Tests = append(s.Tests[:i], s.Tests[i+1:]...)
				s.PerFunc[worst]--
				break
			}
		}
	}
}

// SortedFuncs lists the functions in the suite.
func (s *Suite) SortedFuncs() []string {
	var out []string
	for name := range s.PerFunc {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
