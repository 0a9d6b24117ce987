package bodyscan

import (
	"fmt"
	"math"
	"strings"

	"healers/internal/clib"
	"healers/internal/cmem"
	"healers/internal/csim"
	"healers/internal/decl"
	"healers/internal/gens"
	"healers/internal/injector"
)

// Scanner summarizes the functions of one compiled library.
type Scanner struct {
	prog  *program
	facts map[string]*fnFacts
}

// Load builds a scanner over funcs, compiled library functions whose
// source is the Go package in dir, and computes the syntactic
// errno/abort call-graph facts. The probes run the compiled Impls; the
// source serves only the syntactic pass.
func Load(dir string, funcs []*clib.Func) (*Scanner, error) {
	pr, err := loadProgram(dir, funcs)
	if err != nil {
		return nil, err
	}
	return &Scanner{prog: pr, facts: pr.computeFacts()}, nil
}

// LoadClib loads the simulated C library: every function clib.New
// registers, with its source in dir.
func LoadClib(dir string) (*Scanner, error) {
	lib := clib.New()
	return Load(dir, append(lib.External(), lib.Internal()...))
}

// Names returns the externally visible registered functions in
// registration order.
func (s *Scanner) Names() []string {
	var out []string
	for _, n := range s.prog.regOrder {
		if !s.prog.registry[n].Internal {
			out = append(out, n)
		}
	}
	return out
}

// Has reports whether name is registered.
func (s *Scanner) Has(name string) bool { return s.prog.registry[name] != nil }

// accessLog records every memory touch inside the tracked argument's
// region during one probe run.
type accessLog struct {
	base cmem.Addr
	size int

	readExt    int // bytes from base reached by direct reads
	writeExt   int
	kernelRead int // extents reached only through kernel-boundary copies
	kernelWr   int
	cstr       bool // a NUL-terminated scan started inside the region
	kernelCStr bool
}

// covers reports whether addr falls inside the tracked region or its
// trailing guard page (so overruns are recorded as attempted extents).
func (lg *accessLog) covers(addr cmem.Addr) bool {
	return lg.size > 0 && addr >= lg.base && addr < lg.base+cmem.Addr(lg.size)+cmem.PageSize
}

// record is the probe process's memory recorder: it notes one access,
// user or kernel side, when it starts inside the tracked region.
func (lg *accessLog) record(t cmem.Touch) {
	if !lg.covers(t.Addr) {
		return
	}
	if t.Scan {
		if t.Kernel {
			lg.kernelCStr = true
		} else {
			lg.cstr = true
		}
	}
	ext := &lg.readExt
	switch write := t.Access == cmem.AccessWrite; {
	case t.Kernel && write:
		ext = &lg.kernelWr
	case t.Kernel:
		ext = &lg.kernelRead
	case write:
		ext = &lg.writeExt
	}
	*ext = max(*ext, int(t.Addr-lg.base)+t.N)
}

// trackedBuild materializes the argument under analysis in p and
// returns its value plus the region to log accesses against.
type trackedBuild func(p *csim.Process) (uint64, gens.Region)

func trkRaw(v uint64) trackedBuild {
	return func(*csim.Process) (uint64, gens.Region) { return v, gens.Region{} }
}

func trkData(data []byte, prot cmem.Prot) trackedBuild {
	return func(p *csim.Process) (uint64, gens.Region) {
		r := gens.MountFlushData(p, data, prot)
		return uint64(r.Base), r
	}
}

// trkUnterm is the unterminated-string probe: n fill bytes, readable,
// no NUL before the guard page. It differs from gens.UntermProbe on
// purpose: the fill is a fixed 'B', not derived from the region's
// address, so a static extent never depends on where the region lands.
func trkUnterm(n int) trackedBuild {
	data := make([]byte, n)
	for i := range data {
		data[i] = 'B'
	}
	return trkData(data, cmem.ProtRead)
}

func trkFile() trackedBuild {
	return func(p *csim.Process) (uint64, gens.Region) {
		addr := p.Fopen(gens.DefaultFixturePath, "r+")
		return uint64(addr), gens.Region{Base: addr, Size: csim.SizeofFILE}
	}
}

func trkDir() trackedBuild {
	return func(p *csim.Process) (uint64, gens.Region) {
		fd := p.OpenDir(gens.DefaultFixtureDir)
		if fd < 0 {
			return 0, gens.Region{}
		}
		addr := p.NewDIR(fd)
		return uint64(addr), gens.Region{Base: addr, Size: csim.SizeofDIR}
	}
}

// benignBuild returns the benign materialization for a parameter: the
// generators' Default probe content (gens.BenignStringDefault,
// gens.BenignIntDefault, gens.ValidCallback), so the sibling
// environment of every static probe is the dynamic campaign's.
func benignBuild(pp protoParam, strOv string, intOv *int64, region int) trackedBuild {
	switch pp.Class {
	case gens.ClassCString:
		s := gens.BenignStringDefault(pp.Name)
		if strOv != "" {
			s = strOv
		}
		return trkData(append([]byte(s), 0), cmem.ProtRW)
	case gens.ClassCharBuf, gens.ClassPtr:
		return trkData(make([]byte, region), cmem.ProtRW)
	case gens.ClassFile:
		return trkFile()
	case gens.ClassDir:
		return trkDir()
	case gens.ClassFd:
		return func(p *csim.Process) (uint64, gens.Region) {
			return uint64(uint32(p.OpenFile(gens.DefaultFixturePath, csim.ReadWrite, false))), gens.Region{}
		}
	case gens.ClassFuncPtr:
		return func(p *csim.Process) (uint64, gens.Region) {
			return uint64(p.RegisterCallback(gens.ValidCallback)), gens.Region{}
		}
	case gens.ClassDouble:
		return trkRaw(math.Float64bits(1.0))
	default: // gens.ClassInt
		n := gens.BenignIntDefault(pp.Name)
		if intOv != nil {
			n = *intOv
		}
		return trkRaw(uint64(n))
	}
}

// probeSpec describes one probe run: which argument is tracked and how
// it is built, plus sibling content/value overrides.
type probeSpec struct {
	tracked int // argument index under analysis, -1 for none
	build   trackedBuild
	strOv   map[int]string // sibling C-string content overrides
	intOv   map[int]int64  // sibling integer value overrides

	// sibSize overrides a pointer-class sibling's region size. The
	// boundary-integer probes use it to replay the dynamic campaign's
	// adaptive growth: a crash whose fault address lands in a sibling's
	// region re-runs the probe with that sibling enlarged, and only a
	// crash that persists at the maximum marks the integer crash-prone.
	sibSize map[int]int
}

// probeRun is the outcome of one probe.
type probeRun struct {
	kind    csim.OutcomeKind
	fault   cmem.Fault // valid when kind == csim.OutcomeSegfault
	log     accessLog
	regions []gens.Region // per-argument mounted regions (zero if unmounted)
}

func (r probeRun) crashed() bool {
	return r.kind == csim.OutcomeSegfault || r.kind == csim.OutcomeHang || r.kind == csim.OutcomeAbort
}

func (r probeRun) clean() bool { return r.kind == csim.OutcomeReturn }

func (r probeRun) extent() int {
	if r.log.readExt > r.log.writeExt {
		return r.log.readExt
	}
	return r.log.writeExt
}

// buildArgs materializes every argument in p per the spec.
func buildArgs(p *csim.Process, params []protoParam, spec probeSpec) ([]uint64, []gens.Region) {
	args := make([]uint64, len(params))
	regions := make([]gens.Region, len(params))
	for j, pp := range params {
		if j == spec.tracked && spec.build != nil {
			args[j], regions[j] = spec.build(p)
			continue
		}
		var iov *int64
		if n, ok := spec.intOv[j]; ok {
			iov = &n
		}
		size := gens.ArrayDefaultSize
		if n, ok := spec.sibSize[j]; ok {
			size = n
		}
		args[j], regions[j] = benignBuild(pp, spec.strOv[j], iov, size)(p)
	}
	return args, regions
}

// runProbe calls the compiled function once in a fresh template
// process, under the injector's step budget, with the process's memory
// recorder logging every access to the tracked argument's region.
func runProbe(e *regEntry, params []protoParam, spec probeSpec) (res probeRun) {
	p := injector.NewTemplateProcess()
	defer p.Release()
	p.SetStepBudget(injector.StepBudget)
	args, regions := buildArgs(p, params, spec)
	res.regions = regions
	if spec.tracked >= 0 {
		res.log.base, res.log.size = regions[spec.tracked].Base, regions[spec.tracked].Size
	}
	p.Mem.Recorder = res.log.record
	out := p.Run(func() uint64 { return e.Impl(p, args) })
	res.kind, res.fault = out.Kind, out.Fault
	return res
}

// Summarize runs the probe schedule for one registered function and
// derives its access summary. It fails for a function that makes, or
// reaches, an l.Call whose target the syntactic pass cannot read: its
// errno and abort facts would silently miss that callee's.
func (s *Scanner) Summarize(name string) (*FuncSummary, error) {
	e := s.prog.registry[name]
	if e == nil {
		return nil, fmt.Errorf("bodyscan: %s not registered", name)
	}
	ff := s.facts[name]
	if ff.dynamic {
		return nil, fmt.Errorf("bodyscan: %s reaches an l.Call whose target is not a string literal", name)
	}
	params := parseProto(e.Proto)
	fs := &FuncSummary{
		Name: name, Proto: e.Proto, NArgs: e.NArgs,
		Errnos: ff.errnoList(), Aborts: ff.aborts, Calls: ff.callList(),
	}
	for i := range params {
		fs.Args = append(fs.Args, analyzeArg(e, params, i))
	}
	return fs, nil
}

// SummarizeAll summarizes the given functions (all external ones when
// names is nil).
func (s *Scanner) SummarizeAll(names []string) (map[string]*FuncSummary, error) {
	if names == nil {
		names = s.Names()
	}
	out := make(map[string]*FuncSummary, len(names))
	for _, n := range names {
		f, err := s.Summarize(n)
		if err != nil {
			return nil, err
		}
		out[n] = f
	}
	return out, nil
}

// intProbe runs one boundary-integer probe, replaying the dynamic
// campaign's adaptive loop: a segfault whose address lands in a
// pointer-class sibling's region (or its guard page) enlarges that
// sibling and re-runs, exactly as the sibling's adaptive array chain
// would have grown. The integer is crash-prone only if the crash
// persists once every implicated sibling is at the generator maximum.
func intProbe(e *regEntry, params []protoParam, i int, v uint64) (crashed bool) {
	sizes := map[int]int{}
	for {
		r := runProbe(e, params, probeSpec{tracked: i, build: trkRaw(v), sibSize: sizes})
		if !r.crashed() {
			return false
		}
		if r.kind != csim.OutcomeSegfault {
			return true
		}
		grown := false
		for j, pp := range params {
			if j == i || (pp.Class != gens.ClassCharBuf && pp.Class != gens.ClassPtr) {
				continue
			}
			rg := r.regions[j]
			if rg.Size == 0 || !rg.Owns(r.fault.Addr) {
				continue
			}
			cur := rg.Size
			if cur >= gens.ArrayMaxSize {
				continue
			}
			sizes[j] = cur * 2
			grown = true
			break
		}
		if !grown {
			return true
		}
	}
}

// analyzeArg runs the per-class probe schedule for one argument.
func analyzeArg(e *regEntry, params []protoParam, i int) ArgSummary {
	pp := params[i]
	as := ArgSummary{Index: i, Param: pp.Name, CType: pp.CType, Class: pp.Class, BoundArg: -1, BoundedArg: -1}

	probe := func(spec probeSpec) probeRun {
		spec.tracked = i
		return runProbe(e, params, spec)
	}

	switch pp.Class {
	case gens.ClassInt:
		switch m1, z := intProbe(e, params, i, ^uint64(0)), intProbe(e, params, i, 0); {
		case m1 && z:
			as.Int = IntPositive
		case m1:
			as.Int = IntNonNeg
		default:
			as.Int = IntAny
		}
		return as
	case gens.ClassDouble:
		return as
	case gens.ClassFd:
		as.FD = true
		return as
	case gens.ClassFuncPtr:
		as.FuncPtr = true
		as.NullOK = probe(probeSpec{build: trkRaw(0)}).clean()
		return as
	}

	// Pointer-like classes: cstring, charbuf, ptr, file, dir.
	as.NullOK = probe(probeSpec{build: trkRaw(0)}).clean()

	benign := probe(probeSpec{build: benignBuild(pp, "", nil, gens.ArrayDefaultSize)})
	as.ReadBytes = benign.log.readExt
	as.WriteBytes = benign.log.writeExt
	as.CStr = benign.log.cstr
	// Kernel-boundary copies (including kernel-side string reads) never
	// fault the caller, so a pointee reached only that way imposes no
	// robustness constraint.
	if as.ReadBytes == 0 && as.WriteBytes == 0 && !as.CStr &&
		(benign.log.kernelRead > 0 || benign.log.kernelWr > 0 || benign.log.kernelCStr) {
		as.KernelOnly = true
	}

	if pp.Class == gens.ClassCString {
		u1 := probe(probeSpec{build: trkUnterm(gens.UntermSize)})
		if u1.crashed() && u1.log.readExt > gens.UntermSize {
			as.CStr = true // scan ran off the unterminated region
		}
		// Content dependence: rerun the unterminated probe with every
		// C-string sibling's content swapped; a change in outcome or
		// read extent means the scan is governed by sibling content
		// (strcmp/strspn-style), not by the argument alone.
		ov := map[int]string{}
		for j, q := range params {
			if j != i && q.Class == gens.ClassCString {
				ov[j] = strings.Repeat("B", gens.UntermSize)
			}
		}
		if len(ov) > 0 {
			u2 := probe(probeSpec{build: trkUnterm(gens.UntermSize), strOv: ov})
			if u2.crashed() != u1.crashed() || u2.log.readExt != u1.log.readExt {
				as.ContentDep = true
			}
		}
		// Minimal probe: the empty string.
		as.MinBytes = probe(probeSpec{build: trkData([]byte{0}, cmem.ProtRW)}).extent()
		// Bounded read: an integer sibling that caps the scan (the
		// R_BOUNDED contract the dynamic inferBoundedRead discovers).
		if !as.CStr {
			as.BoundedArg = boundedReadArg(e, params, i)
		}
	}

	// Access kind from the benign extents. A NUL scan whose LoadCString
	// faulted before returning still counts as a read.
	switch {
	case (as.ReadBytes > 0 || as.CStr) && as.WriteBytes > 0:
		as.Kind = AccessRW
	case as.ReadBytes > 0 || as.CStr:
		as.Kind = AccessRead
	case as.WriteBytes > 0:
		as.Kind = AccessWrite
	default:
		as.Kind = AccessNone
	}

	// Bounds shape.
	switch {
	case pp.Class == gens.ClassFile || pp.Class == gens.ClassDir:
		as.Shape = ShapeStruct
	case as.CStr:
		as.Shape = ShapeScan
	case as.Kind == AccessNone:
		as.Shape = ShapeNone
	case benign.crashed() && as.Extent() > benign.log.size:
		as.Shape = ShapeUnbounded
	default:
		as.Shape = ShapeConst
		// Does the extent follow a sibling-dependent expression? Fit the
		// same candidate family the dynamic inferSize uses.
		if expr := fitSizeExpr(e, params, i); expr != nil {
			as.Expr = expr
			as.Shape = ShapeArg
			if expr.Kind == decl.SizeArgValue {
				as.BoundArg = expr.A
			}
		}
	}
	return as
}
