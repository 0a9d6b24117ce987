package bodyscan

import (
	"fmt"
	"math"
	"reflect"
	"strings"

	"healers/internal/cmem"
	"healers/internal/csim"
	"healers/internal/decl"
	"healers/internal/gens"
	"healers/internal/injector"
)

// Scanner analyzes one loaded clib source tree.
type Scanner struct {
	prog  *program
	facts map[string]*fnFacts
}

// Load parses the clib package in dir, builds the interpreted registry
// by executing its register* methods, and computes the syntactic
// errno/abort call-graph facts.
func Load(dir string) (*Scanner, error) {
	pr, err := loadProgram(dir)
	if err != nil {
		return nil, err
	}
	return &Scanner{prog: pr, facts: pr.computeFacts()}, nil
}

// Names returns the externally visible registered functions in
// registration order.
func (s *Scanner) Names() []string {
	var out []string
	for _, n := range s.prog.regOrder {
		if e := s.prog.registry[n]; e != nil && !e.Internal {
			out = append(out, n)
		}
	}
	return out
}

// Has reports whether name is registered.
func (s *Scanner) Has(name string) bool { return s.prog.registry[name] != nil }

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

func trkFd() trackedBuild {
	return func(p *csim.Process) (uint64, gens.Region) {
		fd := p.OpenFile(gens.DefaultFixturePath, csim.ReadWrite, false)
		return uint64(uint32(fd)), gens.Region{}
	}
}

func trkFunc() trackedBuild {
	return func(p *csim.Process) (uint64, gens.Region) {
		return uint64(p.RegisterCallback(gens.ValidCallback)), gens.Region{}
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
		return trkFd()
	case gens.ClassFuncPtr:
		return trkFunc()
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
	ret     uint64
	errno   int
	fault   *cmem.Fault
	log     accessLog
	regions []gens.Region // per-argument mounted regions (zero if unmounted)
	unk     string        // non-empty: interpretation hit an unmodeled construct
}

func (r probeRun) crashed() bool {
	return r.unk == "" &&
		(r.kind == csim.OutcomeSegfault || r.kind == csim.OutcomeHang || r.kind == csim.OutcomeAbort)
}

func (r probeRun) clean() bool { return r.unk == "" && r.kind == csim.OutcomeReturn }

func (r probeRun) extent() int {
	if r.log.readExt > r.log.writeExt {
		return r.log.readExt
	}
	return r.log.writeExt
}

// buildArgs materializes every argument in p per the spec.
func buildArgs(p *csim.Process, params []protoParam, spec probeSpec) ([]val, *accessLog, []gens.Region) {
	lg := &accessLog{}
	args := make([]val, len(params))
	regions := make([]gens.Region, len(params))
	for j, pp := range params {
		var v uint64
		if j == spec.tracked && spec.build != nil {
			var r gens.Region
			v, r = spec.build(p)
			lg.base, lg.size = r.Base, r.Size
			lg.trkTag = j + 1
			regions[j] = r
		} else {
			var iov *int64
			if n, ok := spec.intOv[j]; ok {
				iov = &n
			}
			size := gens.ArrayDefaultSize
			if n, ok := spec.sibSize[j]; ok {
				size = n
			}
			b := benignBuild(pp, spec.strOv[j], iov, size)
			v, regions[j] = b(p)
		}
		args[j] = val{rv: reflect.ValueOf(v), tag: j + 1}
	}
	return args, lg, regions
}

// runProbe executes one interpreted probe in a fresh template process.
func (s *Scanner) runProbe(name string, params []protoParam, spec probeSpec) (res probeRun) {
	p := injector.NewTemplateProcess()
	defer p.Release()
	p.SetStepBudget(injector.StepBudget)
	args, lg, regions := buildArgs(p, params, spec)
	res.regions = regions
	ip := newInterp(s.prog, p)
	ip.log = lg
	defer func() {
		res.log = *lg
		if r := recover(); r != nil {
			u, ok := r.(unknownf)
			if !ok {
				panic(r)
			}
			res.unk = u.msg
		}
	}()
	out := p.Run(func() uint64 { return toUint64(ip.callByName(name, args)) })
	res.kind, res.ret, res.errno, res.fault = out.Kind, out.Ret, out.Errno, out.Fault
	return res
}

// Summarize runs the probe schedule for one registered function and
// derives its access summary. Any unmodeled construct along any probe
// degrades the whole function to Unknown: the pass never guesses.
func (s *Scanner) Summarize(name string) (*FuncSummary, error) {
	e := s.prog.registry[name]
	if e == nil {
		return nil, fmt.Errorf("bodyscan: %s not registered", name)
	}
	params := parseProto(e.Proto)
	fs := &FuncSummary{Name: name, Proto: e.Proto, NArgs: e.NArgs}
	if ff := s.facts[name]; ff != nil {
		fs.Errnos = ff.errnoList()
		fs.Aborts = ff.aborts
		fs.Calls = ff.callList()
	}
	markUnknown := func(reason string) {
		fs.Unknown = true
		fs.Reason = reason
		fs.Args = fs.Args[:0]
		for i, pp := range params {
			fs.Args = append(fs.Args, ArgSummary{
				Index: i, Param: pp.Name, CType: pp.CType, Class: pp.Class,
				BoundArg: -1, BoundedArg: -1,
			})
		}
	}
	// Baseline run with every argument benign: establishes that the
	// whole body is interpretable before per-argument probing.
	if base := s.runProbe(name, params, probeSpec{tracked: -1}); base.unk != "" {
		markUnknown(base.unk)
		return fs, nil
	}
	for i := range params {
		as, unk := s.analyzeArg(name, params, i)
		if unk != "" {
			markUnknown(unk)
			return fs, nil
		}
		fs.Args = append(fs.Args, as)
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
func (s *Scanner) intProbe(name string, params []protoParam, i int, v uint64) (crashed bool, unk string) {
	sizes := map[int]int{}
	for {
		r := s.runProbe(name, params, probeSpec{tracked: i, build: trkRaw(v), sibSize: sizes})
		if r.unk != "" {
			return false, r.unk
		}
		if !r.crashed() {
			return false, ""
		}
		if r.kind != csim.OutcomeSegfault || r.fault == nil {
			return true, ""
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
			return true, ""
		}
	}
}

// analyzeArg runs the per-class probe schedule for one argument.
func (s *Scanner) analyzeArg(name string, params []protoParam, i int) (ArgSummary, string) {
	pp := params[i]
	as := ArgSummary{Index: i, Param: pp.Name, CType: pp.CType, Class: pp.Class, BoundArg: -1, BoundedArg: -1}

	probe := func(spec probeSpec) probeRun {
		spec.tracked = i
		return s.runProbe(name, params, spec)
	}

	switch pp.Class {
	case gens.ClassInt:
		m1, unk := s.intProbe(name, params, i, ^uint64(0))
		if unk != "" {
			return as, unk
		}
		z, unk := s.intProbe(name, params, i, 0)
		if unk != "" {
			return as, unk
		}
		switch {
		case m1 && z:
			as.Int = IntPositive
		case m1:
			as.Int = IntNonNeg
		default:
			as.Int = IntAny
		}
		return as, ""
	case gens.ClassDouble:
		return as, ""
	case gens.ClassFd:
		as.FD = true
		b := probe(probeSpec{build: trkFd()})
		if b.unk != "" {
			return as, b.unk
		}
		as.FD = as.FD || b.log.fdUse
		return as, ""
	case gens.ClassFuncPtr:
		as.FuncPtr = true
		b := probe(probeSpec{build: trkFunc()})
		if b.unk != "" {
			return as, b.unk
		}
		n := probe(probeSpec{build: trkRaw(0)})
		if n.unk != "" {
			return as, n.unk
		}
		as.NullOK = n.clean()
		return as, ""
	}

	// Pointer-like classes: cstring, charbuf, ptr, file, dir.
	nullRun := probe(probeSpec{build: trkRaw(0)})
	if nullRun.unk != "" {
		return as, nullRun.unk
	}
	as.NullOK = nullRun.clean()

	benign := probe(probeSpec{build: benignBuild(pp, "", nil, gens.ArrayDefaultSize)})
	if benign.unk != "" {
		return as, benign.unk
	}
	as.ReadBytes = benign.log.readExt
	as.WriteBytes = benign.log.writeExt
	as.CStr = benign.log.cstr
	as.FD = benign.log.fdUse
	as.FuncPtr = benign.log.funcPtr
	// Kernel-boundary copies (including kernel-side string reads) never
	// fault the caller, so a pointee reached only that way imposes no
	// robustness constraint.
	if as.ReadBytes == 0 && as.WriteBytes == 0 && !as.CStr &&
		(benign.log.kernelRead > 0 || benign.log.kernelWr > 0 || benign.log.kernelCStr) {
		as.KernelOnly = true
	}

	if pp.Class == gens.ClassCString {
		u1 := probe(probeSpec{build: trkUnterm(gens.UntermSize)})
		if u1.unk != "" {
			return as, u1.unk
		}
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
			if u2.unk != "" {
				return as, u2.unk
			}
			if u2.crashed() != u1.crashed() || u2.log.readExt != u1.log.readExt {
				as.ContentDep = true
			}
		}
		// Minimal probe: the empty string.
		em := probe(probeSpec{build: trkData([]byte{0}, cmem.ProtRW)})
		if em.unk != "" {
			return as, em.unk
		}
		as.MinBytes = em.extent()
		// Bounded read: an integer sibling that caps the scan (the
		// R_BOUNDED contract the dynamic inferBoundedRead discovers).
		if !as.CStr {
			j, unk := s.boundedReadArg(name, params, i)
			if unk != "" {
				return as, unk
			}
			as.BoundedArg = j
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
		expr, unk := s.fitSizeExpr(name, params, i)
		if unk != "" {
			return as, unk
		}
		if expr != nil {
			as.Expr = expr
			as.Shape = ShapeArg
			if expr.Kind == decl.SizeArgValue {
				as.BoundArg = expr.A
			}
		}
	}
	return as, ""
}
