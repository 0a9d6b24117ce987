package bodyscan

import (
	"fmt"
	"go/ast"
	"go/token"
	"reflect"
	"strconv"

	"healers/internal/cmem"
	"healers/internal/csim"
)

// The interpreter executes clib function bodies directly from their
// ASTs over a real csim.Process. Every construct it does not model
// panics with unknownf, which the probe harness converts into an
// Unknown summary: the pass never guesses.

// unknownf aborts interpretation of one function body.
type unknownf struct{ msg string }

func (u unknownf) Error() string { return u.msg }

func unknown(format string, args ...any) {
	panic(unknownf{fmt.Sprintf(format, args...)})
}

// val is one interpreted value: a concrete Go value plus the light
// provenance tag used to detect descriptor-table and callback flow.
type val struct {
	rv      reflect.Value
	tag     int  // argument index+1 of the value's source, 0 = none
	untyped bool // from an untyped constant; adopts a peer's type in binops
}

func goval(x any) val { return val{rv: reflect.ValueOf(x)} }

var nilVal = val{}

func (v val) isNil() bool { return !v.rv.IsValid() }

// structVal is an instance of an interpreted (clib-local) struct type.
type structVal struct {
	typ    *istruct
	fields map[string]val
}

// sptr is the address of an interpreted struct (&ff).
type sptr struct{ s *structVal }

// funcVal is an interpreted function: a declaration or literal plus
// its defining environment.
type funcVal struct {
	name    string
	params  *ast.FieldList
	results *ast.FieldList
	body    *ast.BlockStmt
	env     *env
}

// libHandle stands in for the *Library receiver during interpretation;
// l.add and l.Call dispatch through it.
type libHandle struct{ prog *program }

// istruct describes an interpreted struct type (package-level or
// function-local).
type istruct struct {
	name   string
	order  []string
	fields map[string]ast.Expr // field name -> type expression
}

// cell is one mutable variable binding.
type cell struct{ v val }

type env struct {
	parent *env
	vars   map[string]*cell
}

func newEnv(parent *env) *env { return &env{parent: parent, vars: map[string]*cell{}} }

func (e *env) lookup(name string) *cell {
	for s := e; s != nil; s = s.parent {
		if c, ok := s.vars[name]; ok {
			return c
		}
	}
	return nil
}

func (e *env) define(name string, v val) {
	if name == "_" {
		return
	}
	e.vars[name] = &cell{v: v}
}

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

	fdUse   bool // tracked value reached the descriptor table
	funcPtr bool // tracked value reached CallPtr
	trkTag  int  // tag of the argument under analysis
}

// covers reports whether addr falls inside the tracked region or its
// trailing guard page (so overruns are recorded as attempted extents).
func (lg *accessLog) covers(addr cmem.Addr) bool {
	return lg.size > 0 && addr >= lg.base && addr < lg.base+cmem.Addr(lg.size)+cmem.PageSize
}

// note records an n-byte access at addr, user or kernel side.
func (lg *accessLog) note(addr cmem.Addr, n int, write, kernel bool) {
	if !lg.covers(addr) {
		return
	}
	ext := &lg.readExt
	switch {
	case kernel && write:
		ext = &lg.kernelWr
	case kernel:
		ext = &lg.kernelRead
	case write:
		ext = &lg.writeExt
	}
	*ext = max(*ext, int(addr-lg.base)+n)
}

// interp executes one probe run.
type interp struct {
	prog *program
	p    *csim.Process
	pval reflect.Value
	log  *accessLog

	active  map[string]bool // l.Call inlining stack, for cycle detection
	argTags map[uintptr][]int
	fuel    int

	// local struct types declared inside the function being run
	localTypes map[string]*istruct
}

func newInterp(prog *program, p *csim.Process) *interp {
	ip := &interp{
		prog:       prog,
		p:          p,
		active:     map[string]bool{},
		argTags:    map[uintptr][]int{},
		fuel:       8 << 20,
		localTypes: map[string]*istruct{},
	}
	if p != nil {
		ip.pval = reflect.ValueOf(p)
	}
	return ip
}

func (ip *interp) burn() {
	ip.fuel--
	if ip.fuel <= 0 {
		unknown("interpreter fuel exhausted")
	}
	if ip.p != nil {
		ip.p.Step()
	}
}

// callByName dispatches an l.Call (or the probe entry point) to a
// registered function's interpreted body.
func (ip *interp) callByName(name string, args []val) val {
	e := ip.prog.registry[name]
	if e == nil {
		unknown("l.Call target %q not registered", name)
	}
	if ip.active[name] {
		unknown("call-graph cycle through %q", name)
	}
	ip.active[name] = true
	defer delete(ip.active, name)

	argv := make([]uint64, len(args))
	tags := make([]int, len(args))
	for i, a := range args {
		argv[i] = toUint64(a)
		tags[i] = a.tag
	}
	sl := reflect.ValueOf(argv)
	if len(argv) > 0 {
		ip.argTags[sl.Pointer()] = tags
	}
	out := ip.invoke(e.Impl, []val{{rv: ip.pval}, {rv: sl}})
	if len(out) != 1 {
		unknown("%s returned %d values", name, len(out))
	}
	return out[0]
}

// callSlice dispatches l.Call when the argument slice is forwarded
// verbatim (the alias `a...` case), preserving per-index provenance.
func (ip *interp) callSliceByName(name string, slice val) val {
	e := ip.prog.registry[name]
	if e == nil {
		unknown("l.Call target %q not registered", name)
	}
	if ip.active[name] {
		unknown("call-graph cycle through %q", name)
	}
	ip.active[name] = true
	defer delete(ip.active, name)
	out := ip.invoke(e.Impl, []val{{rv: ip.pval}, slice})
	if len(out) != 1 {
		unknown("%s returned %d values", name, len(out))
	}
	return out[0]
}

// invoke runs an interpreted function with bound arguments.
func (ip *interp) invoke(fv *funcVal, args []val) []val {
	if fv == nil {
		unknown("call of nil function")
	}
	ip.burn()
	fenv := newEnv(fv.env)
	i := 0
	if fv.params != nil {
		for _, f := range fv.params.List {
			names := f.Names
			if len(names) == 0 {
				// unnamed parameter: consume the argument
				if i >= len(args) {
					unknown("%s: missing argument", fv.name)
				}
				i++
				continue
			}
			for _, n := range names {
				if i >= len(args) {
					unknown("%s: missing argument %s", fv.name, n.Name)
				}
				fenv.define(n.Name, args[i])
				i++
			}
		}
	}
	// Named results start at their zero values and are collected on a
	// bare return.
	var resultNames []string
	if fv.results != nil {
		for _, f := range fv.results.List {
			for _, n := range f.Names {
				fenv.define(n.Name, ip.zeroVal(f.Type))
				resultNames = append(resultNames, n.Name)
			}
		}
	}
	c := ip.execBlock(fv.body, fenv)
	if c == nil {
		if len(resultNames) > 0 {
			out := make([]val, len(resultNames))
			for j, n := range resultNames {
				out[j] = fenv.lookup(n).v
			}
			return out
		}
		return nil
	}
	if c.kind != ctrlReturn {
		unknown("%s: %v escaped function body", fv.name, c.kind)
	}
	if len(c.vals) == 0 && len(resultNames) > 0 {
		out := make([]val, len(resultNames))
		for j, n := range resultNames {
			out[j] = fenv.lookup(n).v
		}
		return out
	}
	return c.vals
}

// ---- value helpers ----

func toUint64(v val) uint64 {
	if !v.rv.IsValid() {
		unknown("nil where integer expected")
	}
	switch v.rv.Kind() {
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return v.rv.Uint()
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return uint64(v.rv.Int())
	}
	unknown("cannot use %s as uint64", v.rv.Kind())
	return 0
}

func toInt(v val) int {
	return int(int64(toUint64(v)))
}

func truth(v val) bool {
	if !v.rv.IsValid() || v.rv.Kind() != reflect.Bool {
		unknown("non-bool condition")
	}
	return v.rv.Bool()
}

var (
	funcValType   = reflect.TypeOf((*funcVal)(nil))
	structValType = reflect.TypeOf((*structVal)(nil))
	sptrType      = reflect.TypeOf(sptr{})
	libType       = reflect.TypeOf((*libHandle)(nil))
	processType   = reflect.TypeOf((*csim.Process)(nil))
)

func asFunc(v val) *funcVal {
	if v.rv.IsValid() && v.rv.Type() == funcValType {
		return v.rv.Interface().(*funcVal)
	}
	return nil
}

func asStruct(v val) *structVal {
	if !v.rv.IsValid() {
		return nil
	}
	if v.rv.Type() == structValType {
		return v.rv.Interface().(*structVal)
	}
	if v.rv.Type() == sptrType {
		return v.rv.Interface().(sptr).s
	}
	return nil
}

// copyIfStruct implements Go value semantics for interpreted structs:
// assigning a structVal rvalue copies it, while &-derived sptrs alias.
func copyIfStruct(v val) val {
	if v.rv.IsValid() && v.rv.Type() == structValType {
		s := v.rv.Interface().(*structVal)
		nf := make(map[string]val, len(s.fields))
		for k, fv := range s.fields {
			nf[k] = fv
		}
		return val{rv: reflect.ValueOf(&structVal{typ: s.typ, fields: nf}), tag: v.tag}
	}
	return v
}

// ---- literals ----

func evalBasicLit(l *ast.BasicLit) val {
	switch l.Kind {
	case token.INT:
		u, err := strconv.ParseUint(l.Value, 0, 64)
		if err == nil {
			if u <= 1<<63-1 {
				return val{rv: reflect.ValueOf(int(u)), untyped: true}
			}
			return val{rv: reflect.ValueOf(u), untyped: true}
		}
		unknown("bad int literal %q", l.Value)
	case token.CHAR:
		r, _, _, err := strconv.UnquoteChar(l.Value[1:len(l.Value)-1], '\'')
		if err != nil {
			unknown("bad char literal %q", l.Value)
		}
		return val{rv: reflect.ValueOf(int(r)), untyped: true}
	case token.STRING:
		s, err := strconv.Unquote(l.Value)
		if err != nil {
			unknown("bad string literal")
		}
		return val{rv: reflect.ValueOf(s), untyped: true}
	case token.FLOAT:
		f, err := strconv.ParseFloat(l.Value, 64)
		if err != nil {
			unknown("bad float literal %q", l.Value)
		}
		return val{rv: reflect.ValueOf(f), untyped: true}
	}
	unknown("unsupported literal kind %v", l.Kind)
	return nilVal
}

// ---- package-level name tables ----

// basicTypes are the builtin types the interpreter can convert to.
var basicTypes = map[string]reflect.Type{
	"int":     reflect.TypeOf(int(0)),
	"int8":    reflect.TypeOf(int8(0)),
	"int16":   reflect.TypeOf(int16(0)),
	"int32":   reflect.TypeOf(int32(0)),
	"int64":   reflect.TypeOf(int64(0)),
	"uint":    reflect.TypeOf(uint(0)),
	"uint8":   reflect.TypeOf(uint8(0)),
	"uint16":  reflect.TypeOf(uint16(0)),
	"uint32":  reflect.TypeOf(uint32(0)),
	"uint64":  reflect.TypeOf(uint64(0)),
	"uintptr": reflect.TypeOf(uintptr(0)),
	"byte":    reflect.TypeOf(byte(0)),
	"rune":    reflect.TypeOf(rune(0)),
	"bool":    reflect.TypeOf(false),
	"string":  reflect.TypeOf(""),
	"float64": reflect.TypeOf(float64(0)),
	"float32": reflect.TypeOf(float32(0)),
}

// pkgTypes resolves selector type expressions (cmem.Addr) against the
// real imported packages, so conversions are compiler-faithful.
var pkgTypes = map[string]map[string]reflect.Type{
	"cmem": {
		"Addr":  reflect.TypeOf(cmem.Addr(0)),
		"Prot":  reflect.TypeOf(cmem.Prot(0)),
		"Fault": reflect.TypeOf(cmem.Fault{}),
	},
	"csim": {
		"Process":    reflect.TypeOf(csim.Process{}),
		"OpenFD":     reflect.TypeOf(csim.OpenFD{}),
		"VFile":      reflect.TypeOf(csim.VFile{}),
		"AccessMode": reflect.TypeOf(csim.AccessMode(0)),
	},
}
