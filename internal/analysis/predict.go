// Package analysis is the static robust-type pre-inference layer: it
// predicts robust argument types from prototypes alone (cparse trees
// plus man-page-derived facts), seeds the fault injector so adaptive
// exploration starts where the prediction points, and statically
// verifies the C source wrapgen emits. The predictions are deliberately
// conservative — a static type must never be stronger than what dynamic
// injection discovers (that would make the wrapper reject calls the
// library survives), so anything the lattice cannot justify statically
// is an explicit UNKNOWN rather than a guess.
package analysis

import (
	"fmt"
	"sort"
	"strings"

	"healers/internal/cparse"
	"healers/internal/decl"
	"healers/internal/extract"
	"healers/internal/gens"
	"healers/internal/injector"
	"healers/internal/typesys"
)

// ArgPrediction is the static prediction for one argument.
type ArgPrediction struct {
	// Index is the zero-based argument position.
	Index int
	// Param is the declared parameter name ("" when the header omits it).
	Param string
	// CType is the parameter's C type as spelled in the prototype.
	CType string
	// Robust is the predicted robust type; zero-valued when Unknown.
	Robust decl.RobustType
	// Unknown marks arguments the lattice cannot justify statically
	// (dependent sizes, path strings that may fail before traversal...).
	Unknown bool
	// Confidence in (0,1]: how strongly the prototype evidence supports
	// the prediction. Purely informational — soundness comes from the
	// rules, not the score.
	Confidence float64
	// Reason is the one-line justification shown in the analyze table.
	Reason string

	// SeedSize, when positive, is the injector hint: start adaptive
	// array growth at this size. Set only where the size is a whole
	// object whose extent the function plausibly touches (return-fed
	// structs, streams, scalar out-parameters) — a wrong hint costs
	// probes, so the predictor seeds less than it predicts.
	SeedSize int
	// SeedReadOnly tells the injector the function cannot legally write
	// through the pointer (const-qualified pointee), so the write
	// growth chains can be skipped.
	SeedReadOnly bool
}

// Predicted renders the predicted type for tables ("?" when unknown).
func (a *ArgPrediction) Predicted() string {
	if a.Unknown {
		return "?"
	}
	return a.Robust.String()
}

// FuncPrediction is the static type vector of one function.
type FuncPrediction struct {
	Name string
	Args []ArgPrediction
}

// Prediction is the static pass output over a function set.
type Prediction struct {
	Funcs map[string]*FuncPrediction
	// Order is the sorted function name list.
	Order []string
}

// Seeds converts the predictions into injector hints. Functions whose
// arguments carry no usable hint are omitted entirely.
func (p *Prediction) Seeds() injector.Seeds {
	out := make(injector.Seeds, len(p.Funcs))
	for name, fp := range p.Funcs {
		args := make([]injector.ArgSeed, len(fp.Args))
		usable := false
		for i, a := range fp.Args {
			args[i] = injector.ArgSeed{Size: a.SeedSize, ReadOnly: a.SeedReadOnly}
			if a.SeedSize > 0 || a.SeedReadOnly {
				usable = true
			}
		}
		if usable {
			out[name] = args
		}
	}
	return out
}

// Predict runs the prototype-based prediction pass over the named
// functions (which must all have extracted prototypes). names nil means
// every external function with a prototype.
func Predict(ext *extract.Result, names []string) (*Prediction, error) {
	if names == nil {
		for _, fi := range ext.Funcs {
			if !fi.Internal && fi.Proto != nil {
				names = append(names, fi.Symbol.Name)
			}
		}
	}
	rf := returnFedStructs(ext)
	p := &Prediction{Funcs: make(map[string]*FuncPrediction, len(names))}
	for _, name := range names {
		fi, ok := ext.Lookup(name)
		if !ok || fi.Proto == nil {
			return nil, fmt.Errorf("analysis: %s has no extracted prototype", name)
		}
		fp := &FuncPrediction{Name: name}
		for i, param := range fi.Proto.Params {
			a := predictArg(fi.Proto, i, param, ext.Table, rf)
			a.Index = i
			a.Param = param.Name
			a.CType = param.Type.String()
			fp.Args = append(fp.Args, a)
		}
		p.Funcs[name] = fp
		p.Order = append(p.Order, name)
	}
	sort.Strings(p.Order)
	return p, nil
}

// returnFedStructs collects struct tags that appear as pointer return
// types anywhere in the corpus. A struct the library hands back by
// pointer (struct tm from gmtime) is one whose full extent the library
// itself reads and writes, so sizeof is a defensible minimal size for
// arguments of that type; structs only ever passed in (struct termios)
// may be touched partially and get the size-0 floor instead —
// cfsetispeed really accesses 52 of termios's 56 bytes.
func returnFedStructs(ext *extract.Result) map[string]bool {
	out := make(map[string]bool)
	for _, fi := range ext.Funcs {
		if fi.Proto == nil {
			continue
		}
		r := fi.Proto.Ret
		if r != nil && r.Kind == cparse.KindPointer && r.Elem != nil && r.Elem.Kind == cparse.KindStruct {
			out[r.Elem.Struct] = true
		}
	}
	return out
}

// fixed builds a fixed-size robust type.
func fixed(base string, n int) decl.RobustType {
	return decl.RobustType{Base: base, Size: decl.SizeExpr{Kind: decl.SizeFixed, N: n}}
}

func unknown(reason string) ArgPrediction {
	return ArgPrediction{Unknown: true, Reason: reason}
}

// pathParamNames are parameter names that denote filesystem paths. A
// path argument's dynamic robust type depends on how far the lookup
// machinery walks the string before failing — fopen turns out
// UNCONSTRAINED because a bad mode string rejects the call before the
// path is ever dereferenced — so paths are statically undecidable.
var pathParamNames = map[string]bool{
	"path": true, "pathname": true, "filename": true, "file": true,
	"name": true, "dirname": true, "template": true,
	"oldpath": true, "newpath": true, "old": true, "new": true,
}

// nullTolerantStrings records man-page facts: functions documented to
// accept a NULL pointer for a const char* argument (index keyed).
// perror(NULL) prints the bare errno message.
var nullTolerantStrings = map[string]map[int]bool{
	"perror": {0: true},
}

// manPageOverride holds per-function facts lifted from manual-page
// semantics that defeat the purely structural rules. Two shapes recur:
// buffers only touched after a descriptor check succeeds (read/write
// return EBADF without dereferencing buf), and early-exit scans that
// may read a single byte of a "string" before returning (strcmp stops
// at the first differing byte, so an unterminated one-byte region is a
// legal argument and a CSTR check would over-reject).
func manPageOverride(fn string, idx int) (ArgPrediction, bool) {
	switch fn {
	case "read", "write":
		if idx == 1 {
			return unknown("buffer touched only after descriptor validation"), true
		}
	case "strcmp", "strcoll":
		if idx == 0 || idx == 1 {
			return ArgPrediction{
				Robust:       fixed("R_ARRAY_NULL", 0),
				Confidence:   0.6,
				Reason:       "early-exit scan: may read only a prefix of the string",
				SeedReadOnly: true,
			}, true
		}
	case "strspn":
		if idx == 0 {
			return ArgPrediction{
				Robust:       fixed("R_ARRAY_NULL", 0),
				Confidence:   0.6,
				Reason:       "early-exit scan: may read only a prefix of the string",
				SeedReadOnly: true,
			}, true
		}
	}
	return ArgPrediction{}, false
}

// predictArg applies the per-kind prediction rules.
func predictArg(proto *cparse.Prototype, idx int, param cparse.Param, table *cparse.TypeTable, returnFed map[string]bool) ArgPrediction {
	if a, ok := manPageOverride(proto.Name, idx); ok {
		return a
	}
	switch gens.Classify(param) {
	case gens.ClassFuncPtr:
		return ArgPrediction{
			Robust:     decl.RobustType{Base: typesys.TypeFuncPtrU},
			Confidence: 0.7,
			Reason:     "function pointer: callee will be invoked",
		}
	case gens.ClassFd:
		return ArgPrediction{
			Robust:     decl.RobustType{Base: typesys.TypeFdAny},
			Confidence: 0.9,
			Reason:     "descriptor-named int: errors, never crashes",
		}
	case gens.ClassInt:
		if param.Type.Kind != cparse.KindInt {
			return unknown("unhandled parameter kind")
		}
		return ArgPrediction{
			Robust:     decl.RobustType{Base: typesys.TypeIntAny},
			Confidence: 0.9,
			Reason:     "plain integer: weakest int type is always sound",
		}
	case gens.ClassDouble:
		return ArgPrediction{
			Robust:     decl.RobustType{Base: typesys.TypeDoubleAny},
			Confidence: 0.9,
			Reason:     "floating point: no value can fault",
		}
	case gens.ClassFile:
		// Query functions (feof, ftell...) read only the stream header
		// and reject garbage via the magic word, so the strongest claim
		// every FILE* argument supports is "readable memory".
		return ArgPrediction{
			Robust:     fixed("R_ARRAY_NULL", 0),
			Confidence: 0.6,
			Reason:     "FILE*: header at least readable; open-stream strength is call-dependent",
		}
	case gens.ClassDir:
		size := table.Sizeof(param.Type.Elem)
		return ArgPrediction{
			Robust:     fixed("RW_ARRAY_NULL", size),
			Confidence: 0.8,
			Reason:     "DIR*: stream object accessed in place",
			SeedSize:   size,
		}
	case gens.ClassCString, gens.ClassCharBuf:
		return predictString(proto, idx, param, param.Type.Elem)
	default: // gens.ClassPtr
		return predictPointer(param.Type.Elem, table, returnFed)
	}
}

// predictPointer is the rule table for the generic pointer class: a
// struct, void, or one scalar element.
func predictPointer(elem *cparse.CType, table *cparse.TypeTable, returnFed map[string]bool) ArgPrediction {
	switch {
	case elem.Kind == cparse.KindStruct:
		size := table.Sizeof(elem)
		if elem.Const {
			a := ArgPrediction{Confidence: 0.8, SeedReadOnly: true}
			if returnFed[elem.Struct] && size > 0 {
				a.Robust = fixed("R_ARRAY_NULL", size)
				a.Reason = fmt.Sprintf("const struct %s*: read-only, return-fed, sizeof=%d", elem.Struct, size)
				a.SeedSize = size
			} else {
				a.Robust = fixed("R_ARRAY_NULL", 0)
				a.Reason = fmt.Sprintf("const struct %s*: read-only, extent unknown", elem.Struct)
			}
			return a
		}
		if returnFed[elem.Struct] && size > 0 {
			return ArgPrediction{
				Robust:     fixed("RW_ARRAY_NULL", size),
				Confidence: 0.7,
				Reason:     fmt.Sprintf("struct %s*: writable, return-fed, sizeof=%d", elem.Struct, size),
				SeedSize:   size,
			}
		}
		return ArgPrediction{
			Robust:     fixed("W_ARRAY_NULL", 0),
			Confidence: 0.5,
			Reason:     fmt.Sprintf("struct %s*: writable, partial access possible", elem.Struct),
		}
	case elem.Kind == cparse.KindVoid:
		if elem.Const {
			return ArgPrediction{
				Robust:       fixed("R_ARRAY_NULL", 0),
				Confidence:   0.5,
				Reason:       "const void*: read-only, size argument-dependent",
				SeedReadOnly: true,
			}
		}
		return ArgPrediction{
			Robust:     fixed("W_ARRAY_NULL", 0),
			Confidence: 0.5,
			Reason:     "void*: writable, size argument-dependent",
		}
	default:
		// Scalar and pointer element types: the object is exactly one
		// element (time_t in-value, char** out-pointer).
		size := table.Sizeof(elem)
		if size <= 0 {
			return unknown("element size unknown")
		}
		if elem.Const {
			return ArgPrediction{
				Robust:       fixed("R_ARRAY_NULL", size),
				Confidence:   0.8,
				Reason:       fmt.Sprintf("const %s*: one element read, sizeof=%d", elem.Name, size),
				SeedSize:     size,
				SeedReadOnly: true,
			}
		}
		return ArgPrediction{
			Robust:     fixed("W_ARRAY_NULL", size),
			Confidence: 0.6,
			Reason:     fmt.Sprintf("%s*: one element written, sizeof=%d", elem.Name, size),
			SeedSize:   size,
		}
	}
}

// predictString handles char pointers. Only const char* supports a
// static claim (the function may read the string but cannot write it);
// even then bounded reads and path lookups defeat the plain-CSTR rule.
func predictString(proto *cparse.Prototype, idx int, param cparse.Param, elem *cparse.CType) ArgPrediction {
	if !elem.Const {
		return unknown("char*: output buffer, extent depends on call values")
	}
	if pathParamNames[param.Name] {
		return unknown("path string: lookup may fail before full traversal")
	}
	if boundedReadFunc(proto.Name) {
		return unknown("length-bounded read: R_BOUNDED extent is argument-dependent")
	}
	base := "CSTR"
	reason := "const char*: NUL-terminated read"
	if nullTolerantStrings[proto.Name][idx] {
		base = "CSTR_NULL"
		reason = "const char*: NUL-terminated read, man page permits NULL"
	}
	return ArgPrediction{
		Robust:       decl.RobustType{Base: base},
		Confidence:   0.7,
		Reason:       reason,
		SeedReadOnly: true,
	}
}

// boundedReadFunc reports functions whose string reads are bounded by
// a count argument (strncmp reads min(strlen, n)); their dynamic type
// is R_BOUNDED[argN], which no fixed static type soundly under-claims.
func boundedReadFunc(name string) bool {
	return strings.HasPrefix(name, "strn") || strings.HasPrefix(name, "mem")
}
