package analysis

import (
	"fmt"
	"strings"

	"healers/internal/analysis/bodyscan"
	"healers/internal/decl"
	"healers/internal/gens"
	"healers/internal/typesys"
)

// BodyPredict lowers body-level access summaries (from the bodyscan
// pass or its checked-in bodyfacts snapshot) into the same ArgPrediction
// vectors the prototype predictor produces, so the two static layers
// share one comparison and seeding path. The lowering is deliberately
// floor-seeking: where a summary's evidence is environment-dependent
// (a NUL scan over a writable buffer, a comparison whose extent tracks
// sibling content, a stream header walk), the prediction drops to the
// weakest type that every dynamic outcome still implies.
func BodyPredict(sums map[string]*bodyscan.FuncSummary, names []string) (*Prediction, error) {
	if names == nil {
		names = bodyscan.SortedNames(sums)
	}
	p := &Prediction{Funcs: make(map[string]*FuncPrediction, len(names))}
	for _, name := range names {
		fs, ok := sums[name]
		if !ok {
			return nil, fmt.Errorf("analysis: no body summary for %s", name)
		}
		fp := &FuncPrediction{Name: name}
		for i := range fs.Args {
			a := lowerArg(&fs.Args[i])
			a.Index = i
			a.Param = fs.Args[i].Param
			a.CType = fs.Args[i].CType
			fp.Args = append(fp.Args, a)
		}
		p.Funcs[name] = fp
		p.Order = append(p.Order, name)
	}
	return p, nil
}

// lowerArg maps one argument summary to a robust-type prediction plus
// injector seed hints.
func lowerArg(a *bodyscan.ArgSummary) ArgPrediction {
	// SeedReadOnly comes from the C type system, not from the probes: a
	// const-qualified pointee cannot legally be written, so the write
	// growth chains are provably dead. Probe evidence alone would be
	// unsound here — mkstemp never writes its template under the benign
	// environment (EINVAL before the Xs), yet writes it dynamically.
	constPointee := strings.Contains(a.CType, "const")

	switch a.Class {
	case gens.ClassFuncPtr:
		if a.NullOK {
			// No null-tolerant function-pointer type exists in the
			// hierarchy; decline rather than invent one.
			return unknown("null-tolerant function pointer")
		}
		return ArgPrediction{
			Robust:     decl.RobustType{Base: typesys.TypeFuncPtrU},
			Confidence: 0.95,
			Reason:     "body dispatches the callee via CallPtr",
		}
	case gens.ClassFd:
		return ArgPrediction{
			Robust:     decl.RobustType{Base: typesys.TypeFdAny},
			Confidence: 0.95,
			Reason:     "value flows into the descriptor table; errors, never faults",
		}
	case gens.ClassInt:
		return lowerInt(a)
	case gens.ClassDouble:
		return ArgPrediction{
			Robust:     decl.RobustType{Base: typesys.TypeDoubleAny},
			Confidence: 0.95,
			Reason:     "floating point: no value can fault",
		}
	}

	// Pointer-like classes: cstring, charbuf, ptr, file, dir.
	switch {
	case a.KernelOnly:
		return ArgPrediction{
			Robust:     decl.RobustType{Base: typesys.TypeUnconstrained},
			Confidence: 0.95,
			Reason:     "pointee reached only through non-faulting kernel-boundary copies",
		}
	case a.Kind == bodyscan.AccessNone:
		return ArgPrediction{
			Robust:     decl.RobustType{Base: typesys.TypeUnconstrained},
			Confidence: 0.9,
			Reason:     "body never dereferences the pointer",
		}
	}

	switch a.Class {
	case gens.ClassFile, gens.ClassDir:
		// The body walks the stream header, but how much of the object a
		// call needs (header peek vs full buffered I/O vs open-stream
		// state) is call-path-dependent; the floor every path implies is
		// "readable memory".
		return ArgPrediction{
			Robust:       nullable("R_ARRAY", 0, a.NullOK),
			Confidence:   0.8,
			Reason:       "stream header accessed; open-stream strength is call-dependent",
			SeedReadOnly: constPointee,
		}
	case gens.ClassCString:
		return lowerCString(a)
	case gens.ClassCharBuf:
		if a.CStr {
			// A NUL scan over a *writable* buffer: the dynamic campaign
			// may discover a bounded non-terminated region instead
			// (mkstemp accepts any 1-byte buffer), so the only sound
			// claim is the scan's first byte.
			return ArgPrediction{
				Robust:     nullable("R_ARRAY", 1, a.NullOK),
				Confidence: 0.6,
				Reason:     "NUL scan over writable buffer: only the first byte is guaranteed read",
				SeedSize:   1,
			}
		}
		return lowerExtent(a, constPointee)
	default: // ClassPtr
		return lowerExtent(a, constPointee)
	}
}

// lowerInt maps the boundary-integer classes onto the int hierarchy.
func lowerInt(a *bodyscan.ArgSummary) ArgPrediction {
	base, why := typesys.TypeIntAny, "boundary values -1 and 0 both terminate cleanly"
	switch a.Int {
	case bodyscan.IntNonNeg:
		base, why = typesys.TypeIntNonNeg, "-1 faults after adaptive sibling growth; 0 is clean"
	case bodyscan.IntPositive:
		base, why = typesys.TypeIntPositive, "-1 and 0 both fault after adaptive sibling growth"
	}
	return ArgPrediction{
		Robust:     decl.RobustType{Base: base},
		Confidence: 0.95,
		Reason:     why,
	}
}

// lowerCString maps const char* summaries. Three evidence levels: a
// confirmed unbounded NUL scan is CSTR; a scan whose extent tracks
// sibling *content* (strcmp-style early exit) guarantees nothing beyond
// readable memory; otherwise the minimal ""-probe extent is the floor
// every call is guaranteed to read.
func lowerCString(a *bodyscan.ArgSummary) ArgPrediction {
	switch {
	case a.CStr:
		base := typesys.TypeCString
		if a.NullOK {
			base = typesys.TypeCStringNull
		}
		return ArgPrediction{
			Robust:       decl.RobustType{Base: base},
			Confidence:   0.95,
			Reason:       "unbounded NUL scan: read runs past any unterminated region",
			SeedReadOnly: true,
		}
	case a.BoundedArg >= 0:
		return ArgPrediction{
			Robust: decl.RobustType{Base: "R_BOUNDED",
				Size: decl.SizeExpr{Kind: decl.SizeArgValue, A: a.BoundedArg}},
			Confidence:   0.9,
			Reason:       fmt.Sprintf("read capped by arg %d: oversized count over a short unterminated region faults", a.BoundedArg),
			SeedReadOnly: true,
		}
	case a.ContentDep:
		return ArgPrediction{
			Robust:       nullable("R_ARRAY", 0, a.NullOK),
			Confidence:   0.7,
			Reason:       "early-exit scan: extent moves with sibling content",
			SeedReadOnly: true,
		}
	default:
		return ArgPrediction{
			Robust:       nullable("R_ARRAY", a.MinBytes, a.NullOK),
			Confidence:   0.8,
			Reason:       fmt.Sprintf("bounded read: minimal probe still reads %d byte(s)", a.MinBytes),
			SeedSize:     a.MinBytes,
			SeedReadOnly: true,
		}
	}
}

// lowerExtent maps direct-dereference summaries (ptr and non-scanning
// charbuf classes) from the observed access kind and byte extent.
func lowerExtent(a *bodyscan.ArgSummary, constPointee bool) ArgPrediction {
	if a.Shape == bodyscan.ShapeUnbounded {
		return unknown("access ran past every probed bound")
	}
	var base string
	switch a.Kind {
	case bodyscan.AccessRead:
		base = "R_ARRAY"
	case bodyscan.AccessWrite:
		base = "W_ARRAY"
	default:
		base = "RW_ARRAY"
	}
	ext := a.Extent()
	if a.Expr != nil {
		// The extent followed a sibling expression under perturbation:
		// predict the expression-sized type the dynamic campaign fits.
		if a.NullOK {
			base += "_NULL"
		}
		return ArgPrediction{
			Robust:       decl.RobustType{Base: base, Size: *a.Expr},
			Confidence:   0.9,
			Reason:       fmt.Sprintf("%s access tracking %s: %d bytes under the benign environment", a.Kind, a.Expr, ext),
			SeedSize:     ext,
			SeedReadOnly: constPointee,
		}
	}
	return ArgPrediction{
		Robust:       nullable(base, ext, a.NullOK),
		Confidence:   0.9,
		Reason:       fmt.Sprintf("%s access of %d bytes, %s-bounded", a.Kind, ext, a.Shape),
		SeedSize:     ext,
		SeedReadOnly: constPointee,
	}
}

// nullable builds a fixed-size array type, switching to the _NULL
// variant when the body null-checks before the first dereference.
func nullable(base string, n int, nullOK bool) decl.RobustType {
	if nullOK {
		base += "_NULL"
	}
	return fixed(base, n)
}
