package bodyscan

import (
	"fmt"
	"go/format"
	"strings"

	"healers/internal/decl"
)

// GenGo renders a summary map as the source of the checked-in
// internal/analysis/bodyfacts package. The output is deterministic
// (functions and fields in fixed order), so CI can regenerate it and
// fail on any diff — the drift gate that keeps the committed facts in
// sync with the clib source they were scanned from.
func GenGo(sums map[string]*FuncSummary) []byte {
	var b strings.Builder
	b.WriteString(`// Code generated by cmd/bodyscan; DO NOT EDIT.

// Package bodyfacts holds the checked-in body-level access summaries
// for the simulated C library, produced by the bodyscan static pass
// over the internal/clib source. Regenerate with:
//
//	go run ./cmd/bodyscan -out internal/analysis/bodyfacts/facts.go
//
// CI regenerates and diffs this file (make bodyfacts-check), so it can
// never drift from the clib bodies it summarizes.
package bodyfacts

import (
	"healers/internal/analysis/bodyscan"
	"healers/internal/decl"
)

// Facts returns the committed summaries keyed by function name. The
// map and its summaries are shared: callers must not mutate them.
func Facts() map[string]*bodyscan.FuncSummary { return facts }

var facts = map[string]*bodyscan.FuncSummary{
`)
	for _, name := range SortedNames(sums) {
		f := sums[name]
		fmt.Fprintf(&b, "\t%q: {\n", name)
		fmt.Fprintf(&b, "\t\tName: %q, Proto: %q, NArgs: %d,\n", f.Name, f.Proto, f.NArgs)
		if len(f.Args) > 0 {
			b.WriteString("\t\tArgs: []bodyscan.ArgSummary{\n")
			for i := range f.Args {
				fmt.Fprintf(&b, "\t\t\t%s,\n", genArg(&f.Args[i]))
			}
			b.WriteString("\t\t},\n")
		}
		if len(f.Errnos) > 0 {
			fmt.Fprintf(&b, "\t\tErrnos: %s,\n", genStrings(f.Errnos))
		}
		if f.Aborts {
			b.WriteString("\t\tAborts: true,\n")
		}
		if len(f.Calls) > 0 {
			fmt.Fprintf(&b, "\t\tCalls: %s,\n", genStrings(f.Calls))
		}
		b.WriteString("\t},\n")
	}
	b.WriteString("}\n")
	src := []byte(b.String())
	if formatted, err := format.Source(src); err == nil {
		src = formatted
	}
	return src
}

func genStrings(ss []string) string {
	parts := make([]string, len(ss))
	for i, s := range ss {
		parts[i] = fmt.Sprintf("%q", s)
	}
	return "[]string{" + strings.Join(parts, ", ") + "}"
}

func genArg(a *ArgSummary) string {
	var f []string
	add := func(format string, args ...any) { f = append(f, fmt.Sprintf(format, args...)) }
	add("Index: %d", a.Index)
	add("Param: %q", a.Param)
	add("CType: %q", a.CType)
	add("Class: %q", a.Class)
	if a.Kind != AccessNone {
		add("Kind: bodyscan.Access%s", map[AccessKind]string{AccessRead: "Read", AccessWrite: "Write", AccessRW: "RW"}[a.Kind])
	}
	if a.Shape != ShapeNone {
		add("Shape: bodyscan.Shape%s", map[BoundShape]string{
			ShapeConst: "Const", ShapeArg: "Arg", ShapeScan: "Scan",
			ShapeStruct: "Struct", ShapeUnbounded: "Unbounded",
		}[a.Shape])
	}
	if a.ReadBytes != 0 {
		add("ReadBytes: %d", a.ReadBytes)
	}
	if a.WriteBytes != 0 {
		add("WriteBytes: %d", a.WriteBytes)
	}
	if a.MinBytes != 0 {
		add("MinBytes: %d", a.MinBytes)
	}
	add("BoundArg: %d", a.BoundArg)
	if a.Expr != nil {
		add("Expr: &decl.SizeExpr{Kind: decl.%s, N: %d, A: %d, B: %d}", sizeKindName(a.Expr.Kind), a.Expr.N, a.Expr.A, a.Expr.B)
	}
	add("BoundedArg: %d", a.BoundedArg)
	for _, bf := range []struct {
		set  bool
		name string
	}{
		{a.NullOK, "NullOK"}, {a.KernelOnly, "KernelOnly"}, {a.CStr, "CStr"},
		{a.ContentDep, "ContentDep"}, {a.FD, "FD"}, {a.FuncPtr, "FuncPtr"},
	} {
		if bf.set {
			add("%s: true", bf.name)
		}
	}
	if a.Int != IntNone {
		add("Int: bodyscan.Int%s", map[IntClass]string{IntAny: "Any", IntNonNeg: "NonNeg", IntPositive: "Positive"}[a.Int])
	}
	return "{" + strings.Join(f, ", ") + "}"
}

func sizeKindName(k decl.SizeKind) string {
	switch k {
	case decl.SizeFixed:
		return "SizeFixed"
	case decl.SizeStrlenPlus1:
		return "SizeStrlenPlus1"
	case decl.SizeArgValue:
		return "SizeArgValue"
	case decl.SizeArgProduct:
		return "SizeArgProduct"
	case decl.SizeStrlenSumPlus1:
		return "SizeStrlenSumPlus1"
	case decl.SizeMinStrlenP1N:
		return "SizeMinStrlenP1N"
	case decl.SizeMinStrlenNP1:
		return "SizeMinStrlenNP1"
	}
	return fmt.Sprintf("SizeKind(%d)", k)
}
