// Package wrapgen emits the robustness wrapper as C source, in the
// shape of the paper's Figure 5: for every unsafe function a wrapped
// definition with the recursion flag, per-argument robust-type checks,
// the errno/error-value rejection path, and the call through the saved
// libc function pointer. A real deployment compiles this into the
// interposing shared object; in this reproduction it is the reviewable
// artifact corresponding to the runtime interposer in package wrapper.
package wrapgen

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"healers/internal/csim"
	"healers/internal/decl"
)

// Options tune emission.
type Options struct {
	// AbortOnViolation emits abort() instead of the error return (the
	// debugging-phase wrapper of §2).
	AbortOnViolation bool
	// Mode selects the wrapper strategy the emitted C implements:
	// "" or "reject" (the paper's Figure 5, byte-identical to the
	// pre-mode generator), "heal" (failed checks fall through to the
	// healers_heal_* repair helpers and the call proceeds when a repair
	// succeeds), or "introspect" (failed array checks consult the
	// allocation table through healers_introspect before rejecting).
	Mode string
}

// File renders a complete wrapper translation unit for every unsafe
// declaration in the set, sorted by name.
func File(set *decl.DeclSet, opts Options) string {
	var b strings.Builder
	b.WriteString(prelude)
	names := make([]string, 0, len(set.ByName))
	for n := range set.ByName {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		d := set.ByName[n]
		if !d.Unsafe() {
			continue
		}
		b.WriteString("\n")
		b.WriteString(Function(d, opts))
	}
	return b.String()
}

const prelude = `/* Generated by HEALERS wrapgen — do not edit. */
#include <errno.h>
#include "healers_checks.h"

static __thread int in_flag;
`

// Function renders one wrapped function (Figure 5).
func Function(d *decl.FuncDecl, opts Options) string {
	var b strings.Builder

	params := make([]string, len(d.Args))
	names := make([]string, len(d.Args))
	for i, a := range d.Args {
		names[i] = fmt.Sprintf("a%d", i+1)
		params[i] = fmt.Sprintf("%s %s", a.CType, names[i])
	}
	paramList := strings.Join(params, ", ")
	if paramList == "" {
		paramList = "void"
	}
	argList := strings.Join(names, ", ")

	retDecl := d.Ret
	isVoid := retDecl == "void"

	fmt.Fprintf(&b, "static %s (*libc_%s)(%s);\n\n", retDecl, d.Name, paramList)
	fmt.Fprintf(&b, "%s %s(%s)\n{\n", retDecl, d.Name, paramList)
	if !isVoid {
		fmt.Fprintf(&b, "\t%s ret;\n", retDecl)
	}
	fmt.Fprintf(&b, "\tif (in_flag) {\n")
	if isVoid {
		fmt.Fprintf(&b, "\t\t(*libc_%s)(%s);\n\t\treturn;\n", d.Name, argList)
	} else {
		fmt.Fprintf(&b, "\t\treturn (*libc_%s)(%s);\n", d.Name, argList)
	}
	fmt.Fprintf(&b, "\t}\n\tin_flag = 1;\n")

	reject := func(indent string) {
		fmt.Fprintf(&b, "%shealers_log_violation(\"%s\");\n", indent, d.Name)
		if opts.AbortOnViolation {
			fmt.Fprintf(&b, "%sabort();\n", indent)
		} else {
			fmt.Fprintf(&b, "%serrno = %s;\n", indent, errnoExpr(d.ErrnoOnReject))
			if !isVoid {
				fmt.Fprintf(&b, "%sret = (%s)%s;\n", indent, retDecl, errorValueExpr(d))
			}
			fmt.Fprintf(&b, "%sgoto PostProcessing;\n", indent)
		}
	}

	for i, a := range d.Args {
		check := CheckExpr(a.Robust, names[i], names)
		if check == "" {
			continue
		}
		switch opts.Mode {
		case "heal":
			if a.RepairFamily() == decl.FamilyInt {
				// Integer repairs cannot fail: assigning the nearest
				// value inside the set replaces the rejection path.
				fmt.Fprintf(&b, "\tif (!%s) {\n\t\t%s = (%s)%d;\n\t}\n",
					check, names[i], a.CType, a.Robust.Kind().Signs.Clamp())
				continue
			}
			if heal := healExpr(a, names[i], names); heal != "" {
				fmt.Fprintf(&b, "\tif (!%s) {\n\t\tif (!%s) {\n", check, heal)
				reject("\t\t\t")
				fmt.Fprintf(&b, "\t\t}\n\t}\n")
				continue
			}
		case "introspect":
			if a.Robust.Kind().Family == decl.FamilyArray {
				fmt.Fprintf(&b, "\tif (!%s && !healers_introspect((const void *)%s)) {\n", check, names[i])
				reject("\t\t")
				fmt.Fprintf(&b, "\t}\n")
				continue
			}
		}
		fmt.Fprintf(&b, "\tif (!%s) {\n", check)
		reject("\t\t")
		fmt.Fprintf(&b, "\t}\n")
	}
	for _, assertion := range d.Assertions {
		for i, a := range d.Args {
			expr := assertionExpr(assertion, a, names[i])
			if expr == "" {
				continue
			}
			if opts.Mode == "heal" && assertion == decl.AssertFileIntegrity {
				fmt.Fprintf(&b, "\tif (!%s) {\n\t\tif (!healers_heal_file((FILE **)&%s) || !%s) {\n",
					expr, names[i], expr)
				reject("\t\t\t")
				fmt.Fprintf(&b, "\t\t}\n\t}\n")
				continue
			}
			fmt.Fprintf(&b, "\tif (!%s) {\n", expr)
			reject("\t\t")
			fmt.Fprintf(&b, "\t}\n")
		}
	}

	if isVoid {
		fmt.Fprintf(&b, "\t(*libc_%s)(%s);\n", d.Name, argList)
	} else {
		fmt.Fprintf(&b, "\tret = (*libc_%s)(%s);\n", d.Name, argList)
	}
	fmt.Fprintf(&b, "PostProcessing: ;\n\tin_flag = 0;\n")
	if isVoid {
		fmt.Fprintf(&b, "\treturn;\n}\n")
	} else {
		fmt.Fprintf(&b, "\treturn ret;\n}\n")
	}
	return b.String()
}

// CheckExpr renders the C expression validating one argument against
// its robust type; empty means the type needs no check. Integers
// compare inline against zero; every other constrained family calls
// check_<Base>, passing the size when the type is parameterized. The
// static wrapper verifier in internal/analysis uses it to assert each
// emitted wrapper contains exactly one check per constrained argument;
// keeping a single source of truth means the verifier can never drift
// from the generator.
func CheckExpr(rt decl.RobustType, arg string, names []string) string {
	k := rt.Kind()
	switch {
	case k.Family == decl.FamilyUnconstrained:
		return ""
	case k.Family == decl.FamilyInt:
		if op := signOps[k.Signs]; op != "" {
			return fmt.Sprintf("((long)%s %s 0)", arg, op)
		}
		return ""
	case rt.Parameterized():
		return fmt.Sprintf("check_%s(%s, %s)", rt.Base, arg, sizeExprC(rt.Size, names))
	}
	return fmt.Sprintf("check_%s(%s)", rt.Base, arg)
}

// signOps renders a sign set as the comparison against zero that
// admits it; every sign allowed needs no comparison.
var signOps = [...]string{
	decl.SignPos:                 ">",
	decl.SignZero | decl.SignPos: ">=",
	decl.SignNeg | decl.SignZero: "<=",
	decl.SignNeg:                 "<",
	decl.SignsAll:                "",
}

// healExpr renders the repair call for heal mode; empty means the type
// is unrepairable and the wrapper keeps the rejection path (DIR streams
// and anything the runtime refuses to conjure).
func healExpr(a decl.ArgDecl, name string, names []string) string {
	switch a.RepairFamily() {
	case decl.FamilyArray:
		return fmt.Sprintf("healers_heal_array((void **)&%s, %s)", name, sizeExprC(a.Robust.Size, names))
	case decl.FamilyBounded:
		return fmt.Sprintf("healers_heal_string((char **)&%s, %s)", name, sizeExprC(a.Robust.Size, names))
	case decl.FamilyCString:
		return fmt.Sprintf("healers_heal_string((char **)&%s, HEALERS_MAX_STRLEN)", name)
	case decl.FamilyFILE:
		return fmt.Sprintf("healers_heal_file((FILE **)&%s)", name)
	case decl.FamilyFD:
		return fmt.Sprintf("healers_heal_fd(&%s)", name)
	case decl.FamilyFunc:
		return fmt.Sprintf("healers_heal_func((void **)&%s)", name)
	}
	return ""
}

// sizeExprC renders a size expression as C.
func sizeExprC(e decl.SizeExpr, names []string) string {
	argName := func(i int) string {
		if i >= 0 && i < len(names) {
			return names[i]
		}
		return fmt.Sprintf("a%d", i+1)
	}
	switch e.Kind {
	case decl.SizeFixed:
		return fmt.Sprintf("%d", e.N)
	case decl.SizeStrlenPlus1:
		return fmt.Sprintf("healers_strlen(%s) + 1", argName(e.A))
	case decl.SizeArgValue:
		return fmt.Sprintf("(size_t)%s", argName(e.A))
	case decl.SizeArgProduct:
		return fmt.Sprintf("(size_t)%s * (size_t)%s", argName(e.A), argName(e.B))
	case decl.SizeStrlenSumPlus1:
		return fmt.Sprintf("healers_strlen(%s) + healers_strlen(%s) + 1", argName(e.A), argName(e.B))
	case decl.SizeMinStrlenP1N:
		return fmt.Sprintf("healers_min(healers_strlen(%s) + 1, (size_t)%s)", argName(e.A), argName(e.B))
	case decl.SizeMinStrlenNP1:
		return fmt.Sprintf("healers_min(healers_strlen(%s), (size_t)%s) + 1", argName(e.A), argName(e.B))
	}
	return "0"
}

// assertionExpr renders an executable assertion for a matching argument.
func assertionExpr(a decl.Assertion, arg decl.ArgDecl, name string) string {
	switch a {
	case decl.AssertValidDir:
		if arg.PointsToDIR() {
			return fmt.Sprintf("healers_valid_dir(%s)", name)
		}
	case decl.AssertFileIntegrity:
		if arg.PointsToFILE() {
			return fmt.Sprintf("healers_file_integrity(%s)", name)
		}
	}
	return ""
}

func errorValueExpr(d *decl.FuncDecl) string {
	if !d.HasErrorValue {
		return "0"
	}
	switch d.ErrorValue {
	case 0:
		if strings.HasSuffix(d.Ret, "*") {
			return "NULL"
		}
		return "0"
	case ^uint64(0):
		return "-1"
	}
	return fmt.Sprintf("%d", int64(d.ErrorValue))
}

// errnoExpr is the C expression for errno value e: its name, or the
// number for a value without one.
func errnoExpr(e int) string {
	if name := csim.ErrnoName(e); !strings.HasPrefix(name, "E#") {
		return name
	}
	return strconv.Itoa(e)
}
