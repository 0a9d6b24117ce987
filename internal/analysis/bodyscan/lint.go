package bodyscan

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
)

// Repo-local AST lint: two rules, both guarding invariants the test
// suite cannot see directly:
//
//   - cmem encapsulation: the page table and heap cursors of the
//     simulated address space (fields pages/heapCursor/mmapCursor, and
//     Mem.heap) may only be touched inside internal/cmem. Everything
//     else must go through the fault-checked Load/Store/Map API — a
//     direct field poke would bypass the fault checks and the memory
//     recorder the whole injection methodology rests on.
//
//   - injector determinism: internal/injector must not read wall-clock
//     time or math/rand in non-test code. Campaign results are golden-
//     file-compared byte-for-byte; a nondeterministic probe choice
//     would surface as unreproducible vectors. Timing used only for
//     duration metrics is waived explicitly with a trailing or
//     preceding comment:
//
//     //healers:allow-nondeterminism <reason>
//
// The waiver requires a reason; a bare marker is itself a violation.

// allowMarker is the waiver comment prefix for the determinism rule.
const allowMarker = "healers:allow-nondeterminism"

// cmemFieldDeny are the address-space internals no package outside
// internal/cmem may select. "heap" alone collides with unrelated
// fields (the wrapper's allocation table), so it is only denied when
// selected through a ".Mem" receiver.
var cmemFieldDeny = map[string]bool{
	"pages":      true,
	"heapCursor": true,
	"mmapCursor": true,
}

// LintRepo walks every .go file under root and returns the rule
// violations, one "path:line: message" string each, sorted.
func LintRepo(root string) ([]string, error) {
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if name == "testdata" || strings.HasPrefix(name, ".") && path != root {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var out []string
	fset := token.NewFileSet()
	for _, path := range files {
		rel, err := filepath.Rel(root, path)
		if err != nil {
			rel = path
		}
		file, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: %s: %w", rel, err)
		}
		out = append(out, LintFile(fset, file, filepath.ToSlash(rel))...)
	}
	sort.Strings(out)
	return out, nil
}

// LintFile applies the repo lint rules to one parsed file. rel is the
// slash-separated repo-relative path used both for rule scoping and in
// the reported violations.
func LintFile(fset *token.FileSet, file *ast.File, rel string) []string {
	var out []string
	report := func(pos token.Pos, format string, args ...any) {
		p := fset.Position(pos)
		out = append(out, fmt.Sprintf("%s:%d: %s", rel, p.Line, fmt.Sprintf(format, args...)))
	}

	inCmem := strings.HasPrefix(rel, "internal/cmem/")
	inInjector := strings.HasPrefix(rel, "internal/injector/")
	isTest := strings.HasSuffix(rel, "_test.go")

	// Lines carrying a waiver (the marker plus a reason). A marker
	// without a reason is reported where it stands.
	waived := map[int]bool{}
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			idx := strings.Index(c.Text, allowMarker)
			if idx < 0 {
				continue
			}
			reason := strings.TrimSpace(c.Text[idx+len(allowMarker):])
			if reason == "" {
				report(c.Pos(), "%s waiver requires a reason", allowMarker)
				continue
			}
			waived[fset.Position(c.Pos()).Line] = true
		}
	}
	allowed := func(pos token.Pos) bool {
		line := fset.Position(pos).Line
		return waived[line] || waived[line-1]
	}

	ast.Inspect(file, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if !inCmem {
			if cmemFieldDeny[sel.Sel.Name] {
				report(sel.Sel.Pos(), "direct access to cmem address-space field %q outside internal/cmem; use the fault-checked Memory API", sel.Sel.Name)
			}
			if sel.Sel.Name == "heap" {
				if recv, ok := sel.X.(*ast.SelectorExpr); ok && recv.Sel.Name == "Mem" {
					report(sel.Sel.Pos(), "direct access to cmem heap state outside internal/cmem; use the fault-checked Memory API")
				}
			}
		}
		if inInjector && !isTest {
			if x, ok := sel.X.(*ast.Ident); ok {
				if x.Name == "time" && sel.Sel.Name == "Now" && !allowed(sel.Pos()) {
					report(sel.Pos(), "time.Now in internal/injector: campaigns must be deterministic (waive with //%s <reason>)", allowMarker)
				}
				if x.Name == "rand" && !allowed(sel.Pos()) {
					report(sel.Pos(), "math/rand in internal/injector: campaigns must be deterministic (waive with //%s <reason>)", allowMarker)
				}
			}
		}
		return true
	})
	return out
}
