package bodyscan

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"

	"healers/internal/clib"
)

// regEntry is one compiled library function paired with the syntax of
// its body.
type regEntry struct {
	*clib.Func
	body *ast.BlockStmt
}

// program is a compiled library and its source: the registry the
// probes run, in registration order, and the package-level functions
// the syntactic pass follows helper calls into.
type program struct {
	registry map[string]*regEntry
	regOrder []string
	funcs    map[string]*ast.FuncDecl
}

// srcLine is a source position at line granularity: a file's base name
// and a line in it.
type srcLine struct {
	file string
	line int
}

// loadProgram parses every non-test Go file in dir and pairs each of
// funcs with its body: the one function literal that starts at the file
// and line runtime.FuncForPC gives for the Impl's code. Nothing is
// interpreted; the registry is the compiled library's own.
func loadProgram(dir string, funcs []*clib.Func) (*program, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("bodyscan: %w", err)
	}
	pr := &program{registry: map[string]*regEntry{}, funcs: map[string]*ast.FuncDecl{}}
	fset := token.NewFileSet()
	lits := map[srcLine][]*ast.FuncLit{}
	for _, e := range entries {
		n := e.Name()
		if !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, n), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("bodyscan: %w", err)
		}
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil {
				pr.funcs[fd.Name.Name] = fd
			}
		}
		ast.Inspect(f, func(nd ast.Node) bool {
			if fl, ok := nd.(*ast.FuncLit); ok {
				at := srcLine{n, fset.Position(fl.Pos()).Line}
				lits[at] = append(lits[at], fl)
			}
			return true
		})
	}

	for _, f := range funcs {
		if _, dup := pr.registry[f.Name]; dup {
			return nil, fmt.Errorf("bodyscan: %s registered twice", f.Name)
		}
		if f.Impl == nil {
			return nil, fmt.Errorf("bodyscan: %s has no Impl", f.Name)
		}
		fn := runtime.FuncForPC(reflect.ValueOf(f.Impl).Pointer())
		file, line := fn.FileLine(fn.Entry())
		at := srcLine{filepath.Base(file), line}
		if cands := lits[at]; len(cands) != 1 {
			return nil, fmt.Errorf("bodyscan: %s: %d function literals at %s:%d in %s, want its Impl alone",
				f.Name, len(cands), at.file, at.line, dir)
		}
		pr.registry[f.Name] = &regEntry{Func: f, body: lits[at][0].Body}
		pr.regOrder = append(pr.regOrder, f.Name)
	}
	return pr, nil
}
