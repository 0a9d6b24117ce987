package bodyscan

import (
	"go/ast"
	"go/token"
	"sort"
	"strconv"
)

// fnFacts are the syntactic facts of one registered function: which
// errno constants its body (or anything it calls) can set, whether it
// can reach abort, and its direct l.Call edges. Errnos and aborts are
// propagated over the call graph to a fixpoint — the "dataflow by
// fixpoint" half of the pass that needs no concrete execution.
type fnFacts struct {
	errnos map[string]bool
	aborts bool
	calls  map[string]bool
	// dynamic marks a body, or one it reaches, that makes an l.Call
	// whose target is not a string literal: its edges are unknown, so
	// its errno and abort facts cannot be closed.
	dynamic bool
}

func newFnFacts() *fnFacts {
	return &fnFacts{errnos: map[string]bool{}, calls: map[string]bool{}}
}

// collectSyntactic walks one function body, recording SetErrno
// constants, Abort reachability and l.Call edges, and recursing into
// package-level helpers.
func (pr *program) collectSyntactic(body ast.Node, ff *fnFacts, helpers map[string]bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch fun := call.Fun.(type) {
		case *ast.SelectorExpr:
			switch fun.Sel.Name {
			case "SetErrno":
				if len(call.Args) == 1 {
					if sel, ok := call.Args[0].(*ast.SelectorExpr); ok {
						if id, ok := sel.X.(*ast.Ident); ok && id.Name == "csim" {
							ff.errnos[sel.Sel.Name] = true
						}
					}
				}
			case "Abort":
				ff.aborts = true
			case "Call":
				if len(call.Args) >= 2 {
					if lit, ok := call.Args[1].(*ast.BasicLit); ok && lit.Kind == token.STRING {
						name, _ := strconv.Unquote(lit.Value)
						ff.calls[name] = true
					} else {
						ff.dynamic = true
					}
				}
			}
		case *ast.Ident:
			// Package-level helper: fold its facts in, once per helper
			// per function (cycle-guarded).
			if fd, ok := pr.funcs[fun.Name]; ok && !helpers[fun.Name] {
				helpers[fun.Name] = true
				pr.collectSyntactic(fd.Body, ff, helpers)
			}
		}
		return true
	})
}

// computeFacts runs the syntactic collection over every registered
// function and closes errno, abort and dynamic-call facts over l.Call
// edges.
func (pr *program) computeFacts() map[string]*fnFacts {
	facts := make(map[string]*fnFacts, len(pr.registry))
	for name, e := range pr.registry {
		ff := newFnFacts()
		pr.collectSyntactic(e.body, ff, map[string]bool{})
		facts[name] = ff
	}
	// Monotone propagation to fixpoint: callee facts flow into callers.
	// The graph is tiny (hundreds of nodes), so iterate.
	for changed := true; changed; {
		changed = false
		for _, ff := range facts {
			for callee := range ff.calls {
				cf, ok := facts[callee]
				if !ok {
					continue
				}
				for e := range cf.errnos {
					if !ff.errnos[e] {
						ff.errnos[e] = true
						changed = true
					}
				}
				if cf.aborts && !ff.aborts {
					ff.aborts = true
					changed = true
				}
				if cf.dynamic && !ff.dynamic {
					ff.dynamic = true
					changed = true
				}
			}
		}
	}
	return facts
}

func (ff *fnFacts) errnoList() []string {
	out := make([]string, 0, len(ff.errnos))
	for e := range ff.errnos {
		out = append(out, e)
	}
	sort.Strings(out)
	return out
}

func (ff *fnFacts) callList() []string {
	out := make([]string, 0, len(ff.calls))
	for c := range ff.calls {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}
