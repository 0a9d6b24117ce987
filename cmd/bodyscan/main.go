// Command bodyscan maintains the checked-in body-level access
// summaries (internal/analysis/bodyfacts) and runs the repo-local AST
// lint. Run it from the repository root: it probes the compiled
// internal/clib linked into the binary and reads the bodies' syntax
// from internal/clib beside it.
//
// Usage:
//
//	bodyscan -out internal/analysis/bodyfacts/facts.go   # regenerate
//	bodyscan -check                                      # CI drift gate
//	bodyscan -lint                                       # repo AST lint
//
// -check regenerates the facts in memory and diffs them against the
// committed internal/analysis/bodyfacts/facts.go, exiting nonzero on
// drift — the gate that keeps the facts in sync with the internal/clib
// bodies they summarize.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"

	"healers/internal/analysis/bodyscan"
	"healers/internal/clib"
)

// factsPath is the committed facts file -check diffs against.
const factsPath = "internal/analysis/bodyfacts/facts.go"

func main() {
	out := flag.String("out", "", "write generated bodyfacts source to `file`")
	check := flag.Bool("check", false, "regenerate and diff against the committed facts file")
	lint := flag.Bool("lint", false, "run the repo AST lint (cmem encapsulation, injector determinism)")
	flag.Parse()

	if err := run(*out, *check, *lint); err != nil {
		fmt.Fprintln(os.Stderr, "bodyscan:", err)
		os.Exit(1)
	}
}

func run(out string, check, lint bool) error {
	if lint {
		violations, err := bodyscan.LintRepo(".")
		if err != nil {
			return err
		}
		for _, v := range violations {
			fmt.Println(v)
		}
		if n := len(violations); n > 0 {
			return fmt.Errorf("%d lint violation(s)", n)
		}
		return nil
	}
	if !check && out == "" {
		return fmt.Errorf("nothing to do: pass -out, -check, or -lint")
	}

	sc, err := bodyscan.LoadClib("internal/clib")
	if err != nil {
		return err
	}
	sums, err := sc.SummarizeAll(clib.New().CrashProne86())
	if err != nil {
		return err
	}
	generated := bodyscan.GenGo(sums)

	if check {
		committed, err := os.ReadFile(factsPath)
		if err != nil {
			return err
		}
		if !bytes.Equal(committed, generated) {
			return fmt.Errorf("%s is stale: regenerate with `go run ./cmd/bodyscan -out %s`", factsPath, factsPath)
		}
		fmt.Printf("%s is up to date (%d functions)\n", factsPath, len(sums))
		return nil
	}
	if err := os.WriteFile(out, generated, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d functions)\n", out, len(sums))
	return nil
}
