package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"healers/internal/ballista"
	"healers/internal/clib"
	"healers/internal/corpus"
	"healers/internal/decl"
	"healers/internal/extract"
	"healers/internal/injector"
)

// The committed goldens every output is checked against.
const (
	goldenVectorsPath = "internal/injector/testdata/golden_vectors.txt"
	goldenMatrixPath  = "testdata/strategy_matrix.txt"
)

// newSystem builds the simulated library and runs prototype extraction.
func newSystem() (*clib.Library, *extract.Result, error) {
	lib := clib.New()
	ext, err := extract.Run(corpus.Build(lib))
	if err != nil {
		return nil, nil, fmt.Errorf("extraction: %w", err)
	}
	return lib, ext, nil
}

// loadGoldenVectors reads the golden vector block, one line per
// function, keyed by function name.
func loadGoldenVectors(root string) (map[string]string, error) {
	data, err := os.ReadFile(filepath.Join(root, goldenVectorsPath))
	if err != nil {
		return nil, err
	}
	lines := vectorLines(string(data))
	if len(lines) != 86 {
		return nil, fmt.Errorf("%s: %d functions, want 86", goldenVectorsPath, len(lines))
	}
	return lines, nil
}

// vectorLines splits a vector block (Campaign.VectorSignature, or the
// body of GET /v1/campaigns/{id}/vectors) into lines keyed by function.
func vectorLines(block string) map[string]string {
	out := make(map[string]string)
	for _, line := range strings.Split(block, "\n") {
		if name, _, ok := strings.Cut(line, ":"); ok {
			out[name] = line
		}
	}
	return out
}

// wrongLines counts the functions of names whose line in block differs
// from the golden one or is missing, plus lines block has for functions
// it was not asked for.
func wrongLines(block string, golden map[string]string, names []string) int {
	got := vectorLines(block)
	wrong := 0
	for _, n := range names {
		if want, ok := golden[n]; !ok || got[n] != want {
			wrong++
		}
		delete(got, n)
	}
	return wrong + len(got)
}

// setupDecls runs the setup campaign, checks it against the goldens, and
// returns the semi-automatic declarations (the paper's §6 edits) that
// the Ballista and Table 2 paths wrap with.
func setupDecls(e *env, lib *clib.Library, ext *extract.Result, golden map[string]string) (*decl.DeclSet, *injector.Campaign, error) {
	cfg := injector.DefaultConfig()
	cfg.Workers = e.workers
	cfg.LibFactory = clib.New
	names := lib.CrashProne86()
	camp, err := injector.New(lib, cfg).InjectAll(ext, names)
	if err != nil {
		return nil, nil, fmt.Errorf("setup campaign: %w", err)
	}
	if n := wrongLines(camp.VectorSignature(), golden, names); n > 0 {
		return nil, nil, fmt.Errorf("setup campaign: %d functions differ from %s", n, goldenVectorsPath)
	}
	return decl.ApplySemiAutoEdits(camp.Decls()), camp, nil
}

// matrixConfigs are the strategy-matrix configurations in golden order.
var matrixConfigs = [4]string{"unwrapped", "mode-reject", "mode-heal", "mode-introspect"}

// matrixRow is one function's outcome histogram under one configuration,
// indexed by ballista.StrategyOutcome (as StrategyMatrix.FuncOutcomes
// returns it).
type matrixRow = [ballista.StratCrash + 1]int

// loadGoldenMatrix reads the per-function rows of the golden strategy
// matrix, keyed by "function configuration".
func loadGoldenMatrix(root string) (map[string]matrixRow, error) {
	data, err := os.ReadFile(filepath.Join(root, goldenMatrixPath))
	if err != nil {
		return nil, err
	}
	rows := make(map[string]matrixRow)
	inRows := false
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) > 0 && f[0] == "function" {
			inRows = true
			continue
		}
		if !inRows || len(f) == 0 {
			continue
		}
		if len(f) != 7 {
			return nil, fmt.Errorf("%s: malformed row %q", goldenMatrixPath, line)
		}
		var row matrixRow
		for i, s := range f[2:] {
			n, err := strconv.Atoi(s)
			if err != nil {
				return nil, fmt.Errorf("%s: row %q: %w", goldenMatrixPath, line, err)
			}
			row[ballista.StratPass+ballista.StrategyOutcome(i)] = n
		}
		rows[f[0]+" "+f[1]] = row
	}
	if len(rows) != 86*len(matrixConfigs) {
		return nil, fmt.Errorf("%s: %d rows, want %d", goldenMatrixPath, len(rows), 86*len(matrixConfigs))
	}
	return rows, nil
}
