package main

import (
	"fmt"
	"math/rand"
	"time"

	"healers/internal/ballista"
	"healers/internal/clib"
	"healers/internal/csim"
	"healers/internal/decl"
	"healers/internal/wrapper"
)

// ballistaMatrix is the tester's path: each iteration runs the whole
// 11,995-test Ballista suite, its functions in a seeded order, under the
// unwrapped library and the three wrapper modes, and checks every row
// against the golden matrix. Every iteration does the same work, so the
// median iteration does not hinge on which functions a draw favoured: a
// draw of 16 of the 86 took anywhere from 25 to 210 ms.
type ballistaMatrix struct {
	lib      *clib.Library
	semi     *decl.DeclSet
	suite    *ballista.Suite
	template *csim.Process
	golden   map[string]matrixRow
	rng      *rand.Rand
}

func (w *ballistaMatrix) setup(e *env) error {
	lib, ext, err := newSystem()
	if err != nil {
		return err
	}
	golden, err := loadGoldenVectors(e.root)
	if err != nil {
		return err
	}
	semi, _, err := setupDecls(e, lib, ext, golden)
	if err != nil {
		return err
	}
	suite, err := ballista.Generate(lib, ext, 0)
	if err != nil {
		return err
	}
	suite.Trim(11995)
	matrix, err := loadGoldenMatrix(e.root)
	if err != nil {
		return err
	}
	w.lib, w.semi, w.suite, w.golden = lib, semi, suite, matrix
	w.template = ballista.NewTemplate()
	w.rng = rand.New(rand.NewSource(e.seed))
	return nil
}

// subSuite is the part of the full suite that tests the named functions,
// in the order of funcs, each function's tests in suite order.
func subSuite(full *ballista.Suite, funcs []string) *ballista.Suite {
	byFunc := make(map[string][]ballista.Test, len(full.PerFunc))
	for _, t := range full.Tests {
		byFunc[t.Func] = append(byFunc[t.Func], t)
	}
	sub := &ballista.Suite{PerFunc: make(map[string]int, len(funcs))}
	for _, f := range funcs {
		sub.Tests = append(sub.Tests, byFunc[f]...)
		sub.PerFunc[f] = len(byFunc[f])
	}
	return sub
}

// runMatrix runs sub under the four configurations and returns the
// number of golden rows it got wrong (plus invariant violations), the
// time spent in RunWith, and the per-configuration walls.
func runMatrix(e *env, w *ballistaMatrix, sub *ballista.Suite, parent spanID) (wrong int, busy time.Duration, walls [4]time.Duration) {
	var reports [4]*ballista.Report
	for ci, config := range matrixConfigs {
		opts := wrapper.DefaultOptions()
		switch config {
		case "mode-heal":
			opts.Mode = wrapper.ModeHeal
		case "mode-introspect":
			opts.Mode = wrapper.ModeIntrospect
		}
		factory := func(p *csim.Process) ballista.Caller {
			if config == "unwrapped" {
				return w.lib
			}
			return wrapper.Attach(p, w.lib, w.semi, opts)
		}
		sp := e.tr.start("ballista.RunWith:"+config, parent)
		start := time.Now()
		reports[ci] = sub.RunWith(config, w.template, factory, ballista.RunOptions{Workers: e.workers})
		walls[ci] = time.Since(start)
		e.tr.end(sp)
		busy += walls[ci]
	}
	sp := e.tr.start("bench.check_matrix", parent)
	defer e.tr.end(sp)
	m, err := ballista.NewStrategyMatrix(sub, reports[0], reports[1], reports[2], reports[3])
	if err != nil {
		fmt.Fprintf(e.log, "ballista-matrix: %v\n", err)
		return len(sub.PerFunc) * len(matrixConfigs), busy, walls
	}
	for _, f := range sortedKeys(sub.PerFunc) {
		for _, config := range matrixConfigs {
			got, ok := m.FuncOutcomes(f, config)
			if want, known := w.golden[f+" "+config]; !ok || !known || got != want {
				wrong++
				fmt.Fprintf(e.log, "ballista-matrix: %s %s = %v, golden %v\n", f, config, got, want)
			}
		}
	}
	for _, v := range m.InvariantViolations(sub) {
		wrong++
		fmt.Fprintf(e.log, "ballista-matrix: invariant: %s\n", v)
	}
	return wrong, busy, walls
}

func (w *ballistaMatrix) iteration(e *env, it int, parent spanID, rec *recorder) error {
	funcs := w.suite.SortedFuncs()
	w.rng.Shuffle(len(funcs), func(i, j int) { funcs[i], funcs[j] = funcs[j], funcs[i] })
	sub := subSuite(w.suite, funcs)

	start := time.Now()
	wrong, busy, _ := runMatrix(e, w, sub, parent)
	rec.latency(time.Since(start))
	rec.outcome(wrong == 0)
	rec.addWork(float64(len(matrixConfigs)*len(sub.Tests)), busy)
	return nil
}
