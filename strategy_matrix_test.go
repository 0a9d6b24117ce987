package healers_test

import (
	"os"
	"path/filepath"
	"testing"

	"healers"
	"healers/internal/cmem"
)

// strategyFixture runs the full differential matrix once (unwrapped +
// the three wrapper modes over the identical 11,995-test suite) and is
// shared by the golden, invariant, and determinism tests.
type strategyFixture struct {
	sys     *healers.System
	suite   *healers.Suite
	semi    *healers.DeclSet
	matrix  *healers.StrategyMatrix
	metrics *healers.Metrics
}

func buildStrategyFixture(t *testing.T, workers int) *strategyFixture {
	t.Helper()
	sys, err := healers.NewSystem()
	if err != nil {
		t.Fatal(err)
	}
	campaign, err := sys.Inject(sys.CrashProne86())
	if err != nil {
		t.Fatal(err)
	}
	semi := healers.SemiAuto(campaign.Decls())
	suite, err := sys.GenerateSuite()
	if err != nil {
		t.Fatal(err)
	}
	metrics := healers.NewMetrics()
	m, err := sys.RunStrategyMatrix(suite, semi, healers.Observability{Metrics: metrics, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	return &strategyFixture{sys: sys, suite: suite, semi: semi, matrix: m, metrics: metrics}
}

// TestStrategyMatrix is the differential strategy harness: all three
// wrapper modes over the identical Ballista suite in one sharded pass,
// checked against the committed golden matrix, with the mode invariants
// asserted test-by-test. REGEN_STRATEGY_MATRIX=1 rewrites the golden.
func TestStrategyMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("full evaluation")
	}
	fx := buildStrategyFixture(t, 8)
	m := fx.matrix

	if m.Tests != 11995 || m.Funcs != 86 {
		t.Fatalf("matrix over %d tests / %d funcs", m.Tests, m.Funcs)
	}

	// The three mode invariants, test-by-test.
	if v := m.InvariantViolations(fx.suite); len(v) > 0 {
		for i, line := range v {
			if i >= 20 {
				t.Errorf("... and %d more", len(v)-i)
				break
			}
			t.Error(line)
		}
		t.Fatalf("%d mode-invariant violations", len(v))
	}

	// The headline deltas must be real, not vacuous: healing converts
	// unwrapped crashes into silent successes, and introspection
	// removes false rejections the fixed robust types would make.
	if m.HealCrashConversions == 0 {
		t.Error("heal converted no unwrapped-crash tests to heal-success")
	}
	if m.FalseRejectsRemoved == 0 {
		t.Error("introspect removed no false rejections")
	}

	// Every repair forwarded re-passed the Reject-mode check: the
	// fixpoint failure counter stays zero across the whole suite.
	if n := fx.metrics.Counter("healers_wrapper_heal_fixpoint_failures_total").Value(); n != 0 {
		t.Errorf("heal fixpoint failures = %d", n)
	}

	// Every sink, probe region and stack of the suite began as shared
	// zero pages: none may have been written or parked in the page pool.
	if err := cmem.CheckZeroPages(); err != nil {
		t.Error(err)
	}

	golden := filepath.Join("testdata", "strategy_matrix.txt")
	got := m.Format()
	if os.Getenv("REGEN_STRATEGY_MATRIX") != "" {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", golden)
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (REGEN_STRATEGY_MATRIX=1 to create): %v", err)
	}
	if got != string(want) {
		t.Fatalf("strategy matrix diverged from %s (REGEN_STRATEGY_MATRIX=1 to rebless)\ngot:\n%s", golden, got)
	}
}

// TestStrategyMatrixDeterministic pins the sharding contract: the
// matrix a single worker produces is byte-identical to the committed
// golden, which TestStrategyMatrix produced (and checks) with eight.
func TestStrategyMatrixDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("full evaluation")
	}
	fx := buildStrategyFixture(t, 1)
	golden := filepath.Join("testdata", "strategy_matrix.txt")
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (REGEN_STRATEGY_MATRIX=1 to create): %v", err)
	}
	if got := fx.matrix.Format(); got != string(want) {
		t.Fatalf("workers=1 matrix diverged from the workers=8 golden\ngot:\n%s", got)
	}
}
