package ballista

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"healers/internal/clib"
	"healers/internal/corpus"
	"healers/internal/csim"
	"healers/internal/decl"
	"healers/internal/extract"
	"healers/internal/injector"
	"healers/internal/wrapper"
)

type fixture struct {
	lib   *clib.Library
	ext   *extract.Result
	decls *decl.DeclSet
	semi  *decl.DeclSet
	suite *Suite
}

var cached *fixture

func setup(t testing.TB) *fixture {
	t.Helper()
	if cached != nil {
		return cached
	}
	lib := clib.New()
	ext, err := extract.Run(corpus.Build(lib))
	if err != nil {
		t.Fatal(err)
	}
	campaign, err := injector.New(lib, injector.DefaultConfig()).InjectAll(ext, lib.CrashProne86())
	if err != nil {
		t.Fatal(err)
	}
	decls := campaign.Decls()
	suite, err := Generate(lib, ext, 0)
	if err != nil {
		t.Fatal(err)
	}
	suite.Trim(11995)
	cached = &fixture{
		lib:   lib,
		ext:   ext,
		decls: decls,
		semi:  decl.ApplySemiAutoEdits(decls),
		suite: suite,
	}
	return cached
}

// matrixConfig is one configuration of the strategy matrix.
type matrixConfig struct {
	name    string
	factory CallerFactory
}

// matrixConfigs are the strategy matrix's four configurations over the
// semi-automatic declarations: the bare library and the wrapper in
// reject, heal and introspect mode.
func (f *fixture) matrixConfigs() []matrixConfig {
	configs := []matrixConfig{{"unwrapped", func(*csim.Process) Caller { return f.lib }}}
	for _, m := range []struct {
		name string
		mode wrapper.Mode
	}{{"mode-reject", wrapper.ModeReject}, {"mode-heal", wrapper.ModeHeal}, {"mode-introspect", wrapper.ModeIntrospect}} {
		opts := wrapper.DefaultOptions()
		opts.Mode = m.mode
		configs = append(configs, matrixConfig{m.name, func(p *csim.Process) Caller {
			return wrapper.Attach(p, f.lib, f.semi, opts)
		}})
	}
	return configs
}

func (f *fixture) runAll(t *testing.T) *Figure6 {
	t.Helper()
	template := NewTemplate()
	unwrapped := f.suite.RunWith("unwrapped", template, func(p *csim.Process) Caller {
		return f.lib
	}, RunOptions{})
	fullAuto := f.suite.RunWith("full-auto", template, func(p *csim.Process) Caller {
		return wrapper.Attach(p, f.lib, f.decls, wrapper.DefaultOptions())
	}, RunOptions{})
	semiAuto := f.suite.RunWith("semi-auto", template, func(p *csim.Process) Caller {
		return wrapper.Attach(p, f.lib, f.semi, wrapper.DefaultOptions())
	}, RunOptions{})
	return &Figure6{
		Unwrapped: unwrapped,
		FullAuto:  fullAuto,
		SemiAuto:  semiAuto,
		Tests:     len(f.suite.Tests),
		Funcs:     len(f.suite.PerFunc),
	}
}

func TestSuiteShape(t *testing.T) {
	f := setup(t)
	if got := len(f.suite.PerFunc); got != 86 {
		t.Errorf("functions in suite = %d, want 86", got)
	}
	if got := len(f.suite.Tests); got != 11995 {
		t.Errorf("tests = %d, want 11995 (paper's count)", got)
	}
	for name, n := range f.suite.PerFunc {
		if n == 0 {
			t.Errorf("%s has no tests", name)
		}
	}
	// The suite's identity: every test's function and entry names, in
	// order. A reorder or a renamed pool entry changes it even where the
	// per-function counts stay put.
	h := sha256.New()
	for _, test := range f.suite.Tests {
		fmt.Fprintf(h, "%s(%s)\n", test.Func, testKey(test))
	}
	const want = "7183e89df5e6663191291f96b3982ee4607ed5fa8085118ef7405fff8772575b"
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != want {
		t.Errorf("suite hash = %s, want %s", got, want)
	}
}

func TestFigure6Reproduction(t *testing.T) {
	if testing.Short() {
		t.Skip("full Ballista evaluation")
	}
	f := setup(t)
	fig := f.runAll(t)
	t.Logf("\n%s", fig.Format())

	// Unwrapped: the great majority of tests crash (paper: 74.18%
	// crash, 24.51% silent, 1.31% errno; 77 of 86 functions crash).
	_, _, crashPct := fig.Unwrapped.Rates()
	if crashPct < 55 || crashPct > 85 {
		t.Errorf("unwrapped crash rate = %.2f%%, want ~74%%", crashPct)
	}
	if n := len(fig.Unwrapped.CrashingFuncs()); n != 77 {
		t.Errorf("unwrapped crashing functions = %d, want 77", n)
		t.Logf("crashing: %v", fig.Unwrapped.CrashingFuncs())
	}

	// Full-auto: crash rate collapses to ~1% (paper: 0.93%), exactly 16
	// functions still crash, all from the corrupted-structure class.
	faErrno, _, faCrash := fig.FullAuto.Rates()
	if faCrash > 2.0 {
		t.Errorf("full-auto crash rate = %.2f%%, want < 2%% (paper: 0.93%%)", faCrash)
	}
	if faErrno < 85 {
		t.Errorf("full-auto errno rate = %.2f%%, want > 85%% (paper: 96.25%%)", faErrno)
	}
	crashing := fig.FullAuto.CrashingFuncs()
	if len(crashing) != 16 {
		t.Errorf("full-auto crashing functions = %d, want 16: %v", len(crashing), crashing)
	}

	// Semi-auto: zero crashes (paper: all crash failures eliminated).
	_, _, saCrash := fig.SemiAuto.Rates()
	if saCrash != 0 {
		t.Errorf("semi-auto crash rate = %.2f%%, want 0", saCrash)
		t.Logf("crashing: %v", fig.SemiAuto.CrashingFuncs())
		for _, name := range fig.SemiAuto.CrashingFuncs() {
			fr := fig.SemiAuto.PerFunc[name]
			t.Logf("  %s: %d crashes (segv %d hang %d abort %d)", name, fr.Crash, fr.Segfault, fr.Hang, fr.Abort)
		}
	}
	saErrno, _, _ := fig.SemiAuto.Rates()
	if saErrno <= faErrno {
		t.Errorf("semi-auto errno rate %.2f%% not above full-auto %.2f%%", saErrno, faErrno)
	}
}
