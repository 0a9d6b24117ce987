package clib_test

import (
	"testing"

	"healers/internal/ballista"
	"healers/internal/clib"
	"healers/internal/corpus"
	"healers/internal/csim"
	"healers/internal/decl"
	"healers/internal/extract"
	"healers/internal/injector"
	"healers/internal/wrapper"
)

// TestByteProbeDifferential is the per-probe oracle of the byte
// kernels: the cold 86-function campaign, and then the whole Ballista
// suite unwrapped and wrapped in reject, heal and introspect mode (with
// the campaign's semi-automatic declarations), run on a library whose
// byte-kernel functions first run the production Impl and the per-byte
// reference model on two forks of the caller's process, with the step
// budget it has left, and compare everything DiffBytes observes. Every
// call those runs make of the functions (directly, through an alias,
// or through a delegating function such as bcopy) is compared, and
// each run must call every function at least once.
func TestByteProbeDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaign and Ballista suite")
	}
	lib := clib.New()
	phase := "campaign"
	compared := map[string]map[string]int{}
	var diffs int
	for _, name := range clib.RefByteNames {
		f := lib.MustLookup(name)
		impl := f.Impl
		f.Impl = func(p *csim.Process, a []uint64) uint64 {
			compared[phase][name]++
			if d := clib.DiffBytes(impl, p, name, a); d != "" {
				if diffs++; diffs <= 10 {
					t.Errorf("%s: %s", phase, d)
				}
			}
			return impl(p, a)
		}
	}
	run := func(name string, fn func()) {
		phase = name
		compared[name] = map[string]int{}
		fn()
		for _, fn := range clib.RefByteNames {
			t.Logf("%s %s: %d calls compared", name, fn, compared[name][fn])
			if compared[name][fn] == 0 {
				t.Errorf("%s never called %s", name, fn)
			}
		}
	}

	ext, err := extract.Run(corpus.Build(lib))
	if err != nil {
		t.Fatal(err)
	}
	var semi *decl.DeclSet
	run("campaign", func() {
		campaign, err := injector.New(lib, injector.DefaultConfig()).InjectAll(ext, lib.CrashProne86())
		if err != nil {
			t.Fatal(err)
		}
		semi = decl.ApplySemiAutoEdits(campaign.Decls())
	})
	suite, err := ballista.Generate(lib, ext, 0)
	if err != nil {
		t.Fatal(err)
	}
	suite.Trim(11995)
	template := ballista.NewTemplate()
	defer template.Release()
	for _, cfg := range []struct {
		name string
		mode wrapper.Mode
		wrap bool
	}{
		{"unwrapped", wrapper.ModeReject, false},
		{"mode-reject", wrapper.ModeReject, true},
		{"mode-heal", wrapper.ModeHeal, true},
		{"mode-introspect", wrapper.ModeIntrospect, true},
	} {
		opts := wrapper.DefaultOptions()
		opts.Mode = cfg.mode
		factory := func(p *csim.Process) ballista.Caller {
			if !cfg.wrap {
				return lib
			}
			return wrapper.Attach(p, lib, semi, opts)
		}
		run(cfg.name, func() { suite.RunWith(cfg.name, template, factory, ballista.RunOptions{}) })
	}
	if diffs > 10 {
		t.Errorf("%d calls disagreed in all", diffs)
	}
}
