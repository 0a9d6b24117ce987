package clib_test

import (
	"sort"
	"testing"

	"healers/internal/clib"
	"healers/internal/corpus"
	"healers/internal/csim"
	"healers/internal/extract"
	"healers/internal/injector"
)

// TestStdioProbeDifferential is the per-probe oracle of the segmented
// stdio loops: the cold 86-function campaign runs on a library whose
// fread, fwrite, fgets, fputs, gets, fflush, fclose and fseek first run
// the production Impl and the per-byte reference model on two forks of
// the probe's process and compare them — outcome kind, return, errno,
// fault and steps, and on a return or a hang the FILE header, ring,
// user range, file, descriptor position and input position. Every
// probe the campaign makes of those functions (directly, or through
// rewind and the internal aliases) is compared.
func TestStdioProbeDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaign")
	}
	lib := clib.New()
	compared := map[string]int{}
	var diffs int
	for name := range clib.RefStdioFuncs {
		f := lib.MustLookup(name)
		impl := f.Impl
		f.Impl = func(p *csim.Process, a []uint64) uint64 {
			compared[name]++
			if d := clib.DiffStdio(impl, p, name, a); d != "" {
				if diffs++; diffs <= 10 {
					t.Error(d)
				}
			}
			return impl(p, a)
		}
	}
	ext, err := extract.Run(corpus.Build(lib))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := injector.New(lib, injector.DefaultConfig()).InjectAll(ext, lib.CrashProne86()); err != nil {
		t.Fatal(err)
	}
	if diffs > 10 {
		t.Errorf("%d probes disagreed in all", diffs)
	}
	names := make([]string, 0, len(clib.RefStdioFuncs))
	for name := range clib.RefStdioFuncs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		t.Logf("%s: %d calls compared", name, compared[name])
		if compared[name] == 0 {
			t.Errorf("the campaign never called %s", name)
		}
	}
}
