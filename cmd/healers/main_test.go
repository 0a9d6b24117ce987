package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"healers"
	"healers/internal/wrapgen"
)

// runOK drives one healers invocation in process and returns its
// stdout.
func runOK(t *testing.T, args ...string) string {
	t.Helper()
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		t.Fatalf("healers %s: %v", strings.Join(args, " "), err)
	}
	return out.String()
}

func TestDeclPrintsEachFunctionInOrder(t *testing.T) {
	out := runOK(t, "decl", "asctime", "strcpy")
	if n := strings.Count(out, "<function>"); n != 2 {
		t.Fatalf("%d <function> documents, want 2:\n%s", n, out)
	}
	a, s := strings.Index(out, "<name>asctime</name>"), strings.Index(out, "<name>strcpy</name>")
	if a < 0 || s < 0 || a > s {
		t.Errorf("want asctime then strcpy:\n%s", out)
	}
}

func TestDeclArgumentErrors(t *testing.T) {
	if err := run([]string{"decl"}, &bytes.Buffer{}); err == nil || !strings.Contains(err.Error(), "usage") {
		t.Errorf("decl with no names: err = %v, want a usage error", err)
	}
	err := run([]string{"decl", "no_such_function"}, &bytes.Buffer{})
	if err == nil || err.Error() != "injector: no_such_function not extracted" {
		t.Errorf("decl of an unknown name: err = %v", err)
	}
}

// TestWrapSemiAbortIsWrapgenAfterHeader pins wrap's C to the generator:
// after the checks header and its blank line comes exactly
// wrapgen.File over the semi-automatic declarations.
func TestWrapSemiAbortIsWrapgenAfterHeader(t *testing.T) {
	out := runOK(t, "wrap", "-semi", "-abort", "asctime")
	header := wrapgen.ChecksHeader() + "\n"
	if !strings.HasPrefix(out, header) {
		t.Fatal("wrap output does not start with the checks header")
	}
	sys, err := healers.NewSystem()
	if err != nil {
		t.Fatal(err)
	}
	campaign, err := sys.Inject([]string{"asctime"})
	if err != nil {
		t.Fatal(err)
	}
	want := wrapgen.File(healers.SemiAuto(campaign.Decls()), wrapgen.Options{AbortOnViolation: true})
	if got := out[len(header):]; got != want {
		t.Errorf("wrap -semi -abort body differs from wrapgen.File:\n--- got\n%s\n--- want\n%s", got, want)
	}
}

func TestInjectVerboseTracesAdjustments(t *testing.T) {
	out := runOK(t, "inject", "-v", "asctime")
	if want := "adjust asctime arg0: RONLY_FIXED[0] -> RONLY_FIXED[1]"; !strings.Contains(out, want) {
		t.Errorf("inject -v output lacks %q", want)
	}
}

func TestFigure6ListsCrashingFunctions(t *testing.T) {
	out := runOK(t, "figure6")
	for _, want := range []string{
		"crashing functions, full-auto (16):",
		"full-auto residual detail (the corrupted-structure class):",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("figure6 output lacks %q", want)
		}
	}
}

func TestTraceWriteFailuresFailTheCommand(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "missing", "x.json")
	err := run([]string{"inject", "-trace-out", missing, "asctime"}, &bytes.Buffer{})
	if !errors.Is(err, os.ErrNotExist) {
		t.Errorf("-trace-out into a missing directory: err = %v, want not-exist", err)
	}

	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full")
	}
	err = run([]string{"inject", "-trace", "/dev/full", "asctime"}, &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "writing /dev/full") {
		t.Errorf("-trace /dev/full: err = %v, want the write error", err)
	}
}

func TestUnknownCommandRunsNothing(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "made.jsonl")
	err := run([]string{"bogus", "-trace", trace}, &bytes.Buffer{})
	if err == nil || err.Error() != `unknown command "bogus"` {
		t.Errorf("err = %v", err)
	}
	if _, err := os.Stat(trace); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("unknown command created its trace file (stat err = %v)", err)
	}
}
