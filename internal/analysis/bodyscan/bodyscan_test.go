package bodyscan

import (
	"bytes"
	"go/parser"
	"go/token"
	"os"
	"sync"
	"testing"

	"healers/internal/analysis/bodyscan/testdata/buggylib"
	"healers/internal/clib"
	"healers/internal/corpus"
	"healers/internal/decl"
	"healers/internal/extract"
	"healers/internal/gens"
)

// clibScanner loads the simulated C library once for every test that
// probes it: parsing its source and pairing every body with its
// compiled function is worth sharing.
var clibScanner = sync.OnceValues(func() (*Scanner, error) {
	return LoadClib("../../clib")
})

func mustScanner(t *testing.T) *Scanner {
	t.Helper()
	s, err := clibScanner()
	if err != nil {
		t.Fatalf("load clib: %v", err)
	}
	return s
}

// TestGoldenSummaries pins the one-line summaries of a representative
// slice of the 86: string copiers with derived size expressions, a
// fixed-extent struct reader, FILE-stream state, a pure fd function,
// element-count products, and the bounded-read annotation. Any change
// to the probe schedule or the fitting logic shows up here as a diff
// against human-checked expectations.
func TestGoldenSummaries(t *testing.T) {
	s := mustScanner(t)
	golden := map[string]string{
		"strcpy":  "strcpy: dest=write arg[6]~strlen(arg1)+1 | src=read cstr",
		"memcpy":  "memcpy: dest=write arg[8]~arg2 | src=read arg[8]~arg2 | n=int:nonneg",
		"asctime": "asctime: tm=read const[44],null-ok ; errno={EINVAL}",
		"fflush":  "fflush: stream=rw struct[40],null-ok",
		"close":   "close: fd=fd",
		"fread":   "fread: ptr=write arg[64]~arg1*arg2 | size=int:any | nmemb=int:any | stream=rw struct[40] ; errno={EBADF}",
		"strncpy": "strncpy: dest=write arg[8]~arg2 | src=read const[6] min=1,bounded~arg2 | n=int:nonneg",
		"mkstemp": "mkstemp: template=read cstr ; errno={EINVAL}",
		"qsort":   "qsort: base=rw arg[64]~arg1*arg2 | nmemb=int:any | size=int:any | compar=funcptr",
		"strncat": "strncat: dest=rw arg[6]~min(strlen(arg1),arg2)+1 | src=read const[6] min=1,bounded~arg2 | n=int:any",
	}
	for name, want := range golden {
		fs, err := s.Summarize(name)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if got := fs.String(); got != want {
			t.Errorf("%s:\n got %q\nwant %q", name, got, want)
		}
	}
}

// TestGeneratedFactsMatchScan is the in-tree version of the CI drift
// gate (`go run ./cmd/bodyscan -check`): scanning the full 86-function
// evaluation set and rendering it through the generator must reproduce
// the committed internal/analysis/bodyfacts source byte for byte.
func TestGeneratedFactsMatchScan(t *testing.T) {
	s := mustScanner(t)
	if !s.Has("strcpy") || s.Has("no_such_function") {
		t.Fatalf("registry lookup broken")
	}
	if n := len(s.Names()); n < 86 {
		t.Fatalf("scanner registers %d external functions, want >= 86", n)
	}
	sums, err := s.SummarizeAll(clib.New().CrashProne86())
	if err != nil {
		t.Fatalf("summarize: %v", err)
	}
	got := GenGo(sums)
	want, err := os.ReadFile("../bodyfacts/facts.go")
	if err != nil {
		t.Fatalf("read committed facts: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("committed bodyfacts drifted from the clib scan: regenerate with `go run ./cmd/bodyscan -out internal/analysis/bodyfacts/facts.go`")
	}
}

// TestClassMatchesGenerator holds parseProto's class of every parameter
// of the 86 to gens.Classify of the same parameter of the extracted
// prototype, the class gens.ForParam selects the generator by: the
// static probes then build the same benign sibling the dynamic
// campaign's Default probe does.
func TestClassMatchesGenerator(t *testing.T) {
	s := mustScanner(t)
	lib := clib.New()
	ext, err := extract.Run(corpus.Build(lib))
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, name := range lib.CrashProne86() {
		fi, ok := ext.Lookup(name)
		if !ok || fi.Proto == nil {
			t.Fatalf("%s: no extracted prototype", name)
		}
		params := parseProto(s.prog.registry[name].Proto)
		if len(params) != len(fi.Proto.Params) {
			t.Errorf("%s: %d parsed parameters, %d extracted", name, len(params), len(fi.Proto.Params))
			continue
		}
		for i, param := range fi.Proto.Params {
			if got, want := params[i].Class, gens.Classify(param); got != want {
				t.Errorf("%s arg %d (%s): class %s, gens.Classify %s", name, i, params[i].CType, got, want)
			}
			checked++
		}
	}
	if checked < 150 {
		t.Errorf("checked %d parameters, want every parameter of the 86", checked)
	}
}

// TestBuggyFixture runs the scanner over the deliberately defective
// testdata library, compiled into this test binary, and checks each
// defect is surfaced while its fixed twin is certified.
func TestBuggyFixture(t *testing.T) {
	s, err := Load("testdata/buggylib", buggylib.New().Funcs())
	if err != nil {
		t.Fatalf("load buggylib: %v", err)
	}
	sum := func(name string) *FuncSummary {
		t.Helper()
		fs, err := s.Summarize(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return fs
	}

	// Off-by-one read: ok_read's footprint fits ~arg2 exactly; the
	// buggy twin reads one byte past it and must not be certified as
	// bounded by the count argument.
	ok := sum("ok_read").Args[0]
	if ok.Expr == nil || ok.Expr.Kind != decl.SizeArgValue || ok.Expr.A != 1 {
		t.Errorf("ok_read src: want size expression arg2, got %+v", ok.Expr)
	}
	bug := sum("bug_readpast").Args[0]
	if bug.Expr != nil {
		t.Errorf("bug_readpast src: off-by-one read certified as %v", bug.Expr)
	}
	if okB, bugB := ok.ReadBytes, bug.ReadBytes; bugB != okB+1 {
		t.Errorf("bug_readpast src: read %d bytes, want %d (one past ok_read's %d)", bugB, okB+1, okB)
	}

	// Missing NULL check: the null probe returns cleanly from ok_len
	// and crashes bug_nonull.
	if a := sum("ok_len").Args[0]; !a.NullOK {
		t.Errorf("ok_len s: NULL-checked body not marked null-ok")
	}
	if a := sum("bug_nonull").Args[0]; a.NullOK {
		t.Errorf("bug_nonull s: missing NULL check marked null-ok")
	}

	// Call-graph cycle: EINVAL is set only in cyc_pong but must flow
	// around the ping<->pong cycle to both, and the fixpoint must
	// terminate (this test completing is the termination proof).
	for _, name := range []string{"cyc_ping", "cyc_pong"} {
		fs := sum(name)
		if len(fs.Errnos) != 1 || fs.Errnos[0] != "EINVAL" {
			t.Errorf("%s: errnos %v, want [EINVAL] via cycle fixpoint", name, fs.Errnos)
		}
	}
	if calls := sum("cyc_ping").Calls; len(calls) != 1 || calls[0] != "cyc_pong" {
		t.Errorf("cyc_ping: call edges %v, want [cyc_pong]", calls)
	}
	if calls := sum("cyc_pong").Calls; len(calls) != 1 || calls[0] != "cyc_ping" {
		t.Errorf("cyc_pong: call edges %v, want [cyc_ping]", calls)
	}

	// Kernel-boundary copy: the pointee ok_kcopy reaches only through
	// CopyFromUser constrains nothing; bug_uload's user load does.
	if a := sum("ok_kcopy").Args[0]; !a.KernelOnly || a.ReadBytes != 0 {
		t.Errorf("ok_kcopy src: CopyFromUser read summarized as %s, want kernel-only", a.describe())
	}
	if a := sum("bug_uload").Args[0]; a.KernelOnly || a.ReadBytes != 8 {
		t.Errorf("bug_uload src: Load read summarized as %s, want read const[8]", a.describe())
	}

	// Unreadable call target: dyn_alias names cyc_pong through a
	// captured variable, so its errnos cannot be closed. Summarizing it,
	// or dyn_caller that reaches it, must fail instead of dropping
	// cyc_pong's EINVAL.
	for _, name := range []string{"dyn_alias", "dyn_caller"} {
		if fs, err := s.Summarize(name); err == nil {
			t.Errorf("%s: summarized as %s, want an error for the unreadable l.Call target", name, fs)
		}
	}
}

// TestLoadPairsBodiesWithTheirSource: the scanner finds each body at
// the file and line of its compiled code, so a source directory that
// is not the library's fails the load instead of pairing wrong bodies.
func TestLoadPairsBodiesWithTheirSource(t *testing.T) {
	if _, err := Load("testdata/buggylib", clib.New().External()); err == nil {
		t.Error("loaded clib's functions against buggylib's source")
	}
	s := mustScanner(t)
	if _, err := s.Summarize("__strcpy_internal"); err == nil {
		t.Error("summarized an alias whose l.Call target is a captured variable")
	}
}

// TestLintRules exercises both repo lint rules on synthetic sources.
func TestLintRules(t *testing.T) {
	lint := func(rel, src string) []string {
		t.Helper()
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, rel, src, parser.ParseComments)
		if err != nil {
			t.Fatalf("parse %s: %v", rel, err)
		}
		return LintFile(fset, f, rel)
	}

	cases := []struct {
		name string
		rel  string
		src  string
		want int // violations
	}{
		{"cmem field outside cmem", "internal/wrapper/x.go",
			"package x\nfunc f(m M) { _ = m.pages }", 1},
		{"cmem field inside cmem", "internal/cmem/x.go",
			"package cmem\nfunc f(m M) { _ = m.pages }", 0},
		{"heap through Mem receiver", "internal/injector/x_helper.go",
			"package x\nfunc f(p P) { _ = p.Mem.heap }", 1},
		{"unrelated heap field", "internal/wrapper/x.go",
			"package x\nfunc f(ip I) { _ = ip.heap }", 0},
		{"time.Now in injector", "internal/injector/x.go",
			"package x\nimport \"time\"\nfunc f() { _ = time.Now() }", 1},
		{"time.Now waived", "internal/injector/x.go",
			"package x\nimport \"time\"\nfunc f() { _ = time.Now() //healers:allow-nondeterminism span timing\n}", 0},
		{"waiver without reason", "internal/injector/x.go",
			"package x\nimport \"time\"\nfunc f() { _ = time.Now() //healers:allow-nondeterminism\n}", 2},
		{"time.Now in injector test", "internal/injector/x_test.go",
			"package x\nimport \"time\"\nfunc f() { _ = time.Now() }", 0},
		{"time.Now outside injector", "internal/wrapper/x.go",
			"package x\nimport \"time\"\nfunc f() { _ = time.Now() }", 0},
		{"math/rand in injector", "internal/injector/x.go",
			"package x\nimport \"math/rand\"\nfunc f() int { return rand.Intn(3) }", 1},
	}
	for _, tc := range cases {
		if got := lint(tc.rel, tc.src); len(got) != tc.want {
			t.Errorf("%s: %d violation(s) %v, want %d", tc.name, len(got), got, tc.want)
		}
	}
}

// TestLintRepoCleanOnSelf is the same invocation `make lint` runs: the
// repository itself must be free of violations (every nondeterministic
// timestamp in the injector carries a reasoned waiver).
func TestLintRepoCleanOnSelf(t *testing.T) {
	violations, err := LintRepo("../../..")
	if err != nil {
		t.Fatalf("lint: %v", err)
	}
	for _, v := range violations {
		t.Errorf("lint: %s", v)
	}
}
