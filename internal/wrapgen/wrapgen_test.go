package wrapgen

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"healers/internal/clib"
	"healers/internal/corpus"
	"healers/internal/csim"
	"healers/internal/decl"
	"healers/internal/extract"
	"healers/internal/injector"
)

// -update rewrites the committed wrapper sources under testdata from a
// fresh campaign.
var updateGolden = flag.Bool("update", false, "rewrite testdata golden files")

// asctimeDecl reproduces the Figure 2 declaration.
func asctimeDecl() *decl.FuncDecl {
	return &decl.FuncDecl{
		Name:          "asctime",
		Version:       "HLIBC_2.2",
		Ret:           "char*",
		Args:          []decl.ArgDecl{{CType: "const struct tm*", Robust: decl.RobustType{Base: "R_ARRAY_NULL", Size: decl.Fixed(44)}}},
		HasErrorValue: true,
		ErrorValue:    0,
		Errnos:        []string{"EINVAL"},
		ErrnoOnReject: csim.EINVAL,
		Attribute:     decl.AttrUnsafe,
		ErrClass:      decl.ErrClassConsistent,
	}
}

func TestWrapperCodegenAsctime(t *testing.T) {
	// The generated code must have the structure of the paper's
	// Figure 5: recursion flag, robust-type check, errno + error value,
	// PostProcessing label, call through the saved pointer.
	src := Function(asctimeDecl(), Options{})
	for _, want := range []string{
		"char* asctime(const struct tm* a1)",
		"if (in_flag) {",
		"return (*libc_asctime)(a1);",
		"in_flag = 1;",
		"if (!check_R_ARRAY_NULL(a1, 44)) {",
		"errno = EINVAL;",
		"ret = (char*)NULL;",
		"goto PostProcessing;",
		"ret = (*libc_asctime)(a1);",
		"PostProcessing: ;",
		"in_flag = 0;",
		"return ret;",
	} {
		if !strings.Contains(src, want) {
			t.Errorf("generated code missing %q:\n%s", want, src)
		}
	}
}

func TestCodegenVoidFunction(t *testing.T) {
	d := &decl.FuncDecl{
		Name:      "rewind",
		Ret:       "void",
		Args:      []decl.ArgDecl{{CType: "struct _IO_FILE*", Robust: decl.RobustType{Base: "OPEN_FILE"}}},
		Attribute: decl.AttrUnsafe,
		ErrClass:  decl.ErrClassNoReturn,

		ErrnoOnReject: csim.EINVAL,
	}
	src := Function(d, Options{})
	if strings.Contains(src, "ret =") {
		t.Errorf("void wrapper declares ret:\n%s", src)
	}
	if !strings.Contains(src, "check_OPEN_FILE(a1)") {
		t.Errorf("missing FILE check:\n%s", src)
	}
}

func TestCodegenDependentSizes(t *testing.T) {
	d := &decl.FuncDecl{
		Name: "strcpy",
		Ret:  "char*",
		Args: []decl.ArgDecl{
			{CType: "char*", Robust: decl.RobustType{Base: "W_ARRAY", Size: decl.SizeExpr{Kind: decl.SizeStrlenPlus1, A: 1}}},
			{CType: "const char*", Robust: decl.RobustType{Base: "CSTR"}},
		},
		HasErrorValue: true,
		ErrnoOnReject: csim.EINVAL,
		Attribute:     decl.AttrUnsafe,
	}
	src := Function(d, Options{})
	if !strings.Contains(src, "check_W_ARRAY(a1, healers_strlen(a2) + 1)") {
		t.Errorf("missing dependent-size check:\n%s", src)
	}
	if !strings.Contains(src, "check_CSTR(a2)") {
		t.Errorf("missing string check:\n%s", src)
	}
}

func TestCodegenAssertions(t *testing.T) {
	d := &decl.FuncDecl{
		Name:          "closedir",
		Ret:           "int",
		Args:          []decl.ArgDecl{{CType: "struct __dirstream*", Robust: decl.RobustType{Base: "OPEN_DIR"}}},
		HasErrorValue: true,
		ErrorValue:    ^uint64(0),
		ErrnoOnReject: csim.EINVAL,
		Attribute:     decl.AttrUnsafe,
		Assertions:    []decl.Assertion{decl.AssertValidDir},
	}
	src := Function(d, Options{})
	if !strings.Contains(src, "healers_valid_dir(a1)") {
		t.Errorf("missing dir assertion:\n%s", src)
	}
	if !strings.Contains(src, `healers_log_violation("closedir")`) {
		t.Errorf("missing violation log:\n%s", src)
	}
	if !strings.Contains(src, "ret = (int)-1;") {
		t.Errorf("missing error value:\n%s", src)
	}
}

func TestCodegenAbortPolicy(t *testing.T) {
	src := Function(asctimeDecl(), Options{AbortOnViolation: true})
	if !strings.Contains(src, "abort();") {
		t.Errorf("missing abort:\n%s", src)
	}
	if strings.Contains(src, "goto PostProcessing;\n\t}") && !strings.Contains(src, "abort") {
		t.Error("abort policy still emits error return")
	}
}

func TestFileEmitsOnlyUnsafe(t *testing.T) {
	set := decl.NewDeclSet()
	set.Add(asctimeDecl())
	set.Add(&decl.FuncDecl{Name: "close", Ret: "int", Attribute: decl.AttrSafe})
	src := File(set, Options{})
	if !strings.Contains(src, "asctime") {
		t.Error("unsafe function missing")
	}
	if strings.Contains(src, " close(") {
		t.Error("safe function wrapped")
	}
	if !strings.Contains(src, "healers_checks.h") {
		t.Error("prelude missing")
	}
	if !strings.Contains(src, "__thread int in_flag") {
		t.Error("recursion flag missing")
	}
}

func TestCodegenIntAndBoundedChecks(t *testing.T) {
	d := &decl.FuncDecl{
		Name: "strncpy",
		Ret:  "char*",
		Args: []decl.ArgDecl{
			{CType: "char*", Robust: decl.RobustType{Base: "W_ARRAY", Size: decl.SizeExpr{Kind: decl.SizeArgValue, A: 2}}},
			{CType: "const char*", Robust: decl.RobustType{Base: "R_BOUNDED", Size: decl.SizeExpr{Kind: decl.SizeArgValue, A: 2}}},
			{CType: "size_t", Robust: decl.RobustType{Base: "INT_NONNEG"}},
		},
		HasErrorValue: true,
		ErrnoOnReject: csim.EINVAL,
		Attribute:     decl.AttrUnsafe,
	}
	src := Function(d, Options{})
	for _, want := range []string{
		"check_W_ARRAY(a1, (size_t)a3)",
		"check_R_BOUNDED(a2, (size_t)a3)",
		"((long)a3 >= 0)",
	} {
		if !strings.Contains(src, want) {
			t.Errorf("missing %q:\n%s", want, src)
		}
	}
}

func TestFullLibraryEmission(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaign")
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
	semi := decl.ApplySemiAutoEdits(campaign.Decls())
	// The emitted C of every strategy is pinned byte for byte.
	for _, mode := range []string{"reject", "heal", "introspect"} {
		got := File(semi, Options{Mode: mode})
		path := filepath.Join("testdata", "semiauto_"+mode+".c")
		if *updateGolden {
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("missing golden (run go test -run TestFullLibraryEmission -update): %v", err)
		}
		if got != string(want) {
			t.Errorf("%s emission differs from %s", mode, path)
		}
	}
	src := File(semi, Options{})
	for _, name := range lib.CrashProne86() {
		d := campaign.Results[name].Decl
		if !d.Unsafe() {
			if strings.Contains(src, " "+name+"(") {
				t.Errorf("safe function %s wrapped", name)
			}
			continue
		}
		if !strings.Contains(src, " "+name+"(") {
			t.Errorf("unsafe function %s missing from emission", name)
		}
	}
	// The semi-auto assertions appear for the DIR functions.
	if !strings.Contains(src, "healers_valid_dir") {
		t.Error("no dir assertions emitted")
	}
	if !strings.Contains(src, "healers_file_integrity") {
		t.Error("no file integrity assertions emitted")
	}
	if len(src) < 20_000 {
		t.Errorf("emission suspiciously small: %d bytes", len(src))
	}
}

func TestChecksHeader(t *testing.T) {
	h := ChecksHeader()
	for _, want := range []string{
		"HEALERS_CHECKS_H",
		"check_R_ARRAY_NULL",
		"check_R_BOUNDED",
		"check_OPEN_FILE",
		"healers_valid_dir",
		"healers_file_integrity",
		"healers_strlen",
		"healers_min",
		"healers_log_violation",
	} {
		if !strings.Contains(h, want) {
			t.Errorf("checks header missing %q", want)
		}
	}
	// Every check the generator can emit for a base of the decl
	// vocabulary is declared in the header.
	for _, b := range decl.Bases() {
		expr := CheckExpr(decl.RobustType{Base: b, Size: decl.Fixed(8)}, "a1", []string{"a1"})
		if expr == "" {
			continue
		}
		fn := expr[:strings.IndexByte(expr, '(')]
		if strings.HasPrefix(fn, "((") {
			continue // inline comparison, no function needed
		}
		if !strings.Contains(h, fn) {
			t.Errorf("header missing declaration for %s (emitted as %s)", b, expr)
		}
	}
}

// TestCodegenModeDefaultUnchanged pins the byte-identity contract the
// static wrapper verifier depends on: an unset Mode (and the explicit
// "reject") emit exactly the pre-mode Figure 5 wrapper.
func TestCodegenModeDefaultUnchanged(t *testing.T) {
	base := Function(asctimeDecl(), Options{})
	if got := Function(asctimeDecl(), Options{Mode: "reject"}); got != base {
		t.Errorf("Mode reject diverges from default emission:\n%s", got)
	}
	for _, bad := range []string{"healers_heal", "healers_introspect"} {
		if strings.Contains(base, bad) {
			t.Errorf("default emission contains %s:\n%s", bad, base)
		}
	}
}

func TestCodegenHealMode(t *testing.T) {
	d := &decl.FuncDecl{
		Name: "strncpy",
		Ret:  "char*",
		Args: []decl.ArgDecl{
			{CType: "char*", Robust: decl.RobustType{Base: "W_ARRAY", Size: decl.SizeExpr{Kind: decl.SizeArgValue, A: 2}}},
			{CType: "const char*", Robust: decl.RobustType{Base: "CSTR"}},
			{CType: "size_t", Robust: decl.RobustType{Base: "INT_NONNEG"}},
		},
		HasErrorValue: true,
		ErrnoOnReject: csim.EINVAL,
		Attribute:     decl.AttrUnsafe,
	}
	src := Function(d, Options{Mode: "heal"})
	for _, want := range []string{
		// Array repair nests inside the failed check; rejection only
		// when the repair itself refuses.
		"if (!check_W_ARRAY(a1, (size_t)a3)) {\n\t\tif (!healers_heal_array((void **)&a1, (size_t)a3)) {",
		"if (!check_CSTR(a2)) {\n\t\tif (!healers_heal_string((char **)&a2, HEALERS_MAX_STRLEN)) {",
		// Integer repair is an unconditional clamp, no reject path.
		"if (!((long)a3 >= 0)) {\n\t\ta3 = (size_t)0;\n\t}",
	} {
		if !strings.Contains(src, want) {
			t.Errorf("heal emission missing %q:\n%s", want, src)
		}
	}
}

func TestCodegenHealModeUnrepairable(t *testing.T) {
	d := &decl.FuncDecl{
		Name:          "closedir",
		Ret:           "int",
		Args:          []decl.ArgDecl{{CType: "struct __dirstream*", Robust: decl.RobustType{Base: "OPEN_DIR"}}},
		HasErrorValue: true,
		ErrorValue:    ^uint64(0),
		ErrnoOnReject: csim.EINVAL,
		Attribute:     decl.AttrUnsafe,
		Assertions:    []decl.Assertion{decl.AssertValidDir},
	}
	src := Function(d, Options{Mode: "heal"})
	if strings.Contains(src, "healers_heal") {
		t.Errorf("DIR argument emitted a repair:\n%s", src)
	}
	if !strings.Contains(src, "if (!check_OPEN_DIR(a1)) {") {
		t.Errorf("DIR check lost its rejection path:\n%s", src)
	}
}

func TestCodegenHealModeFileAssertion(t *testing.T) {
	d := &decl.FuncDecl{
		Name:          "fclose",
		Ret:           "int",
		Args:          []decl.ArgDecl{{CType: "struct _IO_FILE*", Robust: decl.RobustType{Base: "OPEN_FILE"}}},
		HasErrorValue: true,
		ErrorValue:    ^uint64(0),
		ErrnoOnReject: csim.EINVAL,
		Attribute:     decl.AttrUnsafe,
		Assertions:    []decl.Assertion{decl.AssertFileIntegrity},
	}
	src := Function(d, Options{Mode: "heal"})
	for _, want := range []string{
		"if (!check_OPEN_FILE(a1)) {\n\t\tif (!healers_heal_file((FILE **)&a1)) {",
		// The assertion repair substitutes and re-asserts (fixpoint).
		"if (!healers_heal_file((FILE **)&a1) || !healers_file_integrity(a1)) {",
	} {
		if !strings.Contains(src, want) {
			t.Errorf("heal emission missing %q:\n%s", want, src)
		}
	}
}

func TestCodegenIntrospectMode(t *testing.T) {
	d := &decl.FuncDecl{
		Name: "memcpy",
		Ret:  "void*",
		Args: []decl.ArgDecl{
			{CType: "void*", Robust: decl.RobustType{Base: "W_ARRAY", Size: decl.Fixed(8)}},
			{CType: "const void*", Robust: decl.RobustType{Base: "R_ARRAY", Size: decl.Fixed(8)}},
			{CType: "size_t", Robust: decl.RobustType{Base: "INT_NONNEG"}},
		},
		HasErrorValue: true,
		ErrnoOnReject: csim.EINVAL,
		Attribute:     decl.AttrUnsafe,
	}
	src := Function(d, Options{Mode: "introspect"})
	for _, want := range []string{
		"if (!check_W_ARRAY(a1, 8) && !healers_introspect((const void *)a1)) {",
		"if (!check_R_ARRAY(a2, 8) && !healers_introspect((const void *)a2)) {",
		// Non-array checks keep the plain rejection path.
		"if (!((long)a3 >= 0)) {\n\t\thealers_log_violation(\"memcpy\");\n\t\terrno",
	} {
		if !strings.Contains(src, want) {
			t.Errorf("introspect emission missing %q:\n%s", want, src)
		}
	}
	if strings.Contains(src, "healers_heal") {
		t.Errorf("introspect emission contains heal calls:\n%s", src)
	}
}

func TestChecksHeaderModeHelpers(t *testing.T) {
	h := ChecksHeader()
	for _, want := range []string{
		"healers_heal_array", "healers_heal_string", "healers_heal_file",
		"healers_heal_fd", "healers_heal_func", "healers_introspect",
		"HEALERS_MAX_STRLEN",
	} {
		if !strings.Contains(h, want) {
			t.Errorf("checks header missing %q", want)
		}
	}
}
