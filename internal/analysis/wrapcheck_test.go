package analysis

import (
	"strings"
	"testing"

	"healers/internal/decl"
	"healers/internal/wrapgen"
)

// asctimeDecl builds the paper's Figure 2 declaration by hand, so the
// wrapcheck unit tests run without a campaign.
func asctimeDecl() *decl.FuncDecl {
	return &decl.FuncDecl{
		Name: "asctime",
		Ret:  "char*",
		Args: []decl.ArgDecl{{
			CType: "const struct tm*",
			Robust: decl.RobustType{
				Base: "R_ARRAY_NULL",
				Size: decl.SizeExpr{Kind: decl.SizeFixed, N: 44},
			},
		}},
		HasErrorValue: true,
		ErrorValue:    0,
		ErrnoOnReject: 22,
		Attribute:     decl.AttrUnsafe,
		ErrClass:      decl.ErrClassConsistent,
	}
}

func singleSet(d *decl.FuncDecl) *decl.DeclSet {
	s := decl.NewDeclSet()
	s.Add(d)
	return s
}

func TestWrapcheckAcceptsPristineWrapper(t *testing.T) {
	set := singleSet(asctimeDecl())
	opts := wrapgen.Options{}
	src := wrapgen.File(set, opts)
	if issues := CheckWrappers(src, set, opts); len(issues) != 0 {
		t.Fatalf("pristine wrapper flagged: %v", issues)
	}
}

// TestWrapcheckCatchesMissingErrno removes the errno assignment from
// the rejection path — the checker must notice the silent rejection.
func TestWrapcheckCatchesMissingErrno(t *testing.T) {
	set := singleSet(asctimeDecl())
	opts := wrapgen.Options{}
	src := wrapgen.File(set, opts)
	doctored := strings.Replace(src, "\t\terrno = EINVAL;\n", "", 1)
	if doctored == src {
		t.Fatal("errno line not found in generated source")
	}
	issues := CheckWrappers(doctored, set, opts)
	if !hasIssue(issues, IssueNoErrno) {
		t.Fatalf("missing errno not caught: %v", issues)
	}
}

// TestWrapcheckCatchesCheckAfterCall moves the argument check behind
// the real libc call, where it can no longer protect anything.
func TestWrapcheckCatchesCheckAfterCall(t *testing.T) {
	set := singleSet(asctimeDecl())
	opts := wrapgen.Options{}
	src := wrapgen.File(set, opts)
	block := "\tif (!check_R_ARRAY_NULL(a1, 44)) {\n" +
		"\t\thealers_log_violation(\"asctime\");\n" +
		"\t\terrno = EINVAL;\n" +
		"\t\tret = (char*)NULL;\n" +
		"\t\tgoto PostProcessing;\n" +
		"\t}\n"
	call := "\tret = (*libc_asctime)(a1);\n"
	if !strings.Contains(src, block) || !strings.Contains(src, call) {
		t.Fatalf("generated wrapper shape changed:\n%s", src)
	}
	doctored := strings.Replace(src, block, "", 1)
	doctored = strings.Replace(doctored, call, call+block, 1)
	issues := CheckWrappers(doctored, set, opts)
	if !hasIssue(issues, IssueCheckAfterCall) {
		t.Fatalf("check-after-call not caught: %v", issues)
	}
}

func TestWrapcheckCatchesMissingCheck(t *testing.T) {
	set := singleSet(asctimeDecl())
	opts := wrapgen.Options{}
	src := wrapgen.File(set, opts)
	doctored := strings.Replace(src, "check_R_ARRAY_NULL(a1, 44)", "check_R_ARRAY_NULL(a1, 43)", 1)
	issues := CheckWrappers(doctored, set, opts)
	if !hasIssue(issues, IssueMissingCheck) {
		t.Fatalf("missing check not caught: %v", issues)
	}
}

func TestWrapcheckCatchesMissingGuard(t *testing.T) {
	set := singleSet(asctimeDecl())
	opts := wrapgen.Options{}
	src := wrapgen.File(set, opts)
	doctored := strings.Replace(src, "if (in_flag) {\n\t\treturn (*libc_asctime)(a1);\n\t}\n\t", "", 1)
	if doctored == src {
		t.Fatal("guard not found in generated source")
	}
	issues := CheckWrappers(doctored, set, opts)
	if !hasIssue(issues, IssueNoGuard) {
		t.Fatalf("missing recursion guard not caught: %v", issues)
	}
}

func TestWrapcheckCatchesMissingWrapper(t *testing.T) {
	set := singleSet(asctimeDecl())
	issues := CheckWrappers("/* empty translation unit */\n", set, wrapgen.Options{})
	if !hasIssue(issues, IssueMissingWrapper) {
		t.Fatalf("missing wrapper not caught: %v", issues)
	}
}

func hasIssue(issues []Issue, kind string) bool {
	for _, i := range issues {
		if i.Kind == kind {
			return true
		}
	}
	return false
}
