package analysis

import (
	"testing"

	"healers/internal/clib"
	"healers/internal/corpus"
	"healers/internal/cparse"
	"healers/internal/extract"
)

var cachedPrediction *Prediction

func fullPrediction(t *testing.T) *Prediction {
	t.Helper()
	if cachedPrediction != nil {
		return cachedPrediction
	}
	lib := clib.New()
	ext, err := extract.Run(corpus.Build(lib))
	if err != nil {
		t.Fatal(err)
	}
	pred, err := Predict(ext, lib.CrashProne86())
	if err != nil {
		t.Fatal(err)
	}
	cachedPrediction = pred
	return pred
}

func arg(t *testing.T, p *Prediction, fn string, i int) ArgPrediction {
	t.Helper()
	fp, ok := p.Funcs[fn]
	if !ok {
		t.Fatalf("%s not predicted", fn)
	}
	if i >= len(fp.Args) {
		t.Fatalf("%s has %d args, want index %d", fn, len(fp.Args), i)
	}
	return fp.Args[i]
}

// TestPredictPrototypeRules pins the structural rule table on
// representative prototypes (static pass only; no injection).
func TestPredictPrototypeRules(t *testing.T) {
	p := fullPrediction(t)

	cases := []struct {
		fn   string
		i    int
		want string
	}{
		// const struct tm* — read-only, return-fed, sizeof 44.
		{"asctime", 0, "R_ARRAY_NULL[44]"},
		// struct tm* — writable, return-fed.
		{"mktime", 0, "RW_ARRAY_NULL[44]"},
		// struct termios* — writable but not return-fed: size floor,
		// because cfsetispeed accesses only 52 of the 56 bytes.
		{"cfsetispeed", 0, "W_ARRAY_NULL[0]"},
		{"cfsetispeed", 1, "INT_ANY"},
		// const time_t* — one scalar element.
		{"ctime", 0, "R_ARRAY_NULL[8]"},
		// FILE* — at least readable header.
		{"fclose", 0, "R_ARRAY_NULL[0]"},
		// const char* mode string reads to the terminator.
		{"fopen", 1, "CSTR"},
		// Function pointer will be invoked.
		{"qsort", 3, "VALID_FUNC"},
		// const void* with argument-dependent extent.
		{"memcpy", 1, "R_ARRAY_NULL[0]"},
		// Descriptor-named int.
		{"close", 0, "FD_ANY"},
	}
	for _, c := range cases {
		a := arg(t, p, c.fn, c.i)
		if a.Unknown {
			t.Errorf("%s arg%d: unexpectedly unknown (%s)", c.fn, c.i, a.Reason)
			continue
		}
		if got := a.Robust.String(); got != c.want {
			t.Errorf("%s arg%d = %s, want %s", c.fn, c.i, got, c.want)
		}
		if a.Confidence <= 0 || a.Confidence > 1 {
			t.Errorf("%s arg%d: confidence %v out of range", c.fn, c.i, a.Confidence)
		}
		if a.Reason == "" {
			t.Errorf("%s arg%d: no reason recorded", c.fn, c.i)
		}
	}
}

// TestPredictDeclinesUndecidableArgs pins the explicit-UNKNOWN rules.
func TestPredictDeclinesUndecidableArgs(t *testing.T) {
	p := fullPrediction(t)
	unknowns := []struct {
		fn string
		i  int
	}{
		{"strcpy", 0},  // char* output, extent = strlen(src)+1
		{"fopen", 0},   // path: lookup may fail before traversal
		{"strncpy", 1}, // bounded read, extent = arg2
		{"read", 1},    // buffer guarded by descriptor validation
	}
	for _, c := range unknowns {
		a := arg(t, p, c.fn, c.i)
		if !a.Unknown {
			t.Errorf("%s arg%d: predicted %s, want unknown", c.fn, c.i, a.Robust.String())
		}
	}
	// By-value kinds no corpus prototype has but a submitted one may,
	// named like a descriptor so the fd rule cannot claim them either.
	proto := &cparse.Prototype{Name: "f"}
	for _, typ := range []*cparse.CType{
		{Kind: cparse.KindStruct, Name: "struct tm", Struct: "tm"},
		{Kind: cparse.KindArray, Name: "char", Len: 4},
		{Kind: cparse.KindVoid, Name: "void"},
	} {
		param := cparse.Param{Name: "fd", Type: typ}
		if a := predictArg(proto, 0, param, cparse.NewTypeTable(), nil); !a.Unknown {
			t.Errorf("by-value %s: predicted %s, want unknown", typ.Name, a.Robust.String())
		}
	}
}

// TestPredictSeedHints pins the injector hints: seeds only where the
// object extent is statically defensible, read-only skips only under
// const pointees.
func TestPredictSeedHints(t *testing.T) {
	p := fullPrediction(t)

	a := arg(t, p, "asctime", 0)
	if a.SeedSize != 44 || !a.SeedReadOnly {
		t.Errorf("asctime seed = {%d, ro=%v}, want {44, ro=true}", a.SeedSize, a.SeedReadOnly)
	}
	m := arg(t, p, "mktime", 0)
	if m.SeedSize != 44 || m.SeedReadOnly {
		t.Errorf("mktime seed = {%d, ro=%v}, want {44, ro=false}", m.SeedSize, m.SeedReadOnly)
	}
	c := arg(t, p, "ctime", 0)
	if c.SeedSize != 8 || !c.SeedReadOnly {
		t.Errorf("ctime seed = {%d, ro=%v}, want {8, ro=true}", c.SeedSize, c.SeedReadOnly)
	}

	seeds := p.Seeds()
	if _, ok := seeds["asctime"]; !ok {
		t.Error("asctime missing from seed set")
	}
	// abs(int) carries no pointer hints at all, so it must be omitted.
	if hints, ok := seeds["abs"]; ok {
		t.Errorf("abs unexpectedly seeded: %+v", hints)
	}
}
