package bitflip

import (
	"strings"
	"testing"

	"healers/internal/clib"
	"healers/internal/corpus"
	"healers/internal/decl"
	"healers/internal/extract"
	"healers/internal/injector"
)

func TestBitFlipPrevention(t *testing.T) {
	lib := clib.New()
	ext, err := extract.Run(corpus.Build(lib))
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"asctime", "strcpy", "strlen", "fgetc", "memcpy"}
	campaign, err := injector.New(lib, injector.DefaultConfig()).InjectAll(ext, names)
	if err != nil {
		t.Fatal(err)
	}
	decls := decl.ApplySemiAutoEdits(campaign.Decls())
	bf, err := Evaluate(lib, ext, decls, names)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", bf.Format())
	total := bf.Totals()
	if total.Trials == 0 {
		t.Fatal("no trials executed")
	}
	if total.UnwrappedCrashes == 0 {
		t.Fatal("bit flips never crashed the bare library — pointer flips should")
	}
	if rate := total.PreventionRate(); rate < 0.9 {
		t.Errorf("prevention rate = %.2f, want >= 0.9", rate)
	}
	if !strings.Contains(bf.Format(), "TOTAL") {
		t.Error("missing totals row")
	}
}

func TestBitFlipUnknownFunction(t *testing.T) {
	lib := clib.New()
	ext, err := extract.Run(corpus.Build(lib))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Evaluate(lib, ext, decl.NewDeclSet(), []string{"no_such_fn"}); err == nil {
		t.Error("unknown function accepted")
	}
}
