package gens

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"healers/internal/clib"
	"healers/internal/cmem"
	"healers/internal/corpus"
	"healers/internal/cparse"
	"healers/internal/csim"
	"healers/internal/extract"
	"healers/internal/typesys"
)

func newProc() *csim.Process {
	fs := csim.NewFS()
	fs.Create(DefaultFixturePath, FixtureFileContents())
	fs.Create(DefaultFixtureDir+"/x.txt", []byte("x"))
	return csim.NewProcess(fs)
}

// drain enumerates all probes of a generator.
func drain(g Generator) []*Probe {
	var out []*Probe
	for pr := g.Next(); pr != nil; pr = g.Next() {
		out = append(out, pr)
	}
	return out
}

func TestArrayGenSequence(t *testing.T) {
	g := NewArrayGen(8192, 256)
	probes := drain(g)
	var funds []string
	for _, pr := range probes {
		funds = append(funds, pr.Fund)
	}
	joined := strings.Join(funds, " ")
	for _, want := range []string{"NULL", "INVALID", "RONLY_FIXED[0]", "RW_FIXED[0]", "WONLY_FIXED[0]"} {
		if !strings.Contains(joined, want) {
			t.Errorf("sequence missing %s: %v", want, funds)
		}
	}
}

func TestArrayGenAdaptiveGrowth(t *testing.T) {
	g := NewArrayGen(8192, 256)
	p := newProc()
	pr := g.protProbe(0, cmem.ProtRW, typesys.NameRWFixed)
	pr.Build(p)
	if pr.Region.Size != 0 {
		t.Fatalf("size = %d", pr.Region.Size)
	}
	// Fault one past the end: exact growth.
	np := g.Adjust(pr, pr.Region.Base)
	if np == nil || np.Size != 1 {
		t.Fatalf("Adjust -> %+v", np)
	}
	np.Build(p)
	// Fault 10 bytes in: grow to cover it.
	np2 := g.Adjust(np, np.Region.Base+10)
	if np2 == nil || np2.Size != 11 {
		t.Fatalf("Adjust(+10) -> size %d", np2.Size)
	}
	// Fault inside the region (protection violation): no adjustment.
	np2.Build(p)
	if g.Adjust(np2, np2.Region.Base+5) != nil {
		t.Error("inside-region fault adjusted")
	}
	// Beyond the cap: no adjustment.
	big := g.protProbe(8192, cmem.ProtRW, typesys.NameRWFixed)
	big.Build(p)
	if g.Adjust(big, big.Region.Base+cmem.Addr(big.Size)) != nil {
		t.Error("cap exceeded but adjusted")
	}
}

// TestArrayGenFillRuns checks that probes sharing their generator's
// fill runs each build their own size and fill, also after a longer
// run or another fill byte replaced the one they sliced, and that the
// process writing its regions leaves the runs as they were.
func TestArrayGenFillRuns(t *testing.T) {
	g := NewArrayGen(8192, 256)
	g.Fill = 'a'
	small := g.protProbe(4, cmem.ProtRW, typesys.NameRWFixed)
	large := g.protProbe(300, cmem.ProtRW, typesys.NameRWFixed)
	g.Fill = 'b'
	other := g.protProbe(8, cmem.ProtRead, typesys.NameROnlyFixed)
	g.Fill = 'a'
	longer := g.protProbe(1000, cmem.ProtRW, typesys.NameRWFixed)
	p := newProc()
	for _, c := range []struct {
		pr   *Probe
		fill byte
	}{{small, 'a'}, {large, 'a'}, {other, 'b'}, {longer, 'a'}, {small, 'a'}} {
		c.pr.Build(p)
		got, f := p.Mem.Read(c.pr.Region.Base, c.pr.Size)
		if f != nil {
			t.Fatalf("%s: read faulted: %v", c.pr.Fund, f)
		}
		if want := strings.Repeat(string(c.fill), c.pr.Size); string(got) != want {
			t.Errorf("%s holds %q, want %d bytes of %q", c.pr.Fund, got, c.pr.Size, c.fill)
		}
		if c.pr.Region.Size > 0 && c.fill == 'a' {
			if f := p.Mem.StoreByte(c.pr.Region.Base, 'z'); f != nil {
				t.Fatalf("%s: store faulted: %v", c.pr.Fund, f)
			}
		}
	}
	if run := g.fills['a']; strings.Count(string(run), "a") != len(run) {
		t.Error("a process's write reached the shared fill run")
	}
}

func TestArrayGenGeometricGrowthAboveLimit(t *testing.T) {
	g := NewArrayGen(8192, 256)
	p := newProc()
	pr := g.protProbe(300, cmem.ProtRW, typesys.NameRWFixed)
	pr.Build(p)
	np := g.Adjust(pr, pr.Region.Base+cmem.Addr(pr.Size))
	if np == nil || np.Size != 600 {
		t.Fatalf("geometric growth: got %d, want 600", np.Size)
	}
}

func TestArrayGenNoteSuccessConfirms(t *testing.T) {
	g := NewArrayGen(8192, 256)
	drain(g) // consume the base sequence
	p := newProc()
	pr := g.protProbe(56, cmem.ProtRW, typesys.NameRWFixed)
	pr.Build(p)
	g.NoteSuccess(pr)
	confirmations := drain(g)
	var names []string
	for _, c := range confirmations {
		names = append(names, c.Fund)
	}
	joined := strings.Join(names, " ")
	if !strings.Contains(joined, "RONLY_FIXED[56]") || !strings.Contains(joined, "WONLY_FIXED[56]") {
		t.Errorf("confirmation probes missing: %v", names)
	}
	// Idempotent per size.
	g.NoteSuccess(pr)
	if extra := drain(g); len(extra) != 0 {
		t.Errorf("duplicate confirmations: %v", extra)
	}
}

func TestRegionOwnership(t *testing.T) {
	p := newProc()
	r := mountFlush(p, 100, cmem.ProtRW)
	if !r.Owns(r.Base) || !r.Owns(r.Base+99) {
		t.Error("region does not own its bytes")
	}
	if !r.Owns(r.Base + 100) {
		t.Error("region does not own its guard byte")
	}
	if r.Owns(r.Base - 1) {
		t.Error("region owns below base")
	}
	if r.Owns(r.GuardEnd) {
		t.Error("region owns past its guard window")
	}
	// Flush mounting: access one past the end faults exactly there.
	if _, f := p.Mem.LoadByte(r.Base + 99); f != nil {
		t.Error("last byte not readable")
	}
	if _, f := p.Mem.LoadByte(r.Base + 100); f == nil {
		t.Error("guard byte readable")
	}
}

func TestCStringGenProbes(t *testing.T) {
	g := NewCStringGen(nil)
	probes := drain(g)
	p := newProc()
	sawRO, sawRW, sawUnterm, sawNull, sawInvalid := false, false, false, false, false
	for _, pr := range probes {
		v := pr.Build(p)
		switch {
		case strings.HasPrefix(pr.Fund, "CSTR_RONLY"):
			sawRO = true
			// Read-only: readable, not writable.
			if _, f := p.Mem.LoadByte(cmem.Addr(v)); f != nil {
				t.Errorf("%s not readable", pr.Fund)
			}
			if f := p.Mem.StoreByte(cmem.Addr(v), 'x'); f == nil {
				t.Errorf("%s writable", pr.Fund)
			}
		case strings.HasPrefix(pr.Fund, "CSTR_RW"):
			sawRW = true
		case strings.HasPrefix(pr.Fund, "UNTERM"):
			sawUnterm = true
			// Must not contain a terminator within its region.
			data, f := p.Mem.Read(cmem.Addr(v), pr.Size)
			if f != nil {
				t.Fatalf("unterm unreadable: %v", f)
			}
			for _, b := range data {
				if b == 0 {
					t.Error("unterm region contains NUL")
				}
			}
		case pr.Fund == typesys.TypeNull:
			sawNull = true
			if v != 0 {
				t.Error("null probe non-zero")
			}
		case pr.Fund == typesys.TypeInvalid:
			sawInvalid = true
		}
	}
	if !sawRO || !sawRW || !sawUnterm || !sawNull || !sawInvalid {
		t.Errorf("missing probe kinds: ro=%v rw=%v unterm=%v null=%v invalid=%v",
			sawRO, sawRW, sawUnterm, sawNull, sawInvalid)
	}
}

func TestUntermProbeFillsDiffer(t *testing.T) {
	p := newProc()
	a := UntermProbe(16)
	b := UntermProbe(16)
	va := a.Build(p)
	vb := b.Build(p)
	ba, _ := p.Mem.LoadByte(cmem.Addr(va))
	bb, _ := p.Mem.LoadByte(cmem.Addr(vb))
	if ba == bb {
		t.Errorf("two unterm regions share fill %c — comparison functions would chase both off their guards", ba)
	}
	if ba == 'A' || bb == 'A' {
		t.Error("unterm fill collides with the long-string payload")
	}
}

func TestFileGenProbes(t *testing.T) {
	g := NewFileGen("")
	p := newProc()
	var funds []string
	for _, pr := range drain(g) {
		v := pr.Build(p)
		funds = append(funds, pr.Fund)
		if pr.Fund == typesys.TypeROnlyFile || pr.Fund == typesys.TypeRWFile {
			if v == 0 {
				t.Errorf("%s probe failed to open", pr.Fund)
			}
			fd := p.FILEFd(cmem.Addr(v))
			if p.FD(fd) == nil {
				t.Errorf("%s probe's descriptor not open", pr.Fund)
			}
		}
	}
	joined := strings.Join(funds, " ")
	for _, want := range []string{typesys.TypeROnlyFile, typesys.TypeRWFile, typesys.TypeWOnlyFile, "RW_FIXED[152]", "NULL", "INVALID"} {
		if !strings.Contains(joined, want) {
			t.Errorf("file probes missing %s: %v", want, funds)
		}
	}
}

func TestDirGenProbes(t *testing.T) {
	g := NewDirGen("")
	p := newProc()
	for _, pr := range drain(g) {
		v := pr.Build(p)
		if pr.Fund == typesys.TypeOpenDir && v == 0 {
			t.Error("open dir probe failed")
		}
	}
}

func TestIntGenProbes(t *testing.T) {
	g := NewIntGen(8)
	pos, neg, zero := 0, 0, 0
	p := newProc()
	for _, pr := range drain(g) {
		v := int64(pr.Build(p))
		switch pr.Fund {
		case typesys.TypeIntPos:
			pos++
			if v <= 0 {
				t.Errorf("POS probe %d", v)
			}
		case typesys.TypeIntNeg:
			neg++
			if v >= 0 {
				t.Errorf("NEG probe %d", v)
			}
		case typesys.TypeIntZero:
			zero++
			if v != 0 {
				t.Errorf("ZERO probe %d", v)
			}
		}
	}
	if pos == 0 || neg == 0 || zero != 1 {
		t.Errorf("pos=%d neg=%d zero=%d", pos, neg, zero)
	}
	if int64(g.Default().Build(p)) != 8 {
		t.Error("default value wrong")
	}
}

func TestFuncPtrGen(t *testing.T) {
	g := NewFuncPtrGen()
	p := newProc()
	for _, pr := range drain(g) {
		v := pr.Build(p)
		if pr.Fund == typesys.TypeFuncPtr && !p.IsCode(cmem.Addr(v)) {
			t.Error("valid callback not in code range")
		}
	}
}

func TestFdGen(t *testing.T) {
	g := NewFdGen()
	p := newProc()
	for _, pr := range drain(g) {
		v := pr.Build(p)
		if pr.Fund == TypeFdOpen && p.FD(int(int32(uint32(v)))) == nil {
			t.Error("open fd probe not open")
		}
	}
}

func parseParam(t *testing.T, src string) (cparse.Param, *cparse.TypeTable) {
	t.Helper()
	parser := cparse.NewParser(cparse.NewTypeTable())
	prelude := `
typedef unsigned long size_t;
typedef long time_t;
typedef unsigned int speed_t;
struct _IO_FILE { int _m; char _r[148]; };
typedef struct _IO_FILE FILE;
struct __dirstream { int _m; char _r[60]; };
typedef struct __dirstream DIR;
struct tm { int f[9]; long g; };
`
	if _, err := parser.Parse("prelude.h", prelude); err != nil {
		t.Fatal(err)
	}
	decls, err := parser.Parse("one.h", src)
	if err != nil {
		t.Fatal(err)
	}
	return decls.Prototypes[0].Params[0], parser.Table()
}

func TestForParamSelection(t *testing.T) {
	tests := []struct {
		proto string
		want  string
	}{
		{"int f(const char *s);", "cstring"},
		{"int f(char *buf);", "charbuf"},
		{"int f(FILE *stream);", "file"},
		{"int f(DIR *dirp);", "dir"},
		{"int f(const struct tm *tm);", "array"},
		{"int f(const time_t *timep);", "array"},
		{"int f(int fd);", "fd"},
		{"int f(int whence);", "int"},
		{"int f(size_t n);", "int"},
		{"int f(double x);", "double"},
		{"int f(void *p);", "array"},
		{"int f(char **endptr);", "array"},
		{"void f(int (*cmp)(const void *, const void *));", "funcptr"},
	}
	for _, tt := range tests {
		param, table := parseParam(t, tt.proto)
		g := ForParam(param, table)
		if g.Name() != tt.want {
			t.Errorf("%s -> %s, want %s", tt.proto, g.Name(), tt.want)
		}
	}
}

// selection renders what ForParam picks for a parameter: the
// generator, its Default probe built in a fresh process, and the
// length of its probe sequence.
func selection(param cparse.Param, table *cparse.TypeTable) string {
	g := ForParam(param, table)
	d := g.Default()
	v := d.Build(newProc())
	return fmt.Sprintf("%s default=%s/%d/%#x probes=%d", g.Name(), d.Fund, d.Size, v, len(drain(g)))
}

// TestClassifyPinsSelection pins Classify and ForParam for one
// synthetic parameter per cparse.Kind and pointee shape, including
// kinds no prototype of the corpus has (by-value struct, array, void,
// float) but a user prototype may, and then the selection for every
// parameter of every extracted prototype as one digest.
func TestClassifyPinsSelection(t *testing.T) {
	file := &cparse.CType{Kind: cparse.KindStruct, Name: "struct _IO_FILE", Struct: "_IO_FILE"}
	dir := &cparse.CType{Kind: cparse.KindStruct, Name: "struct __dirstream", Struct: "__dirstream"}
	tm := &cparse.CType{Kind: cparse.KindStruct, Name: "struct tm", Struct: "tm"}
	cchar := &cparse.CType{Kind: cparse.KindInt, Name: "char", Size: 1, Const: true}
	char := &cparse.CType{Kind: cparse.KindInt, Name: "char", Size: 1}
	timeT := &cparse.CType{Kind: cparse.KindInt, Name: "time_t", Size: 8}
	void := &cparse.CType{Kind: cparse.KindVoid, Name: "void"}
	integer := &cparse.CType{Kind: cparse.KindInt, Name: "int", Size: 4}
	ptr := func(e *cparse.CType) *cparse.CType {
		return &cparse.CType{Kind: cparse.KindPointer, Name: e.Name + "*", Elem: e}
	}
	tests := []struct {
		name  string
		typ   *cparse.CType
		class Class
		want  string
	}{
		{"stream", ptr(file), ClassFile, "file default=RW_FILE/0/0x10001000 probes=10"},
		{"dirp", ptr(dir), ClassDir, "dir default=OPEN_DIR_F/0/0x10001000 probes=8"},
		{"s", ptr(cchar), ClassCString, "cstring default=CSTR_RW[5]/6/0x200000001ffa probes=19"},
		{"mode", ptr(cchar), ClassCString, "cstring default=CSTR_RW[1]/2/0x200000001ffe probes=19"},
		{"buf", ptr(char), ClassCharBuf, "charbuf default=RW_FIXED[256]/256/0x200000001f00 probes=21"},
		{"timep", ptr(timeT), ClassPtr, "array default=RW_FIXED[256]/256/0x200000001f00 probes=9"},
		{"tm", ptr(tm), ClassPtr, "array default=RW_FIXED[256]/256/0x200000001f00 probes=7"},
		{"p", ptr(void), ClassPtr, "array default=RW_FIXED[256]/256/0x200000001f00 probes=7"},
		{"endptr", ptr(ptr(char)), ClassPtr, "array default=RW_FIXED[256]/256/0x200000001f00 probes=7"},
		{"tv", tm, ClassInt, "int default=INT_ZERO/0/0x0 probes=9"},
		{"cmp", &cparse.CType{Kind: cparse.KindFuncPtr, Name: "(*)()"}, ClassFuncPtr, "funcptr default=FUNC_PTR/0/0x400010 probes=5"},
		{"x", &cparse.CType{Kind: cparse.KindDouble, Name: "double", Size: 8}, ClassDouble, "double default=DBL/0/0x3ff0000000000000 probes=5"},
		{"y", &cparse.CType{Kind: cparse.KindFloat, Name: "float", Size: 4}, ClassDouble, "double default=DBL/0/0x3ff0000000000000 probes=5"},
		{"fd", integer, ClassFd, "fd default=FD_OPEN/0/0x3 probes=6"},
		{"base", integer, ClassInt, "int default=INT_POS/0/0xa probes=9"},
		{"n", &cparse.CType{Kind: cparse.KindInt, Name: "size_t", Size: 8, Unsigned: true}, ClassInt, "int default=INT_POS/0/0x8 probes=9"},
		{"fd", tm, ClassInt, "int default=INT_ZERO/0/0x0 probes=9"},
		{"arr", &cparse.CType{Kind: cparse.KindArray, Name: "char", Elem: char, Len: 4}, ClassInt, "int default=INT_POS/0/0x8 probes=9"},
		{"v", void, ClassInt, "int default=INT_POS/0/0x8 probes=9"},
		{"fd", void, ClassInt, "int default=INT_POS/0/0x8 probes=9"},
	}
	table := cparse.NewTypeTable()
	for _, tt := range tests {
		param := cparse.Param{Name: tt.name, Type: tt.typ}
		if got := Classify(param); got != tt.class {
			t.Errorf("%s %s: class %s, want %s", tt.typ.Name, tt.name, got, tt.class)
		}
		if got := selection(param, table); got != tt.want {
			t.Errorf("%s %s: %s, want %s", tt.typ.Name, tt.name, got, tt.want)
		}
	}

	ext, err := extract.Run(corpus.Build(clib.New()))
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	n := 0
	for _, fi := range ext.Funcs {
		if fi.Proto == nil {
			continue
		}
		for i, param := range fi.Proto.Params {
			fmt.Fprintf(h, "%s/%d %s\n", fi.Symbol.Name, i, selection(param, ext.Table))
			n++
		}
	}
	const want = "720af6944050990b7304234441af92b39bf7d28d30c1bb4e3f83f6f1d76a7bb7"
	if got := fmt.Sprintf("%x", h.Sum(nil)); n != 297 || got != want {
		t.Errorf("corpus selection over %d parameters = %s, want 297 parameters, %s", n, got, want)
	}
}

func TestTimeTGetsVariantFills(t *testing.T) {
	param, table := parseParam(t, "int f(const time_t *timep);")
	g, ok := ForParam(param, table).(*ArrayGen)
	if !ok {
		t.Fatal("time_t* did not select ArrayGen")
	}
	if len(g.VariantFills) == 0 {
		t.Error("time_t* ArrayGen has no variant fills (gmtime's EINVAL path needs them)")
	}
}

func TestGeneratorHierarchiesFinalize(t *testing.T) {
	generators := []Generator{
		NewArrayGen(8192, 256),
		NewCStringGen(nil),
		NewCharBufGen(),
		NewFileGen(""),
		NewDirGen(""),
		NewIntGen(8),
		NewDoubleGen(),
		NewFuncPtrGen(),
		NewFdGen(),
	}
	for _, g := range generators {
		drain(g) // observe everything first
		h := g.Hierarchy()
		if h == nil {
			t.Errorf("%s: nil hierarchy", g.Name())
			continue
		}
		// Every probe fund the generator produced must resolve.
		g2 := cloneGen(g)
		for _, pr := range drain(g2) {
			if _, ok := h.Lookup(pr.Fund); !ok {
				t.Errorf("%s: fund %s not in hierarchy", g.Name(), pr.Fund)
			}
		}
	}
}

// cloneGen builds a fresh generator of the same kind (generators are
// single-pass).
func cloneGen(g Generator) Generator {
	switch g.(type) {
	case *ArrayGen:
		return NewArrayGen(8192, 256)
	case *CStringGen:
		return NewCStringGen(nil)
	case *CharBufGen:
		return NewCharBufGen()
	case *FileGen:
		return NewFileGen("")
	case *DirGen:
		return NewDirGen("")
	case *IntGen:
		return NewIntGen(8)
	case *DoubleGen:
		return NewDoubleGen()
	case *FuncPtrGen:
		return NewFuncPtrGen()
	case *FdGen:
		return NewFdGen()
	}
	return nil
}
