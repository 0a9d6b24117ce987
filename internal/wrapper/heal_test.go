package wrapper

import (
	"bytes"
	"strings"
	"testing"

	"healers/internal/cmem"
	"healers/internal/csim"
	"healers/internal/decl"
	"healers/internal/obs"
)

func healOpts() Options {
	opts := DefaultOptions()
	opts.Mode = ModeHeal
	return opts
}

// lastHeal fetches the most recent repair record, failing the test when
// none was made.
func lastHeal(t *testing.T, ip *Interposer) Heal {
	t.Helper()
	heals := ip.Stats().Heals
	if len(heals) == 0 {
		t.Fatal("no repairs recorded")
	}
	return heals[len(heals)-1]
}

// TestHealStringTruncateInPlace: an unterminated heap string is healed
// by planting a NUL at the allocation's last byte (in-place truncation,
// the preferred repair), after which strlen runs cleanly on it.
func TestHealStringTruncateInPlace(t *testing.T) {
	lib, decls := fullAutoDecls(t)
	p := newProc()
	ip := Attach(p, lib, decls, healOpts())

	s := ip.Call(p, "malloc", 64)
	if s == 0 {
		t.Fatal("malloc failed")
	}
	if f := p.Mem.Write(cmem.Addr(s), bytes.Repeat([]byte{'A'}, 64)); f != nil {
		t.Fatal(f)
	}
	if ok, _ := ip.CheckOnly("strlen", s); ok {
		t.Fatal("unterminated heap string unexpectedly passes the reject check")
	}

	out := p.Run(func() uint64 { return ip.Call(p, "strlen", s) })
	if out.Crashed() {
		t.Fatalf("healed strlen crashed: %v", out)
	}
	if out.Ret != 63 {
		t.Errorf("strlen after truncation = %d, want 63", out.Ret)
	}
	if b, f := p.Mem.LoadByte(cmem.Addr(s) + 63); f != nil || b != 0 {
		t.Errorf("no NUL planted at allocation end: byte=%d fault=%v", b, f)
	}
	if h := lastHeal(t, ip); h.Action != "truncate" || h.Func != "strlen" {
		t.Errorf("heal record = %+v, want strlen truncate", h)
	}
	if got := ip.Stats().Healed; got != 1 {
		t.Errorf("Healed = %d, want 1", got)
	}
	// The truncated string is a fixpoint: reject mode now accepts it.
	if ok, reason := ip.CheckOnly("strlen", s); !ok {
		t.Errorf("truncated string still rejected: %s", reason)
	}
}

// TestHealStringCopyToSinkReadOnly: when the unterminated string lives
// in read-only memory no NUL can be planted in place, so the readable
// prefix is copied into the sink and the argument redirected there.
func TestHealStringCopyToSinkReadOnly(t *testing.T) {
	lib, decls := fullAutoDecls(t)
	p := newProc()
	ip := Attach(p, lib, decls, healOpts())

	s := region(t, p, cmem.PageSize, cmem.ProtRW)
	if f := p.Mem.Write(s, bytes.Repeat([]byte{'B'}, cmem.PageSize)); f != nil {
		t.Fatal(f)
	}
	p.Mem.Protect(s, cmem.PageSize, cmem.ProtRead)

	out := p.Run(func() uint64 { return ip.Call(p, "strlen", uint64(s)) })
	if out.Crashed() {
		t.Fatalf("healed strlen crashed: %v", out)
	}
	if h := lastHeal(t, ip); h.Action != "copy-to-sink" {
		t.Errorf("heal action = %q, want copy-to-sink", h.Action)
	}
	// The sink copy holds the readable prefix (one page minus the NUL).
	if want := uint64(cmem.PageSize - 1); out.Ret != want {
		t.Errorf("strlen on sink copy = %d, want %d", out.Ret, want)
	}
	// The original read-only bytes were not modified.
	if b, _ := p.Mem.LoadByte(s + cmem.PageSize - 1); b != 'B' {
		t.Errorf("read-only source modified: last byte = %q", b)
	}
}

// TestHealMemcpyRedirectSink: a wild destination pointer is redirected
// to a zeroed sink chunk sized for the call's worst-case extent, and the
// copy lands there instead of crashing.
func TestHealMemcpyRedirectSink(t *testing.T) {
	lib, decls := fullAutoDecls(t)
	p := newProc()
	ip := Attach(p, lib, decls, healOpts())

	src := region(t, p, 16, cmem.ProtRW)
	if f := p.Mem.Write(src, []byte("sixteen bytes !!")); f != nil {
		t.Fatal(f)
	}
	out := p.Run(func() uint64 { return ip.Call(p, "memcpy", 0xdead0000, uint64(src), 16) })
	if out.Crashed() {
		t.Fatalf("healed memcpy crashed: %v", out)
	}
	if h := lastHeal(t, ip); h.Action != "redirect-sink" || h.Arg != 0 {
		t.Errorf("heal record = %+v, want arg0 redirect-sink", h)
	}
	// memcpy returns its (repaired) destination; the bytes landed there.
	if out.Ret == 0 || out.Ret == 0xdead0000 {
		t.Fatalf("destination not redirected: ret = %#x", out.Ret)
	}
	got, f := p.Mem.Read(cmem.Addr(out.Ret), 16)
	if f != nil || string(got) != "sixteen bytes !!" {
		t.Errorf("sink content = %q (fault %v), want the copied bytes", got, f)
	}
}

// TestHealMemcpyUnboundedRefused: redirection is refused when an
// integer argument makes the worst-case access exceed the sink (the
// bounded-repair invariant); the call falls back to a clean rejection
// instead of crashing or hanging.
func TestHealMemcpyUnboundedRefused(t *testing.T) {
	lib, decls := fullAutoDecls(t)
	p := newProc()
	p.SetStepBudget(200_000)
	ip := Attach(p, lib, decls, healOpts())

	src := region(t, p, 16, cmem.ProtRW)
	p.ClearErrno()
	out := p.Run(func() uint64 { return ip.Call(p, "memcpy", 0xdead0000, uint64(src), 1<<30) })
	if out.Crashed() || out.Kind == csim.OutcomeHang {
		t.Fatalf("unbounded memcpy not contained: %v", out)
	}
	if out.Ret != 0 || p.Errno() != csim.EINVAL {
		t.Errorf("want EINVAL rejection, got ret=%#x errno=%d", out.Ret, p.Errno())
	}
	st := ip.Stats()
	if st.Healed != 0 || len(st.Heals) != 0 {
		t.Errorf("refused repair still recorded: %+v", st.Heals)
	}
}

// TestHealFILESubstitute: a wild FILE pointer gets the interposer's
// sink stream substituted (full-auto declarations: the FILE-typed array
// check fails, and raw sink bytes would not survive the fileno
// validation, so a real stream is handed out).
func TestHealFILESubstitute(t *testing.T) {
	lib, decls := fullAutoDecls(t)
	p := newProc()
	ip := Attach(p, lib, decls, healOpts())

	out := p.Run(func() uint64 { return ip.Call(p, "fgetc", 0xdead0000) })
	if out.Crashed() {
		t.Fatalf("healed fgetc crashed: %v", out)
	}
	if h := lastHeal(t, ip); h.Action != "substitute-file" {
		t.Errorf("heal action = %q, want substitute-file", h.Action)
	}
}

// TestHealAssertionFILESubstitute: under semi-automatic declarations a
// corrupted FILE fails the file_integrity assertion, and the heal
// strategy substitutes the sink stream and re-runs the assertion (the
// assertion-level repair path).
func TestHealAssertionFILESubstitute(t *testing.T) {
	lib, decls := fullAutoDecls(t)
	semiDecls := decl.ApplySemiAutoEdits(decls)
	p := newProc()
	ip := Attach(p, lib, semiDecls, healOpts())

	real := p.Fopen("/data/file.txt", "r+")
	if real == 0 {
		t.Fatal("fopen failed")
	}
	copyAt := region(t, p, csim.SizeofFILE, cmem.ProtRW)
	data, _ := p.Mem.Read(real, csim.SizeofFILE)
	p.Mem.Write(copyAt, data)
	p.Mem.WriteU64(copyAt+csim.FILEOffBufPtr, 0xdead0000)
	p.Mem.WriteU64(copyAt+csim.FILEOffBufPos, 4)

	out := p.Run(func() uint64 { return ip.Call(p, "fgetc", uint64(copyAt)) })
	if out.Crashed() {
		t.Fatalf("healed fgetc(corrupted) crashed: %v", out)
	}
	h := lastHeal(t, ip)
	if h.Action != "substitute-file" {
		t.Errorf("heal action = %q, want substitute-file", h.Action)
	}
	if h.Robust != string(decl.AssertFileIntegrity) {
		t.Errorf("heal robust = %q, want the file_integrity assertion", h.Robust)
	}
	if ip.Stats().Healed != 1 {
		t.Errorf("Healed = %d, want 1", ip.Stats().Healed)
	}
}

// TestHealFgetsClampPositive: fgets(s, 0, fp) trips the wraparound hang
// in the unwrapped library; the heal strategy clamps the INT_POSITIVE
// argument to 1 and forwards, so the call terminates cleanly.
func TestHealFgetsClampPositive(t *testing.T) {
	lib, decls := fullAutoDecls(t)
	p := newProc()
	p.SetStepBudget(50_000)
	ip := Attach(p, lib, decls, healOpts())

	fp := p.Fopen("/data/file.txt", "r")
	s := region(t, p, 64, cmem.ProtRW)
	out := p.Run(func() uint64 { return ip.Call(p, "fgets", uint64(s), 0, uint64(fp)) })
	if out.Kind == csim.OutcomeHang || out.Crashed() {
		t.Fatalf("healed fgets(size=0) not contained: %v", out)
	}
	if h := lastHeal(t, ip); h.Action != "clamp-int" || h.Arg != 1 {
		t.Errorf("heal record = %+v, want arg1 clamp-int", h)
	}
}

// TestHealQsortCallbackSubstitute: a garbage comparator is replaced by
// the registered always-equal no-op, which keeps qsort total (and, as a
// constant comparator, leaves the array unpermuted).
func TestHealQsortCallbackSubstitute(t *testing.T) {
	lib, decls := fullAutoDecls(t)
	p := newProc()
	ip := Attach(p, lib, decls, healOpts())

	base := region(t, p, 64, cmem.ProtRW)
	want := []byte("dcba4321")
	if f := p.Mem.Write(base, want); f != nil {
		t.Fatal(f)
	}
	out := p.Run(func() uint64 { return ip.Call(p, "qsort", uint64(base), 2, 4, 0xdead0000) })
	if out.Crashed() {
		t.Fatalf("healed qsort crashed: %v", out)
	}
	if h := lastHeal(t, ip); h.Action != "substitute-callback" {
		t.Errorf("heal action = %q, want substitute-callback", h.Action)
	}
	got, _ := p.Mem.Read(base, 8)
	if !bytes.Equal(got, want) {
		t.Errorf("constant comparator permuted the array: %q", got)
	}
}

// TestHealSubstituteFDStaleness: white-box check of the sink descriptor
// cache. A healed close() consumes the substituted descriptor; the next
// repair must detect the stale cache entry and open a fresh one rather
// than hand out a dead fd (which would fail the fixpoint re-check).
func TestHealSubstituteFDStaleness(t *testing.T) {
	lib, decls := fullAutoDecls(t)
	p := newProc()
	ip := Attach(p, lib, decls, healOpts())

	args := []uint64{9999}
	action, ok := ip.substituteFD(args, 0)
	if !ok || action != "substitute-fd" {
		t.Fatalf("substituteFD = %q, %v", action, ok)
	}
	first := int(args[0])
	if p.FD(first) == nil {
		t.Fatal("substituted descriptor is not open")
	}

	// Consume the sink descriptor, as a healed close() would.
	p.CloseFD(first)
	args[0] = 9999
	if _, ok := ip.substituteFD(args, 0); !ok {
		t.Fatal("substituteFD failed after the sink fd was consumed")
	}
	if p.FD(int(args[0])) == nil {
		t.Error("stale sink descriptor handed out after close")
	}
}

// TestHealSubstituteFILEStaleness: the analogous staleness hazard for
// the sink stream — a healed fclose() closes it, and the next repair
// must re-validate and reopen.
func TestHealSubstituteFILEStaleness(t *testing.T) {
	lib, decls := fullAutoDecls(t)
	p := newProc()
	ip := Attach(p, lib, decls, healOpts())

	args := []uint64{0xdead0000}
	if _, ok := ip.substituteFILE(args, 0); !ok {
		t.Fatal("substituteFILE failed")
	}
	first := args[0]
	if !ip.checkFILE(cmem.Addr(first), decl.OpenFILE) {
		t.Fatal("substituted stream fails validation")
	}

	// A healed fclose(garbage) substitutes the sink stream and then
	// genuinely closes it — the end-to-end version of the hazard.
	out := p.Run(func() uint64 { return ip.Call(p, "fclose", 0xdead0000) })
	if out.Crashed() {
		t.Fatalf("healed fclose crashed: %v", out)
	}

	args[0] = 0xdead0000
	if _, ok := ip.substituteFILE(args, 0); !ok {
		t.Fatal("substituteFILE failed after the sink stream was consumed")
	}
	if !ip.checkFILE(cmem.Addr(args[0]), decl.OpenFILE) {
		t.Error("stale sink stream handed out after fclose")
	}
}

// TestHealMetamorphicFixpoint is the metamorphic property behind the
// heal strategy (repair invariant 1, checked end to end): for a set of
// calls whose arguments fail their checks in different ways, repair
// every failing argument exactly as Call does, then re-issue the
// repaired vector through the unmodified Reject-mode checks — it must
// pass cleanly, and the fixpoint-failure counter must stay zero.
func TestHealMetamorphicFixpoint(t *testing.T) {
	lib, decls := fullAutoDecls(t)

	cases := []struct {
		name string
		args func(t *testing.T, p *csim.Process, ip *Interposer) []uint64
	}{
		{"strlen-unterminated-heap", func(t *testing.T, p *csim.Process, ip *Interposer) []uint64 {
			s := ip.Call(p, "malloc", 32)
			p.Mem.Write(cmem.Addr(s), bytes.Repeat([]byte{'C'}, 32))
			return []uint64{s}
		}},
		{"memcpy-wild-dst", func(t *testing.T, p *csim.Process, ip *Interposer) []uint64 {
			src := region(t, p, 16, cmem.ProtRW)
			return []uint64{0xdead0000, uint64(src), 16}
		}},
		{"fgets-nonpositive-size", func(t *testing.T, p *csim.Process, ip *Interposer) []uint64 {
			s := region(t, p, 64, cmem.ProtRW)
			fp := p.Fopen("/data/file.txt", "r")
			return []uint64{uint64(s), 0, uint64(fp)}
		}},
		{"fgetc-wild-file", func(t *testing.T, p *csim.Process, ip *Interposer) []uint64 {
			return []uint64{0xdead0000}
		}},
		{"qsort-wild-comparator", func(t *testing.T, p *csim.Process, ip *Interposer) []uint64 {
			base := region(t, p, 64, cmem.ProtRW)
			return []uint64{uint64(base), 4, 4, 0xdead0000}
		}},
	}
	for _, tc := range cases {
		name := strings.SplitN(tc.name, "-", 2)[0]
		t.Run(tc.name, func(t *testing.T) {
			p := newProc()
			opts := healOpts()
			opts.Metrics = obs.NewRegistry()
			ip := Attach(p, lib, decls, opts)
			held := tc.args(t, p, ip)

			d, declared := ip.decls.Get(name)
			if !declared {
				t.Fatalf("%s not declared", name)
			}
			healed := 0
			for i, arg := range d.Args {
				if i >= len(held) {
					break
				}
				if ok, _ := ip.checkArg(arg, held, i); ok {
					continue
				}
				if !ip.healArg(d, i, arg, held) {
					t.Fatalf("arg%d (%s) unrepairable", i, arg.Robust)
				}
				healed++
			}
			if healed == 0 {
				t.Fatal("scenario exercised no repair")
			}
			// The metamorphic relation: the repaired vector re-issued
			// through Reject mode passes cleanly.
			if ok, reason := ip.CheckOnly(name, held...); !ok {
				t.Errorf("repaired vector rejected: %s", reason)
			}
			if v := opts.Metrics.Counter("healers_wrapper_heal_fixpoint_failures_total").Value(); v != 0 {
				t.Errorf("fixpoint failures = %d, want 0", v)
			}
		})
	}
}

// TestRepairArgDispatch drives repairArg directly over synthetic
// declarations, one case per dispatch branch — including the robust
// types the shipped campaign never produces (FD_VALID, the int-clamp
// family, bounded strings) and the refusal paths (DIR-typed buffers,
// unevaluable or negative extents, unconstrained arguments).
func TestRepairArgDispatch(t *testing.T) {
	lib, decls := fullAutoDecls(t)

	cases := []struct {
		name   string
		ctype  string
		robust decl.RobustType
		arg    uint64
		ok     bool
		action string
		want   uint64 // expected repaired value; checked when checkVal is true
		chkVal bool
	}{
		{name: "dir-array-unrepairable", ctype: "DIR *", robust: decl.RobustType{Base: "R_ARRAY", Size: decl.Fixed(8)}, arg: 0xdead0000, ok: false},
		{name: "array-size-uneval", ctype: "void *", robust: decl.RobustType{Base: "R_ARRAY"}, arg: 0xdead0000, ok: false},
		{name: "array-size-negative", ctype: "void *", robust: decl.RobustType{Base: "R_ARRAY", Size: decl.Fixed(-1)}, arg: 0xdead0000, ok: false},
		{name: "bounded-size-uneval", ctype: "char *", robust: decl.RobustType{Base: "R_BOUNDED"}, arg: 0xdead0000, ok: false},
		{name: "bounded-wild", ctype: "char *", robust: decl.RobustType{Base: "R_BOUNDED", Size: decl.Fixed(4)}, arg: 0xdead0000, ok: true, action: "redirect-sink"},
		{name: "writable-cstr-wild", ctype: "char *", robust: decl.RobustType{Base: "W_CSTR"}, arg: 0xdead0000, ok: true, action: "redirect-sink"},
		{name: "file-typed-array", ctype: "FILE *", robust: decl.RobustType{Base: "RW_ARRAY", Size: decl.Fixed(8)}, arg: 0xdead0000, ok: true, action: "substitute-file"},
		{name: "int-positive", ctype: "int", robust: decl.RobustType{Base: "INT_POSITIVE"}, arg: 0, ok: true, action: "clamp-int", want: 1, chkVal: true},
		{name: "int-nonneg", ctype: "int", robust: decl.RobustType{Base: "INT_NONNEG"}, arg: ^uint64(0), ok: true, action: "clamp-int", want: 0, chkVal: true},
		{name: "int-nonpos", ctype: "int", robust: decl.RobustType{Base: "INT_NONPOS"}, arg: 5, ok: true, action: "clamp-int", want: 0, chkVal: true},
		{name: "int-negative", ctype: "int", robust: decl.RobustType{Base: "INT_NEGATIVE"}, arg: 0, ok: true, action: "clamp-int", want: ^uint64(0), chkVal: true},
		{name: "fd-valid-wild", ctype: "int", robust: decl.RobustType{Base: "FD_VALID"}, arg: 9999, ok: true, action: "substitute-fd"},
		{name: "unconstrained-refused", ctype: "int", robust: decl.RobustType{Base: "UNCONSTRAINED"}, arg: 7, ok: false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := newProc()
			ip := Attach(p, lib, decls, healOpts())

			ad := decl.ArgDecl{CType: tc.ctype, Robust: tc.robust}
			d := &decl.FuncDecl{Name: "synthetic", Ret: "int", Args: []decl.ArgDecl{ad}}
			args := []uint64{tc.arg}

			action, ok := ip.repairArg(d, 0, ad, args)
			if ok != tc.ok {
				t.Fatalf("repairArg ok = %v (action %q), want %v", ok, action, tc.ok)
			}
			if !ok {
				if args[0] != tc.arg {
					t.Errorf("refused repair mutated the argument: %#x -> %#x", tc.arg, args[0])
				}
				return
			}
			if action != tc.action {
				t.Errorf("action = %q, want %q", action, tc.action)
			}
			if tc.chkVal && args[0] != tc.want {
				t.Errorf("repaired value = %#x, want %#x", args[0], tc.want)
			}

			// Fixpoint on the repaired value, per robust-type family.
			switch tc.robust.Base {
			case "R_BOUNDED", "W_CSTR":
				if !ip.checkCString(cmem.Addr(args[0]), tc.robust.Base == "W_CSTR") {
					t.Errorf("repaired string at %#x fails its own check", args[0])
				}
			case "RW_ARRAY":
				if !ip.checkFILE(cmem.Addr(args[0]), decl.OpenFILE) {
					t.Errorf("substituted FILE at %#x fails the stream check", args[0])
				}
			case "FD_VALID":
				if p.FD(int(int32(uint32(args[0])))) == nil {
					t.Errorf("substituted fd %d is not open", int32(uint32(args[0])))
				}
			}
		})
	}
}

// poolGets reads the pages taken from the page pool.
func poolGets() int64 { return cmem.PoolCounts().Gets }

// TestSinkRepairsTakeOnePage pins the structural property behind heal
// mode's cheap repairs: the 16-page sink region is mapped as shared
// zero pages and each chunk is reset to them, so a redirect-sink repair
// and a copy-to-sink repair each take only the page their call writes
// from the page pool, where mapping and clearing the sink took 16, and
// a redirected source the call only reads takes none. It also pins
// Zero over a chunk a call wrote: the chunk reads back zeros and its
// private page goes back to the pool.
func TestSinkRepairsTakeOnePage(t *testing.T) {
	lib, decls := fullAutoDecls(t)
	p := newProc()
	defer p.Release()
	ip := Attach(p, lib, decls, healOpts())
	src := region(t, p, 16, cmem.ProtRW)
	if f := p.Mem.Write(src, []byte("sixteen bytes !!")); f != nil {
		t.Fatal(f)
	}
	ro := region(t, p, cmem.PageSize, cmem.ProtRW)
	if f := p.Mem.Write(ro, bytes.Repeat([]byte{'B'}, cmem.PageSize)); f != nil {
		t.Fatal(f)
	}
	p.Mem.Protect(ro, cmem.PageSize, cmem.ProtRead)

	gets := poolGets()
	out := p.Run(func() uint64 { return ip.Call(p, "memcpy", uint64(src), 0xdead0000, 16) })
	if h := lastHeal(t, ip); out.Crashed() || h.Action != "redirect-sink" || h.Arg != 1 {
		t.Fatalf("memcpy: %v, repair %+v; want an arg 1 redirect-sink repair", out, h)
	}
	if n := poolGets() - gets; n != 0 {
		t.Errorf("a redirected source took %d pages from the pool, want none", n)
	}
	if got, _ := p.Mem.Read(src, 16); !bytes.Equal(got, make([]byte, 16)) {
		t.Errorf("memcpy from a redirected source copied %q, want zeros", got)
	}
	if f := p.Mem.Write(src, []byte("sixteen bytes !!")); f != nil {
		t.Fatal(f)
	}

	gets = poolGets()
	out = p.Run(func() uint64 { return ip.Call(p, "memcpy", 0xdead0000, uint64(src), 16) })
	if h := lastHeal(t, ip); out.Crashed() || h.Action != "redirect-sink" {
		t.Fatalf("memcpy: %v, repair %+v; want a redirect-sink repair", out, h)
	}
	if n := poolGets() - gets; n > 1 {
		t.Errorf("a redirect-sink repair took %d pages from the pool, want at most 1", n)
	}
	chunk := cmem.Addr(out.Ret)

	gets = poolGets()
	out = p.Run(func() uint64 { return ip.Call(p, "strlen", uint64(ro)) })
	if h := lastHeal(t, ip); out.Crashed() || h.Action != "copy-to-sink" || out.Ret != cmem.PageSize-1 {
		t.Fatalf("strlen: %v, repair %+v; want a copy-to-sink repair", out, h)
	}
	if n := poolGets() - gets; n > 1 {
		t.Errorf("a copy-to-sink repair took %d pages from the pool, want at most 1", n)
	}

	// The copy-to-sink call re-carved the chunk memcpy wrote; write it
	// again and zero it directly.
	if f := p.Mem.Write(chunk, []byte("written")); f != nil {
		t.Fatal(f)
	}
	before := cmem.PoolCounts()
	p.Mem.Zero(chunk, cmem.PageSize)
	if got, f := p.Mem.Read(chunk, cmem.PageSize); f != nil || !bytes.Equal(got, make([]byte, cmem.PageSize)) {
		t.Errorf("Zero over a written chunk: fault %v, nonzero bytes", f)
	}
	if puts := cmem.PoolCounts().Puts - before.Puts; puts != 1 {
		t.Errorf("Zero returned %d pages to the pool, want the chunk's 1", puts)
	}
	if prot, mapped := p.Mem.ProtAt(chunk); !mapped || prot != cmem.ProtRW {
		t.Errorf("Zero left the chunk %v (mapped %v), want rw-", prot, mapped)
	}
}
