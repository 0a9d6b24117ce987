package wrapper

import (
	"reflect"
	"testing"

	"healers/internal/cmem"
	"healers/internal/csim"
	"healers/internal/obs"
)

// recycleOpts turns on everything an interposer can accumulate: heal
// resources, the validity caches, and registry-linked counters.
func recycleOpts(reg *obs.Registry) Options {
	opts := healOpts()
	opts.CacheChecks = true
	opts.Metrics = reg
	return opts
}

// dirtyScript drives ip through every kind of state it keeps — the
// heap and DIR tables, rejections and repairs, the sink region, the
// substituted FILE, descriptor and callback, the FILE stat buffer and
// both caches — and returns each call's outcome.
func dirtyScript(t *testing.T, ip *Interposer, p *csim.Process) []csim.Outcome {
	t.Helper()
	var outs []csim.Outcome
	call := func(name string, args ...uint64) uint64 {
		out := p.Run(func() uint64 { return ip.Call(p, name, args...) })
		outs = append(outs, out)
		return out.Ret
	}
	const wild = 0xdead0000
	buf := call("malloc", 64)
	call("opendir", uint64(cstrAt(t, p, "/data")))
	call("strlen", wild)
	fp := call("fopen", uint64(cstrAt(t, p, "/data/file.txt")), uint64(cstrAt(t, p, "r")))
	call("fgetc", fp)
	call("fgetc", fp)
	call("fputc", 'a', wild)
	call("qsort", buf, 2, 4, wild)
	call("asctime", wild)
	call("strcpy", buf, uint64(cstrAt(t, p, "hello")))
	call("readdir", wild) // a DIR has no repair: rejected
	// No campaign declaration asks for an open descriptor, so the
	// substitution is driven directly.
	fd := []uint64{77}
	if _, ok := ip.substituteFD(fd, 0); !ok {
		t.Fatal("substituteFD failed")
	}
	return append(outs, csim.Outcome{Ret: fd[0]})
}

// TestRecycledInterposerMatchesFresh: an interposer Attach takes back
// from Release — after a life that filled every table, cache and heal
// resource and fed another registry — is the struct a fresh Attach
// builds, field for field, and then behaves identically: the same
// outcomes, Stats, tables, sink, cached FILE/fd/callback and caches,
// with its counters feeding the new registry and never the old one.
func TestRecycledInterposerMatchesFresh(t *testing.T) {
	lib, decls := fullAutoDecls(t)
	drain := func() {
		for interposers.Get() != nil {
		}
	}
	dirty := func() (*Interposer, *obs.Registry) {
		reg := obs.NewRegistry()
		p := newProc()
		ip := Attach(p, lib, decls, recycleOpts(reg))
		dirtyScript(t, ip, p)
		if ip.sinkBase == 0 || ip.sinkFILE == 0 || !ip.sinkFDSet || ip.healCB == 0 || ip.statBuf == 0 ||
			len(ip.heap) == 0 || len(ip.dirs) == 0 || len(ip.checkCache) == 0 || len(ip.fileCache) == 0 ||
			len(ip.violations) == 0 || len(ip.heals) == 0 {
			t.Fatal("the script left some interposer state untouched; the comparison would prove less")
		}
		ip.Release()
		return ip, reg
	}

	// Field for field, right after Attach.
	drain()
	old, _ := dirty()
	p := newProc()
	reg := obs.NewRegistry()
	recycled := Attach(p, lib, decls, recycleOpts(reg))
	if recycled != old {
		t.Fatal("Attach did not reuse the interposer released just before it")
	}
	drain()
	fresh := Attach(p, lib, decls, recycleOpts(reg))
	if !reflect.DeepEqual(recycled, fresh) {
		t.Fatal("a recycled interposer differs from a fresh one right after Attach")
	}
	recycled.Release()
	fresh.Release()
	drain()

	// In behaviour, on two identical processes.
	old, oldReg := dirty()
	oldExpo := oldReg.Exposition()
	p2, p3 := newProc(), newProc()
	reg2, reg3 := obs.NewRegistry(), obs.NewRegistry()
	ip2 := Attach(p2, lib, decls, recycleOpts(reg2))
	if ip2 != old {
		t.Fatal("Attach did not reuse the interposer released just before it")
	}
	drain()
	ip3 := Attach(p3, lib, decls, recycleOpts(reg3))
	if out2, out3 := dirtyScript(t, ip2, p2), dirtyScript(t, ip3, p3); !reflect.DeepEqual(out2, out3) {
		t.Errorf("outcomes differ:\nrecycled %v\nfresh    %v", out2, out3)
	}
	if s2, s3 := ip2.Stats(), ip3.Stats(); !reflect.DeepEqual(s2, s3) {
		t.Errorf("Stats differ:\nrecycled %+v\nfresh    %+v", s2, s3)
	}
	for _, c := range []struct {
		what      string
		got, want any
	}{
		{"heap table", ip2.heap, ip3.heap},
		{"DIR table", ip2.dirs, ip3.dirs},
		{"check cache", ip2.checkCache, ip3.checkCache},
		{"FILE cache", ip2.fileCache, ip3.fileCache},
		{"sink", []cmem.Addr{ip2.sinkBase, ip2.sinkFILE, ip2.healCB, ip2.statBuf}, []cmem.Addr{ip3.sinkBase, ip3.sinkFILE, ip3.healCB, ip3.statBuf}},
		{"sink fd", [2]any{ip2.sinkFD, ip2.sinkFDSet}, [2]any{ip3.sinkFD, ip3.sinkFDSet}},
		{"registry", reg2.Exposition(), reg3.Exposition()},
		{"old registry", oldReg.Exposition(), oldExpo},
	} {
		if !reflect.DeepEqual(c.got, c.want) {
			t.Errorf("%s: recycled %v, fresh %v", c.what, c.got, c.want)
		}
	}
}

// TestReleaseZeroesInterposer: a released interposer keeps nothing, so
// a field added later cannot carry one test's tables, records, heal
// resources or counter links into the next Attach; a second release
// parks nothing twice.
func TestReleaseZeroesInterposer(t *testing.T) {
	lib, decls := fullAutoDecls(t)
	p := newProc()
	ip := Attach(p, lib, decls, recycleOpts(obs.NewRegistry()))
	dirtyScript(t, ip, p)
	ip.Release()
	v := reflect.ValueOf(ip).Elem()
	for i := 0; i < v.NumField(); i++ {
		if !v.Field(i).IsZero() {
			t.Errorf("Release left %s set", v.Type().Field(i).Name)
		}
	}
	ip.Release()
	if got, again := interposers.Get(), interposers.Get(); got != ip || again == ip {
		t.Errorf("free list holds %p then %p, want the released interposer %p once", got, again, ip)
	}
}
