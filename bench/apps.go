package main

import (
	"fmt"
	"math"
	"math/rand"
	"path"
	"time"

	"healers/internal/apps"
	"healers/internal/clib"
	"healers/internal/csim"
	"healers/internal/decl"
	"healers/internal/wrapper"
)

// appsTable2 is the application's path: each round runs the four Table 2
// profiles in a seeded order, each unwrapped and wrapped (semi-automatic
// declarations, reject mode), alternating which side runs first.
type appsTable2 struct {
	lib  *clib.Library
	semi *decl.DeclSet
	rng  *rand.Rand
}

func (w *appsTable2) setup(e *env) error {
	lib, ext, err := newSystem()
	if err != nil {
		return err
	}
	golden, err := loadGoldenVectors(e.root)
	if err != nil {
		return err
	}
	semi, _, err := setupDecls(e, lib, ext, golden)
	if err != nil {
		return err
	}
	w.lib, w.semi = lib, semi
	w.rng = rand.New(rand.NewSource(e.seed))
	return nil
}

// appRun is what one profile run produced.
type appRun struct {
	wall time.Duration
	// inCalls is the time spent inside library calls (timed runs only).
	inCalls  time.Duration
	rets     []uint64
	files    map[string]string
	rejected int
}

// recordingCaller forwards every call and records its return value, so
// a wrapped run can be checked against the unwrapped one call by call.
type recordingCaller struct {
	inner apps.Caller
	rets  []uint64
	// timed adds up the time spent inside calls (Table 2's measurement
	// wrapper); it costs two clock reads per call, so only the layer
	// loops turn it on.
	timed bool
	spent time.Duration
}

func (c *recordingCaller) Call(p *csim.Process, name string, args ...uint64) uint64 {
	if !c.timed {
		ret := c.inner.Call(p, name, args...)
		c.rets = append(c.rets, ret)
		return ret
	}
	start := time.Now()
	ret := c.inner.Call(p, name, args...)
	c.spent += time.Since(start)
	c.rets = append(c.rets, ret)
	return ret
}

// runApp runs one profile on a fresh process and filesystem.
func runApp(lib *clib.Library, semi *decl.DeclSet, prof *apps.Profile, wrapped, timed bool) appRun {
	fs := csim.NewFS()
	if prof.Setup != nil {
		prof.Setup(fs)
	}
	p := csim.NewProcess(fs)
	p.SetStepBudget(1 << 31)
	var inner apps.Caller = lib
	var ip *wrapper.Interposer
	if wrapped {
		ip = wrapper.Attach(p, lib, semi, wrapper.DefaultOptions())
		inner = ip
	}
	rc := &recordingCaller{inner: inner, timed: timed, rets: make([]uint64, 0, 1<<12)}
	start := time.Now()
	prof.Run(p, rc)
	r := appRun{wall: time.Since(start), inCalls: rc.spent, rets: rc.rets, files: fileContents(fs, "/")}
	if ip != nil {
		r.rejected = ip.Stats().Rejected
	}
	return r
}

// fileContents maps every regular file under dir to its bytes.
func fileContents(fs *csim.FS, dir string) map[string]string {
	out := make(map[string]string)
	for _, name := range fs.List(dir) {
		full := path.Join(dir, name)
		f, ok := fs.Lookup(full)
		switch {
		case !ok:
		case f.IsDir:
			for k, v := range fileContents(fs, full) {
				out[k] = v
			}
		default:
			out[full] = string(f.Data)
		}
	}
	return out
}

// pairMismatch returns why a wrapped run differs from its unwrapped
// twin, or "" when it returned the same values, wrote the same files and
// made no rejection.
func pairMismatch(plain, wrapped appRun) string {
	switch {
	case wrapped.rejected != 0:
		return fmt.Sprintf("%d wrapper rejections", wrapped.rejected)
	case !sameReturns(plain.rets, wrapped.rets):
		return fmt.Sprintf("return values differ (%d unwrapped calls, %d wrapped)", len(plain.rets), len(wrapped.rets))
	case len(plain.files) != len(wrapped.files):
		return "different output files"
	}
	for name, data := range plain.files {
		if wrapped.files[name] != data {
			return "output file " + name + " differs"
		}
	}
	return ""
}

// sameReturns reports whether two streams of return values are equal up
// to where memory was placed. The wrapper maps a scratch region of its
// own in the process, which shifts later mmap-backed pointers (FILE
// streams, for one); so pointer-sized values only need to correspond one
// to one, while every smaller value must be equal.
func sameReturns(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	fwd := make(map[uint64]uint64)
	back := make(map[uint64]uint64)
	for i, x := range a {
		y := b[i]
		if x != y && (x < 1<<32 || y < 1<<32) {
			return false
		}
		if m, ok := fwd[x]; ok && m != y {
			return false
		}
		if m, ok := back[y]; ok && m != x {
			return false
		}
		fwd[x], back[y] = y, x
	}
	return true
}

// runPair runs one profile unwrapped and wrapped, wrapped first when
// wrappedFirst, and records the pair's correctness.
func runPair(e *env, lib *clib.Library, semi *decl.DeclSet, prof *apps.Profile, wrappedFirst, timed bool, parent spanID, rec *recorder) (plain, wrapped appRun) {
	for _, isWrapped := range []bool{wrappedFirst, !wrappedFirst} {
		side := "unwrapped"
		if isWrapped {
			side = "wrapped"
		}
		sp := e.tr.start("apps.Run:"+prof.Name+":"+side, parent)
		r := runApp(lib, semi, prof, isWrapped, timed)
		e.tr.end(sp)
		if isWrapped {
			wrapped = r
		} else {
			plain = r
		}
	}
	sp := e.tr.start("bench.check_outputs", parent)
	why := pairMismatch(plain, wrapped)
	e.tr.end(sp)
	if why != "" {
		fmt.Fprintf(e.log, "apps-table2: %s: %s\n", prof.Name, why)
	}
	rec.outcome(why == "")
	return plain, wrapped
}

func (w *appsTable2) iteration(e *env, it int, parent spanID, rec *recorder) error {
	profiles := apps.All()
	var round time.Duration
	for _, i := range w.rng.Perm(len(profiles)) {
		prof := profiles[i]
		plain, wrapped := runPair(e, w.lib, w.semi, prof, it%2 == 1, false, parent, rec)
		rec.sample("apps."+prof.Name+".unwrapped_ms", ms(plain.wall))
		rec.sample("apps."+prof.Name+".wrapped_ms", ms(wrapped.wall))
		rec.addWork(float64(len(wrapped.rets)), wrapped.wall)
		round += wrapped.wall
	}
	rec.latency(round)
	return nil
}

// details adds Table 2's headline: the geometric mean over the four
// applications of median wrapped wall over median unwrapped wall.
func (w *appsTable2) details(rec *recorder) []metric {
	logSum, n := 0.0, 0
	for _, prof := range apps.All() {
		plain := rec.samples["apps."+prof.Name+".unwrapped_ms"]
		wrapped := rec.samples["apps."+prof.Name+".wrapped_ms"]
		if len(plain) == 0 || len(wrapped) == 0 {
			continue
		}
		logSum += math.Log(median(wrapped) / median(plain))
		n = min(len(plain), len(wrapped))
	}
	return []metric{{Name: "app_slowdown", Unit: "ratio", Value: math.Exp(logSum / 4), N: n}}
}
