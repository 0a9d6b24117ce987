package decl

import (
	"errors"
	"testing"
)

// sized returns a Measure that reports size(env) for every move.
func sized(size func(FitArgs) int) Measure {
	return func(_ int, env FitArgs, _ int) (int, bool, error) { return size(env), true, nil }
}

func fit(t *testing.T, strs map[int]int, vals map[int]int64, size func(FitArgs) int) *SizeExpr {
	t.Helper()
	base := FitArgs{Strlens: strs, Vals: vals}
	got, err := FitSize(base, size(base), sized(size))
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func strlen(a FitArgs, i int) int { return a.Strlens[i] }
func val(a FitArgs, i int) int    { return int(a.Vals[i]) }

// TestFitSizeFindsEachKind fits one synthetic size function per
// candidate kind, each under siblings that also admit the kinds
// ordered before it.
func TestFitSizeFindsEachKind(t *testing.T) {
	cases := []struct {
		name string
		strs map[int]int
		vals map[int]int64
		size func(FitArgs) int
		want string
	}{
		{"product", nil, map[int]int64{1: 8, 2: 8},
			func(a FitArgs) int { return val(a, 1) * val(a, 2) }, "arg1*arg2"},
		{"strxfrm", map[int]int{1: 5}, map[int]int64{2: 8},
			func(a FitArgs) int { return min(strlen(a, 1)+1, val(a, 2)) }, "min(strlen(arg1)+1,arg2)"},
		{"strncat", map[int]int{1: 5}, map[int]int64{2: 8},
			func(a FitArgs) int { return min(strlen(a, 1), val(a, 2)) + 1 }, "min(strlen(arg1),arg2)+1"},
		{"strcpy", map[int]int{1: 5}, map[int]int64{2: 8},
			func(a FitArgs) int { return strlen(a, 1) + 1 }, "strlen(arg1)+1"},
		{"memset", map[int]int{0: 5}, map[int]int64{2: 8},
			func(a FitArgs) int { return val(a, 2) }, "arg2"},
	}
	for _, c := range cases {
		got := fit(t, c.strs, c.vals, c.size)
		if got == nil || got.String() != c.want {
			t.Errorf("%s: fitted %v, want %s", c.name, got, c.want)
		}
	}
}

// TestFitSizeRejectsOffByOne: a body that touches one byte past its
// count matches no candidate, even where strlen+1 and the strncat form
// coincide with it at the baseline.
func TestFitSizeRejectsOffByOne(t *testing.T) {
	if got := fit(t, map[int]int{0: 8}, map[int]int64{1: 8},
		func(a FitArgs) int { return val(a, 1) + 1 }); got != nil {
		t.Errorf("off-by-one extent fitted as %v", got)
	}
}

// TestFitSizeNeedsAMove: with both integers zero the product explains
// every move (all zero), but no move changes the size, so it is no
// evidence of a dependency.
func TestFitSizeNeedsAMove(t *testing.T) {
	if got := fit(t, nil, map[int]int64{1: 0, 2: 0},
		func(FitArgs) int { return 0 }); got != nil {
		t.Errorf("constant size fitted as %v", got)
	}
}

// TestFitSizeMinNeedsBothDirections: a body that always reads at least
// six bytes agrees with min(strlen+1,n) on every upward move (growing
// the string saturates the min at n) and differs only when the string
// shrinks, so the fit must try the downward move too.
func TestFitSizeMinNeedsBothDirections(t *testing.T) {
	size := func(a FitArgs) int { return min(max(strlen(a, 0), 5)+1, val(a, 1)) }
	base := FitArgs{Strlens: map[int]int{0: 5}, Vals: map[int]int64{1: 8}}
	var downs int
	measure := func(j int, env FitArgs, want int) (int, bool, error) {
		if j == 0 && env.Strlens[0] == 2 {
			downs++
		}
		return size(env), true, nil
	}
	got, err := FitSize(base, size(base), measure)
	if err != nil {
		t.Fatal(err)
	}
	if got != nil {
		t.Errorf("floored read fitted as %v", got)
	}
	if downs == 0 {
		t.Error("the string was never moved down")
	}
}

// TestFitSizePropagatesMeasureError: a measurement that cannot run
// (an unmodeled construct in the static pass) aborts the fit.
func TestFitSizePropagatesMeasureError(t *testing.T) {
	boom := errors.New("unmodeled")
	base := FitArgs{Strlens: map[int]int{1: 5}, Vals: map[int]int64{}}
	got, err := FitSize(base, 6, func(int, FitArgs, int) (int, bool, error) { return 0, false, boom })
	if !errors.Is(err, boom) || got != nil {
		t.Errorf("FitSize = %v, %v; want nil, %v", got, err, boom)
	}
}
