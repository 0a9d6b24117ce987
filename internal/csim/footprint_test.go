package csim

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"healers/internal/cmem"
)

// TestFootprintsCoverEveryMethod keeps the footprint table complete:
// every exported *Process method has a row or is listed in NoArgMemory
// (never both), and neither names a method that does not exist. A new
// accessor without a row fails here instead of going unlogged by the
// static body pass.
func TestFootprintsCoverEveryMethod(t *testing.T) {
	pt := reflect.TypeOf((*Process)(nil))
	methods := map[string]bool{}
	for i := 0; i < pt.NumMethod(); i++ {
		name := pt.Method(i).Name
		methods[name] = true
		_, row := Footprints[name]
		switch {
		case row && NoArgMemory[name]:
			t.Errorf("Process.%s has a footprint row and is listed in NoArgMemory", name)
		case !row && !NoArgMemory[name]:
			t.Errorf("Process.%s has no footprint row: add one to Footprints, or list it in NoArgMemory if it touches no argument memory", name)
		}
	}
	for name := range Footprints {
		if !methods[name] {
			t.Errorf("Footprints row %s names no *Process method", name)
		}
	}
	for name := range NoArgMemory {
		if !methods[name] {
			t.Errorf("NoArgMemory entry %s names no *Process method", name)
		}
	}
}

// mountFlushTest maps data with its last byte flush against an unmapped
// guard page and returns its address.
func mountFlushTest(t *testing.T, p *Process, data []byte) cmem.Addr {
	t.Helper()
	mapped, err := p.Mem.MmapRegion(cmem.PageSize, cmem.ProtRW)
	if err != nil {
		t.Fatal(err)
	}
	base := mapped + cmem.PageSize - cmem.Addr(len(data))
	if f := p.Mem.Write(base, data); f != nil {
		t.Fatal(f)
	}
	return base
}

// TestFootprintOracle checks every memory row against its accessor. A
// region exactly as long as the row's extent, flush against a guard
// page, must take the access; one a byte shorter must fault at exactly
// the extent's last byte (a kernel row reports failure instead).
func TestFootprintOracle(t *testing.T) {
	const l = 5 // the length handed to LenArg and LenOf arguments
	addrType := reflect.TypeOf(cmem.Addr(0))
	for name, fp := range Footprints {
		if fp.Src == LenNone {
			continue
		}
		t.Run(name, func(t *testing.T) {
			m, _ := reflect.TypeOf((*Process)(nil)).MethodByName(name)
			ft := m.Type // In(0) is the receiver
			if ft.In(fp.Arg+1) != addrType {
				t.Fatalf("argument %d is %v, not an address", fp.Arg, ft.In(fp.Arg+1))
			}
			ext := fp.N
			switch fp.Src {
			case LenArg, LenOf:
				ext += l
			case LenResult:
				ext = 4 // "xxx" and its NUL fill the region; checked against the row below
				if ft.Out(0).Kind() != reflect.String {
					t.Fatalf("LenResult row, but %s returns %v", name, ft.Out(0))
				}
			}
			for _, size := range []int{ext, ext - 1} {
				p := NewProcess(nil)
				data := bytes.Repeat([]byte{'x'}, size)
				if fp.Src == LenResult && size == ext {
					data[3] = 0
				}
				base := mountFlushTest(t, p, data)
				in := []reflect.Value{reflect.ValueOf(p)}
				for i := 1; i < ft.NumIn(); i++ {
					at := ft.In(i)
					switch {
					case i-1 == fp.Arg:
						in = append(in, reflect.ValueOf(base-cmem.Addr(fp.Off)))
					case i-1 == fp.Len && fp.Src == LenArg && at.Kind() == reflect.Int:
						in = append(in, reflect.ValueOf(l))
					case i-1 == fp.Len && fp.Src == LenOf && at.Kind() == reflect.String:
						in = append(in, reflect.ValueOf(strings.Repeat("y", l)))
					case i-1 == fp.Len && fp.Src == LenOf && at.Kind() == reflect.Slice:
						in = append(in, reflect.ValueOf(bytes.Repeat([]byte{'y'}, l)))
					case i-1 == fp.Len && fp.Src != LenFixed:
						t.Fatalf("length argument %d is %v", fp.Len, at)
					default:
						in = append(in, reflect.Zero(at))
					}
				}
				var outs []reflect.Value
				out := p.Run(func() uint64 { outs = m.Func.Call(in); return 0 })
				exact := size == ext
				if fp.Kernel {
					if out.Kind != OutcomeReturn {
						t.Fatalf("size %d: kernel accessor crashed: %v", size, out)
					}
					if ok := outs[len(outs)-1].Bool(); ok != exact {
						t.Errorf("size %d (extent %d): ok = %v", size, ext, ok)
					}
				} else if exact {
					if out.Kind != OutcomeReturn {
						t.Errorf("region of the row's extent %d faulted: %v", ext, out)
					}
				} else if out.Kind != OutcomeSegfault || out.Fault.Addr != base+cmem.Addr(size) {
					t.Errorf("region of %d bytes: want a fault at its end (extent %d), got %v", size, ext, out)
				}
				if exact && fp.Src == LenResult {
					if got := outs[0].Len() + fp.N; got != ext {
						t.Errorf("the row's extent is %d bytes, the string and its NUL %d", got, ext)
					}
				}
			}
		})
	}
}
