package wrapper

import (
	"testing"

	"healers/internal/cmem"
	"healers/internal/csim"
	"healers/internal/decl"
)

// TestCheckerMatrix exercises every robust-type base the wrapper knows,
// with an accepting and a rejecting value each, through synthetic
// declarations for a one-argument function.
func TestCheckerMatrix(t *testing.T) {
	lib, _ := fullAutoDecls(t)

	// mk builds a process with a handful of prepared values.
	type values struct {
		p        *csim.Process
		ip       func(rt decl.RobustType, ctype string) *Interposer
		rw, ro   cmem.Addr
		file     cmem.Addr
		roFile   cmem.Addr
		dir      cmem.Addr
		codeAddr cmem.Addr
		fd       int
	}
	mk := func() *values {
		fs := csim.NewFS()
		fs.Create("/m/f.txt", []byte("matrix fixture\n"))
		p := csim.NewProcess(fs)
		rw, _ := p.Mem.MmapRegion(256, cmem.ProtRW)
		p.Mem.WriteCString(rw, "writable string")
		ro, _ := p.Mem.MmapRegion(256, cmem.ProtRW)
		p.Mem.WriteCString(ro, "readonly string")
		p.Mem.Protect(ro, 256, cmem.ProtRead)
		file := p.Fopen("/m/f.txt", "r+")
		roFile := p.Fopen("/m/f.txt", "r")
		fdNum := p.OpenFile("/m/f.txt", csim.ReadOnly, false)
		dirFd := p.OpenDir("/m")
		dir := p.NewDIR(dirFd)
		code := p.RegisterCallback(func(pp *csim.Process, a []uint64) uint64 { return 0 })
		v := &values{p: p, rw: rw, ro: ro, file: file, roFile: roFile, dir: dir, codeAddr: code, fd: fdNum}
		v.ip = func(rt decl.RobustType, ctype string) *Interposer {
			set := decl.NewDeclSet()
			set.Add(&decl.FuncDecl{
				Name:          "strlen", // any 1-arg function; we only probe the check
				Ret:           "size_t",
				Args:          []decl.ArgDecl{{CType: ctype, Robust: rt}},
				HasErrorValue: true,
				ErrorValue:    ^uint64(0),
				ErrnoOnReject: csim.EINVAL,
				Attribute:     decl.AttrUnsafe,
			})
			ip := Attach(p, lib, set, DefaultOptions())
			// Track the DIR for the OPEN_DIR checks that need state.
			ip.trackDir(v.dir)
			return ip
		}
		return v
	}

	fixed := func(base string, n int) decl.RobustType {
		return decl.RobustType{Base: base, Size: decl.Fixed(n)}
	}
	plain := func(base string) decl.RobustType { return decl.RobustType{Base: base} }

	tests := []struct {
		name   string
		rt     func(*values) decl.RobustType
		ctype  string
		accept func(*values) uint64
		reject func(*values) uint64
		reason string // the rendered violation for the rejecting value
	}{
		{"R_ARRAY", func(v *values) decl.RobustType { return fixed("R_ARRAY", 16) }, "void*",
			func(v *values) uint64 { return uint64(v.ro) },
			func(v *values) uint64 { return 0xdead0000 }, "memory not accessible for R_ARRAY[16]"},
		{"W_ARRAY", func(v *values) decl.RobustType { return fixed("W_ARRAY", 16) }, "void*",
			func(v *values) uint64 { return uint64(v.rw) },
			func(v *values) uint64 { return uint64(v.ro) }, "memory not accessible for W_ARRAY[16]"},
		{"RW_ARRAY", func(v *values) decl.RobustType { return fixed("RW_ARRAY", 16) }, "void*",
			func(v *values) uint64 { return uint64(v.rw) },
			func(v *values) uint64 { return uint64(v.ro) }, "memory not accessible for RW_ARRAY[16]"},
		{"R_ARRAY_NULL accepts null", func(v *values) decl.RobustType { return fixed("R_ARRAY_NULL", 16) }, "void*",
			func(v *values) uint64 { return 0 },
			func(v *values) uint64 { return 0xdead0000 }, "memory not accessible for R_ARRAY_NULL[16]"},
		{"W_ARRAY_NULL", func(v *values) decl.RobustType { return fixed("W_ARRAY_NULL", 16) }, "void*",
			func(v *values) uint64 { return 0 },
			func(v *values) uint64 { return uint64(v.ro) }, "memory not accessible for W_ARRAY_NULL[16]"},
		{"RW_ARRAY_NULL", func(v *values) decl.RobustType { return fixed("RW_ARRAY_NULL", 16) }, "void*",
			func(v *values) uint64 { return uint64(v.rw) },
			func(v *values) uint64 { return 1 }, "memory not accessible for RW_ARRAY_NULL[16]"},
		{"R_ARRAY rejects null", func(v *values) decl.RobustType { return fixed("R_ARRAY", 16) }, "void*",
			func(v *values) uint64 { return uint64(v.ro) },
			func(v *values) uint64 { return 0 }, "null pointer"},
		{"R_ARRAY unsatisfiable size", func(v *values) decl.RobustType {
			return decl.RobustType{Base: "R_ARRAY", Size: decl.SizeExpr{Kind: decl.SizeStrlenPlus1, A: 0}}
		}, "void*",
			func(v *values) uint64 { return uint64(v.ro) },
			func(v *values) uint64 { return 0xdead0000 }, "size expression unsatisfiable"},
		{"CSTR", func(v *values) decl.RobustType { return plain("CSTR") }, "const char*",
			func(v *values) uint64 { return uint64(v.ro) },
			func(v *values) uint64 { return 0 }, "null string"},
		{"W_CSTR", func(v *values) decl.RobustType { return plain("W_CSTR") }, "char*",
			func(v *values) uint64 { return uint64(v.rw) },
			func(v *values) uint64 { return uint64(v.ro) }, "invalid C string"},
		{"CSTR_NULL", func(v *values) decl.RobustType { return plain("CSTR_NULL") }, "const char*",
			func(v *values) uint64 { return 0 },
			func(v *values) uint64 { return 0xdead0000 }, "invalid C string"},
		{"R_BOUNDED small bound ok", func(v *values) decl.RobustType { return fixed("R_BOUNDED", 8) }, "const char*",
			func(v *values) uint64 { return uint64(v.ro) },
			func(v *values) uint64 { return 0 }, "null pointer"},
		{"W_CSTR_NULL", func(v *values) decl.RobustType { return plain("W_CSTR_NULL") }, "char*",
			func(v *values) uint64 { return 0 },
			func(v *values) uint64 { return uint64(v.ro) }, "invalid C string"},
		{"R_BOUNDED unreadable", func(v *values) decl.RobustType { return fixed("R_BOUNDED", 8) }, "const char*",
			func(v *values) uint64 { return uint64(v.ro) },
			func(v *values) uint64 { return 0xdead0000 }, "region neither terminated nor 8 bytes readable"},
		{"OPEN_FILE", func(v *values) decl.RobustType { return plain("OPEN_FILE") }, "struct _IO_FILE*",
			func(v *values) uint64 { return uint64(v.file) },
			func(v *values) uint64 { return 0 }, "null FILE pointer"},
		{"OPEN_FILE_NULL", func(v *values) decl.RobustType { return plain("OPEN_FILE_NULL") }, "struct _IO_FILE*",
			func(v *values) uint64 { return 0 },
			func(v *values) uint64 { return 0xdead0000 }, "invalid FILE pointer"},
		{"R_FILE", func(v *values) decl.RobustType { return plain("R_FILE") }, "struct _IO_FILE*",
			func(v *values) uint64 { return uint64(v.roFile) },
			func(v *values) uint64 { return 0 }, "null FILE pointer"},
		{"W_FILE rejects read-only stream", func(v *values) decl.RobustType { return plain("W_FILE") }, "struct _IO_FILE*",
			func(v *values) uint64 { return uint64(v.file) },
			func(v *values) uint64 { return uint64(v.roFile) }, "invalid FILE pointer"},
		{"OPEN_DIR", func(v *values) decl.RobustType { return plain("OPEN_DIR") }, "struct __dirstream*",
			func(v *values) uint64 { return uint64(v.dir) },
			func(v *values) uint64 { return 0 }, "null DIR pointer"},
		{"OPEN_DIR_NULL", func(v *values) decl.RobustType { return plain("OPEN_DIR_NULL") }, "struct __dirstream*",
			func(v *values) uint64 { return 0 },
			func(v *values) uint64 { return 0xdead0000 }, "DIR memory not accessible"},
		{"INT_POSITIVE", func(v *values) decl.RobustType { return plain("INT_POSITIVE") }, "int",
			func(v *values) uint64 { return 5 },
			func(v *values) uint64 { return 0 }, "non-positive value"},
		{"INT_NONNEG", func(v *values) decl.RobustType { return plain("INT_NONNEG") }, "int",
			func(v *values) uint64 { return 0 },
			func(v *values) uint64 { return ^uint64(0) }, "negative value"},
		{"INT_NONPOS", func(v *values) decl.RobustType { return plain("INT_NONPOS") }, "int",
			func(v *values) uint64 { return ^uint64(0) },
			func(v *values) uint64 { return 5 }, "positive value"},
		{"INT_NEGATIVE", func(v *values) decl.RobustType { return plain("INT_NEGATIVE") }, "int",
			func(v *values) uint64 { return ^uint64(0) },
			func(v *values) uint64 { return 0 }, "non-negative value"},
		{"FD_VALID", func(v *values) decl.RobustType { return plain("FD_VALID") }, "int",
			func(v *values) uint64 { return uint64(uint32(v.fd)) },
			func(v *values) uint64 { return 999 }, "bad file descriptor"},
		{"VALID_FUNC", func(v *values) decl.RobustType { return plain("VALID_FUNC") }, "int (*)()",
			func(v *values) uint64 { return uint64(v.codeAddr) },
			func(v *values) uint64 { return 0xdeadbeef }, "not a function address"},
	}

	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			v := mk()
			ip := v.ip(tt.rt(v), tt.ctype)
			ok, reason := ip.checkArg(decl.ArgDecl{CType: tt.ctype, Robust: tt.rt(v)},
				[]uint64{tt.accept(v)}, 0)
			if !ok {
				t.Errorf("accepting value rejected: %s", reason)
			}
			ok, reason = ip.checkArg(decl.ArgDecl{CType: tt.ctype, Robust: tt.rt(v)},
				[]uint64{tt.reject(v)}, 0)
			if ok {
				t.Error("rejecting value accepted")
			} else if got := describe(reason, tt.rt(v)); got != tt.reason {
				t.Errorf("rejection reason %q, want %q", got, tt.reason)
			}
		})
	}

	// The permissive bases accept anything, including garbage.
	v := mk()
	permissive := []string{"UNCONSTRAINED", "INT_ANY", "FD_ANY", "DBL_ANY"}
	for _, base := range permissive {
		ip := v.ip(plain(base), "int")
		for _, val := range []uint64{0, 1, ^uint64(0), 0xdead0000} {
			if ok, _ := ip.checkArg(decl.ArgDecl{Robust: plain(base)}, []uint64{val}, 0); !ok {
				t.Errorf("%s rejected %#x", base, val)
			}
		}
	}

	// Every base of the decl vocabulary has a row above.
	covered := map[string]bool{}
	for _, base := range permissive {
		covered[base] = true
	}
	for _, tt := range tests {
		covered[tt.rt(v).Base] = true
	}
	for _, base := range decl.Bases() {
		if !covered[base] {
			t.Errorf("robust-type base %s has no checker matrix row", base)
		}
	}
}
