package bodyscan

import (
	"bytes"
	"fmt"
	"math"
	"reflect"

	"healers/internal/cmem"
	"healers/internal/csim"
)

// pkgVals resolves selector expressions on the clib imports (csim.X,
// cmem.X, bytes.X, fmt.X, math.X) to real values from the real packages. The
// table is compiler-checked: a renamed constant fails this build
// rather than silently folding to a stale number. A loader test walks
// every selector in the clib source and asserts coverage.
var pkgVals = map[string]map[string]reflect.Value{
	"csim": {
		// errno values
		"EPERM":   reflect.ValueOf(csim.EPERM),
		"ENOENT":  reflect.ValueOf(csim.ENOENT),
		"EINTR":   reflect.ValueOf(csim.EINTR),
		"EIO":     reflect.ValueOf(csim.EIO),
		"EBADF":   reflect.ValueOf(csim.EBADF),
		"ENOMEM":  reflect.ValueOf(csim.ENOMEM),
		"EACCES":  reflect.ValueOf(csim.EACCES),
		"EFAULT":  reflect.ValueOf(csim.EFAULT),
		"EEXIST":  reflect.ValueOf(csim.EEXIST),
		"ENOTDIR": reflect.ValueOf(csim.ENOTDIR),
		"EISDIR":  reflect.ValueOf(csim.EISDIR),
		"EINVAL":  reflect.ValueOf(csim.EINVAL),
		"EMFILE":  reflect.ValueOf(csim.EMFILE),
		"ERANGE":  reflect.ValueOf(csim.ERANGE),
		// ABI sizes and offsets
		"SizeofTm":         reflect.ValueOf(csim.SizeofTm),
		"SizeofFILE":       reflect.ValueOf(csim.SizeofFILE),
		"SizeofDIR":        reflect.ValueOf(csim.SizeofDIR),
		"SizeofStat":       reflect.ValueOf(csim.SizeofStat),
		"SizeofTermios":    reflect.ValueOf(csim.SizeofTermios),
		"SizeofDirent":     reflect.ValueOf(csim.SizeofDirent),
		"FILEMagic":        reflect.ValueOf(csim.FILEMagic),
		"DIRMagic":         reflect.ValueOf(csim.DIRMagic),
		"FILEBufSize":      reflect.ValueOf(csim.FILEBufSize),
		"FILEOffMagic":     reflect.ValueOf(csim.FILEOffMagic),
		"FILEOffFD":        reflect.ValueOf(csim.FILEOffFD),
		"FILEOffFlags":     reflect.ValueOf(csim.FILEOffFlags),
		"FILEOffUngetc":    reflect.ValueOf(csim.FILEOffUngetc),
		"FILEOffBufPtr":    reflect.ValueOf(csim.FILEOffBufPtr),
		"FILEOffBufSize":   reflect.ValueOf(csim.FILEOffBufSize),
		"FILEOffBufPos":    reflect.ValueOf(csim.FILEOffBufPos),
		"FILEOffError":     reflect.ValueOf(csim.FILEOffError),
		"FILEOffEOF":       reflect.ValueOf(csim.FILEOffEOF),
		"FILEFlagRead":     reflect.ValueOf(csim.FILEFlagRead),
		"FILEFlagWrite":    reflect.ValueOf(csim.FILEFlagWrite),
		"FILEFlagAppend":   reflect.ValueOf(csim.FILEFlagAppend),
		"DIROffMagic":      reflect.ValueOf(csim.DIROffMagic),
		"DIROffFD":         reflect.ValueOf(csim.DIROffFD),
		"DIROffPos":        reflect.ValueOf(csim.DIROffPos),
		"DIROffBuf":        reflect.ValueOf(csim.DIROffBuf),
		"DirentOffIno":     reflect.ValueOf(csim.DirentOffIno),
		"DirentOffName":    reflect.ValueOf(csim.DirentOffName),
		"StatOffDev":       reflect.ValueOf(csim.StatOffDev),
		"StatOffIno":       reflect.ValueOf(csim.StatOffIno),
		"StatOffMode":      reflect.ValueOf(csim.StatOffMode),
		"StatOffSize":      reflect.ValueOf(csim.StatOffSize),
		"TermiosOffIflag":  reflect.ValueOf(csim.TermiosOffIflag),
		"TermiosOffOflag":  reflect.ValueOf(csim.TermiosOffOflag),
		"TermiosOffCflag":  reflect.ValueOf(csim.TermiosOffCflag),
		"TermiosOffLflag":  reflect.ValueOf(csim.TermiosOffLflag),
		"TermiosOffCC":     reflect.ValueOf(csim.TermiosOffCC),
		"TermiosOffIspeed": reflect.ValueOf(csim.TermiosOffIspeed),
		"TermiosOffOspeed": reflect.ValueOf(csim.TermiosOffOspeed),
		"TmOffSec":         reflect.ValueOf(csim.TmOffSec),
		"TmOffMin":         reflect.ValueOf(csim.TmOffMin),
		"TmOffHour":        reflect.ValueOf(csim.TmOffHour),
		"TmOffMday":        reflect.ValueOf(csim.TmOffMday),
		"TmOffMon":         reflect.ValueOf(csim.TmOffMon),
		"TmOffYear":        reflect.ValueOf(csim.TmOffYear),
		"TmOffWday":        reflect.ValueOf(csim.TmOffWday),
		"TmOffYday":        reflect.ValueOf(csim.TmOffYday),
		"TmOffIsdst":       reflect.ValueOf(csim.TmOffIsdst),
		"TmOffGmtOff":      reflect.ValueOf(csim.TmOffGmtOff),
		// file access modes
		"ReadOnly":  reflect.ValueOf(csim.ReadOnly),
		"WriteOnly": reflect.ValueOf(csim.WriteOnly),
		"ReadWrite": reflect.ValueOf(csim.ReadWrite),
		// functions
		"ErrnoName": reflect.ValueOf(csim.ErrnoName),
	},
	"cmem": {
		"PageSize": reflect.ValueOf(cmem.PageSize),
		"ProtNone": reflect.ValueOf(cmem.ProtNone),
		"ProtRead": reflect.ValueOf(cmem.ProtRead),
		"ProtRW":   reflect.ValueOf(cmem.ProtRW),
	},
	"bytes": {
		"IndexByte": reflect.ValueOf(bytes.IndexByte),
	},
	"fmt": {
		"Sprintf": reflect.ValueOf(fmt.Sprintf),
	},
	"math": {
		"Float64bits":     reflect.ValueOf(math.Float64bits),
		"Float64frombits": reflect.ValueOf(math.Float64frombits),
		"MaxInt32":        reflect.ValueOf(math.MaxInt32),
		"MinInt32":        reflect.ValueOf(int(math.MinInt32)),
		"MaxInt64":        reflect.ValueOf(int64(math.MaxInt64)),
	},
}

// resolvePkgSel returns the value for a pkg.Name selector, or an
// invalid val if the package or name is not modeled.
func resolvePkgSel(pkg, name string) (val, bool) {
	if m, ok := pkgVals[pkg]; ok {
		if v, ok := m[name]; ok {
			// Entries materialized as plain int stand for untyped source
			// constants (ABI offsets, sizes, errnos): let them adopt the
			// peer operand's type in binops, as the compiler would.
			return val{rv: v, untyped: v.Kind() == reflect.Int}, true
		}
	}
	return nilVal, false
}
