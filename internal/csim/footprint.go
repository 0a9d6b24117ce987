package csim

// Accessor footprints: what argument memory each exported *Process
// method touches. Simulated library code reaches memory only through
// these methods, so a static pass that interprets the library can log
// every access by reading one row per call (internal/analysis/bodyscan
// does). TestFootprintsCoverEveryMethod keeps the table complete and
// TestFootprintOracle checks each row against the real accessor.

// LenSource says where a footprint's byte count comes from.
type LenSource uint8

// Length sources.
const (
	LenNone   LenSource = iota // no memory touched; flow marks only
	LenFixed                   // N bytes
	LenArg                     // the int argument Len
	LenOf                      // len of the slice or string argument Len, plus N
	LenResult                  // len of the returned string, plus N
)

// Footprint is one accessor's row.
type Footprint struct {
	Arg    int // the address argument (or the flow-marked one)
	Off    int // the access starts Off bytes past that address
	Src    LenSource
	N      int  // fixed count, or bytes added to a slice or result length
	Len    int  // the argument Src reads (LenArg, LenOf)
	Write  bool // stores rather than loads
	Kernel bool // a syscall-boundary copy: reports failure, never faults

	// Flow marks.
	CStr bool // a NUL-terminated scan starts at the address
	FD   bool // Arg reaches the descriptor table
	Code bool // Arg is called through as a code pointer
}

// Footprints holds the row of every exported *Process method that
// touches argument memory or carries a flow mark.
var Footprints = map[string]Footprint{
	"Load":         {Src: LenArg, Len: 1},
	"Store":        {Src: LenOf, Len: 1, Write: true},
	"LoadInto":     {Src: LenOf, Len: 1},
	"LoadByte":     {Src: LenFixed, N: 1},
	"StoreByte":    {Src: LenFixed, N: 1, Write: true},
	"LoadU32":      {Src: LenFixed, N: 4},
	"StoreU32":     {Src: LenFixed, N: 4, Write: true},
	"LoadU64":      {Src: LenFixed, N: 8},
	"StoreU64":     {Src: LenFixed, N: 8, Write: true},
	"LoadCString":  {Src: LenResult, N: 1, CStr: true},
	"StoreCString": {Src: LenOf, Len: 1, N: 1, Write: true},
	"FILEFd":       {Off: FILEOffFD, Src: LenFixed, N: 4},
	"CopyFromUser": {Src: LenArg, Len: 1, Kernel: true},
	"CopyToUser":   {Src: LenOf, Len: 1, Write: true, Kernel: true},
	"StrFromUser":  {Src: LenResult, N: 1, Kernel: true, CStr: true},
	"FD":           {FD: true},
	"CloseFD":      {FD: true},
	"CallPtr":      {Code: true},
}

// NoArgMemory names the exported *Process methods that touch no memory
// an argument points to: process state, allocation, the descriptor
// table by description, and the sandbox itself.
var NoArgMemory = map[string]bool{
	"Abort": true, "ClearErrno": true, "DupFD": true, "Errno": true,
	"ErrnoSet": true, "Fopen": true, "Fork": true, "Hang": true, "IsCode": true,
	"Malloc": true, "NewDIR": true, "NewFILE": true, "OpenDir": true,
	"OpenFDCount": true, "OpenFile": true, "PrivatizeForWrite": true,
	"RaiseSegv": true, "RegisterCallback": true, "Release": true,
	"Run": true, "SetErrno": true, "SetStepBudget": true, "Static": true,
	"StdinSkip": true, "StdinUnread": true, "Step": true, "StepCount": true,
	"StepN": true, "StepsLeft": true, "TruncateForWrite": true,
}
