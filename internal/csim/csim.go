// Package csim simulates a Unix process hosting the C library under test.
//
// A Process owns a simulated address space (package cmem), an errno cell,
// a file-descriptor table over an in-memory filesystem, and a step budget
// used to detect hangs. Simulated C functions access memory through the
// Load*/Store* helpers, which raise a simulated SIGSEGV (an internal
// panic) on a bad access; Run recovers the signal and reports a structured
// Outcome, exactly as the paper's child process converts signals into
// observations for the fault injector.
package csim

import (
	"fmt"
	"slices"

	"healers/internal/cmem"
)

// Errno values used by the simulated library. The numeric values match
// Linux so that generated declarations read naturally.
const (
	EPERM   = 1
	ENOENT  = 2
	EINTR   = 4
	EIO     = 5
	EBADF   = 9
	ENOMEM  = 12
	EACCES  = 13
	EFAULT  = 14
	EEXIST  = 17
	ENOTDIR = 20
	EISDIR  = 21
	EINVAL  = 22
	EMFILE  = 24
	ERANGE  = 34
)

// ErrnoName returns the symbolic name for an errno value, for use in
// generated declarations and reports.
func ErrnoName(e int) string {
	switch e {
	case 0:
		return "0"
	case EPERM:
		return "EPERM"
	case ENOENT:
		return "ENOENT"
	case EINTR:
		return "EINTR"
	case EIO:
		return "EIO"
	case EBADF:
		return "EBADF"
	case ENOMEM:
		return "ENOMEM"
	case EACCES:
		return "EACCES"
	case EFAULT:
		return "EFAULT"
	case EEXIST:
		return "EEXIST"
	case ENOTDIR:
		return "ENOTDIR"
	case EISDIR:
		return "EISDIR"
	case EINVAL:
		return "EINVAL"
	case EMFILE:
		return "EMFILE"
	case ERANGE:
		return "ERANGE"
	}
	return fmt.Sprintf("E#%d", e)
}

// OutcomeKind classifies what a sandboxed call did.
type OutcomeKind uint8

// Outcome kinds. A call either returns normally, dies on a simulated
// SIGSEGV, exceeds its step budget (a hang), or aborts.
const (
	OutcomeReturn OutcomeKind = iota + 1
	OutcomeSegfault
	OutcomeHang
	OutcomeAbort
)

func (k OutcomeKind) String() string {
	switch k {
	case OutcomeReturn:
		return "return"
	case OutcomeSegfault:
		return "segfault"
	case OutcomeHang:
		return "hang"
	case OutcomeAbort:
		return "abort"
	}
	return fmt.Sprintf("OutcomeKind(%d)", uint8(k))
}

// Outcome is the observable result of one sandboxed call.
type Outcome struct {
	Kind  OutcomeKind
	Ret   uint64     // return value, valid when Kind == OutcomeReturn
	Errno int        // errno after the call (0 if untouched)
	Fault cmem.Fault // faulting access, valid when Kind == OutcomeSegfault
	Steps int        // simulated steps the call consumed
}

// Crashed reports whether the outcome is any of the failure kinds the
// paper counts as a robustness violation (crash, hang, or abort).
func (o Outcome) Crashed() bool {
	return o.Kind == OutcomeSegfault || o.Kind == OutcomeHang || o.Kind == OutcomeAbort
}

func (o Outcome) String() string {
	switch o.Kind {
	case OutcomeReturn:
		return fmt.Sprintf("return %#x (errno %s)", o.Ret, ErrnoName(o.Errno))
	case OutcomeSegfault:
		return fmt.Sprintf("SIGSEGV at %#x", uint64(o.Fault.Addr))
	default:
		return o.Kind.String()
	}
}

// Internal panic payloads raised by the access helpers and recovered by
// Run. They never escape this package's sandbox. A segvSignal points at
// the fault slot of the memory (or, from RaiseSegv, the process) that
// faulted, which Run copies into the Outcome before anything else runs:
// a fault costs no allocation on its way out.
type (
	segvSignal struct{ fault *cmem.Fault }
	hangSignal struct{}
	abrtSignal struct{}
)

// DefaultStepBudget bounds the simulated work per sandboxed call; a call
// that exceeds it is classified as a hang, standing in for the paper's
// timeout on the child process.
const DefaultStepBudget = 1 << 20

// Process is a simulated process. It is not safe for concurrent use.
type Process struct {
	Mem *cmem.Memory
	FS  *FS

	errno    int
	errnoSet bool // errno written since last ClearErrno
	// fds is the descriptor table, indexed by descriptor; a closed
	// descriptor's slot is nil. It starts in fdSlots (nil until the
	// first open) and moves to the heap only past fdInline entries.
	fds     []*OpenFD
	fdSlots [fdInline]*OpenFD
	// fdStore holds the first open-file descriptions (newOpenFD);
	// fdStored of them are in use.
	fdStore    [fdStoreLen]OpenFD
	fdStored   int
	openFDs    int // non-nil entries of fds
	nextFD     int
	steps      int
	stepBudget int
	callbacks  map[cmem.Addr]Callback
	// raised holds the fault RaiseSegv signals until Run reports it.
	raised cmem.Fault

	// Stdin is the byte stream consumed by gets/fgetc-style reads from
	// the simulated standard input; stdinPos tracks consumption.
	Stdin    []byte
	stdinPos int
	// Stdout accumulates bytes written by puts/perror for inspection.
	Stdout []byte

	// statics holds lazily allocated static data areas (e.g. the struct
	// tm returned by gmtime), keyed by an owner name.
	statics map[string]cmem.Addr

	// Cwd is the simulated current working directory.
	Cwd string

	// Metrics, when non-nil, tallies every sandboxed call's outcome and
	// step count (the obs boundary counters). Children share it across
	// Fork so a campaign's accounting survives per-test forking.
	Metrics *Metrics
}

// fdInline is how many descriptor slots a process holds inline: the
// three numbers below the first descriptor plus five open ones, more
// than a campaign experiment opens.
const fdInline = 8

// fdStoreLen is how many open-file descriptions a process holds
// inline: more than a Ballista test or a campaign experiment opens.
const fdStoreLen = 4

// NewProcess returns a fresh process over fs with stdin/stdout/stderr
// style descriptors left unallocated (fds start at 3, like a shell child).
func NewProcess(fs *FS) *Process {
	if fs == nil {
		fs = NewFS()
	}
	p := reuse()
	*p = Process{
		Mem:        cmem.New(),
		FS:         fs,
		nextFD:     3,
		stepBudget: DefaultStepBudget,
		Cwd:        "/",
	}
	return p
}

// procs parks released processes for the next NewProcess or Fork.
var procs cmem.FreeList[Process]

// reuse returns a released process to initialise, or a new one.
func reuse() *Process {
	if p := procs.Get(); p != nil {
		return p
	}
	return new(Process)
}

// Fork returns a copy of the process: copy-on-write memory (the child
// shares every page with the parent until one of them writes it),
// copy-on-write filesystem (the name table and the files are shared
// and privatized on the first mutation), and a deep-copied descriptor
// table. The fault injector forks a child per experiment so a crash
// cannot corrupt the parent. The child's filesystem is its own: a
// released child's is parked for the next fork, with the files it
// privatized.
//
// Descriptor semantics matter when a process with descriptors open is
// forked, and its fork forked again: each child gets its own OpenFD
// structs — dup aliases within one process stay aliased, but a child
// advancing a file position can never move a sibling's. Descriptors inherited open
// for writing keep referencing the frozen shared file; the first
// in-place mutation on either side privatizes through
// PrivatizeForWrite, so a child that only reads its inherited FILE
// shares the bytes for free.
//
// Fork only reads the parent besides the atomic freeze bits, so one
// idle process may be forked concurrently from several goroutines —
// the parallel campaign schedulers fork templates that way. A process
// with open descriptors is forkable from its owning goroutine only:
// descriptors carry mutable state (positions, lazily privatized files)
// with no synchronization. Campaign templates hold none.
func (p *Process) Fork() *Process {
	fs := forkFSs.Get()
	if fs == nil {
		fs = new(FS)
	}
	p.FS.cloneInto(fs)
	c := reuse()
	*c = Process{
		Mem:        p.Mem.Clone(),
		FS:         fs,
		errno:      p.errno,
		errnoSet:   p.errnoSet,
		openFDs:    p.openFDs,
		nextFD:     p.nextFD,
		stepBudget: p.stepBudget,
		Stdin:      p.Stdin,
		stdinPos:   p.stdinPos,
		// Stdout is only ever appended to. The full slice expression
		// caps the child's view, so the first append on either side
		// lands beyond what the other can see.
		Stdout:  p.Stdout[:len(p.Stdout):len(p.Stdout)],
		Cwd:     p.Cwd,
		Metrics: p.Metrics,
	}
	fs.owner = c
	// Deep-copy the descriptor table preserving dup aliasing: two fds
	// sharing one open-file description in the parent share one copied
	// description in the child. A parent with no descriptors forks a
	// child with no table.
	if p.fds != nil {
		c.fds = append(c.fdSlots[:0], p.fds...)
	}
	for fd, of := range p.fds {
		if of == nil {
			continue
		}
		if dup := slices.Index(p.fds[:fd], of); dup >= 0 {
			c.fds[fd] = c.fds[dup]
			continue
		}
		cp := c.newOpenFD(*of)
		cp.Entries = append([]string(nil), of.Entries...)
		// The description's file may be unlinked-but-open (absent
		// from the name table, so FS.Clone never froze it); freeze
		// it here — both processes now reference it.
		if cp.File != nil && !cp.File.frozen.Load() {
			cp.File.frozen.Store(true)
		}
		c.fds[fd] = cp
	}
	if p.statics != nil {
		c.statics = make(map[string]cmem.Addr, len(p.statics))
		for k, v := range p.statics {
			c.statics[k] = v
		}
	}
	if p.callbacks != nil {
		c.callbacks = make(map[cmem.Addr]Callback, len(p.callbacks))
		for a, fn := range p.callbacks {
			c.callbacks[a] = fn
		}
	}
	return c
}

// Release returns the process's exclusively owned memory pages to the
// shared page pool and parks the process and its Memory for reuse. A
// forked process's filesystem is parked too, with every file the
// process privatized and no later fork froze; a process made by
// NewProcess leaves its filesystem, which others may share, alone. The
// campaign runners call it when a forked child's experiment completes:
// the next NewProcess or Fork may hand this very struct out again, so
// no reference to the process, its Memory, its forked filesystem or a
// file it wrote may outlive Release. Until then every field is zeroed
// (the process runs no code); releasing it again does nothing.
func (p *Process) Release() {
	if p.Mem == nil {
		return // already released
	}
	p.Mem.Release()
	if p.FS != nil && p.FS.owner == p {
		p.FS.release()
	}
	*p = Process{}
	procs.Put(p)
}

// SetStepBudget overrides the hang-detection budget for this process.
func (p *Process) SetStepBudget(n int) { p.stepBudget = n }

// StepCount returns the simulated steps consumed since the current
// sandboxed call began. The wrapper uses the delta around its checks
// as the check-latency measure.
func (p *Process) StepCount() int { return p.steps }

// Errno returns the current simulated errno value.
func (p *Process) Errno() int { return p.errno }

// ErrnoSet reports whether errno was written since the last ClearErrno.
// The injector uses this to classify error-return-code behaviour: a
// function that returns an error value without touching errno belongs
// to the paper's "No Error Return Code Found" class.
func (p *Process) ErrnoSet() bool { return p.errnoSet }

// SetErrno sets the simulated errno.
func (p *Process) SetErrno(e int) {
	p.errno = e
	p.errnoSet = true
}

// ClearErrno resets errno observation before a call, mirroring the
// injector clearing errno to 0 ahead of each experiment.
func (p *Process) ClearErrno() {
	p.errno = 0
	p.errnoSet = false
}

// Step consumes one unit of the step budget. Simulated functions call it
// inside loops; exceeding the budget raises a hang signal.
func (p *Process) Step() {
	p.steps++
	if p.steps > p.stepBudget {
		panic(hangSignal{})
	}
}

// StepN consumes n units of the step budget at once: exactly what n
// calls of Step do, including where the hang is raised (with the
// counter at the first over-budget step).
func (p *Process) StepN(n int) {
	if n <= 0 {
		return
	}
	if n > p.StepsLeft() {
		p.Hang()
	}
	p.steps += n
}

// StepsLeft returns how many more steps the budget admits. A loop that
// advances in runs bounds each run by it, so the hang still lands on
// the step it would land on byte by byte.
func (p *Process) StepsLeft() int { return p.stepBudget - p.steps }

// Hang spends the rest of the step budget at once and raises the hang,
// leaving the counter where a loop of Step calls would first exceed
// the budget. Simulated code that loops forever calls it instead of
// spinning through the budget.
func (p *Process) Hang() {
	p.steps = max(p.steps, p.stepBudget) + 1
	panic(hangSignal{})
}

// Abort raises a simulated SIGABRT (an assertion failure in the library).
func (p *Process) Abort() { panic(abrtSignal{}) }

// RaiseSegv raises a simulated SIGSEGV for the given fault. Simulated
// library code uses it for faults detected outside the Load/Store
// helpers (e.g. a jump through a corrupted function pointer).
func (p *Process) RaiseSegv(f *cmem.Fault) {
	p.raised = *f
	panic(segvSignal{fault: &p.raised})
}

// Run executes fn in the fault sandbox and reports its outcome. The step
// counter is reset; errno observation is NOT reset (callers decide).
func (p *Process) Run(fn func() uint64) (out Outcome) {
	p.steps = 0
	defer func() {
		r := recover()
		switch sig := r.(type) {
		case nil:
		case segvSignal:
			out = Outcome{Kind: OutcomeSegfault, Errno: p.errno, Fault: *sig.fault, Steps: p.steps}
		case hangSignal:
			out = Outcome{Kind: OutcomeHang, Errno: p.errno, Steps: p.steps}
		case abrtSignal:
			out = Outcome{Kind: OutcomeAbort, Errno: p.errno, Steps: p.steps}
		default:
			panic(r) // a real bug in the simulator; do not swallow it
		}
		p.Metrics.record(out)
	}()
	ret := fn()
	return Outcome{Kind: OutcomeReturn, Ret: ret, Errno: p.errno, Steps: p.steps}
}

// --- Faulting memory accessors used by simulated C code ---

// Load reads n bytes at addr or raises SIGSEGV.
func (p *Process) Load(addr cmem.Addr, n int) []byte {
	b, f := p.Mem.Read(addr, n)
	if f != nil {
		panic(segvSignal{fault: f})
	}
	return b
}

// Store writes data at addr or raises SIGSEGV.
func (p *Process) Store(addr cmem.Addr, data []byte) {
	if f := p.Mem.Write(addr, data); f != nil {
		panic(segvSignal{fault: f})
	}
}

// LoadInto fills dst from addr or raises SIGSEGV at the first
// unreadable byte, as Load does, without allocating.
func (p *Process) LoadInto(addr cmem.Addr, dst []byte) {
	if f := p.Mem.ReadInto(addr, dst); f != nil {
		panic(segvSignal{fault: f})
	}
}

// LoadByte reads one byte or raises SIGSEGV.
func (p *Process) LoadByte(addr cmem.Addr) byte {
	b, f := p.Mem.LoadByte(addr)
	if f != nil {
		panic(segvSignal{fault: f})
	}
	return b
}

// StoreByte writes one byte or raises SIGSEGV.
func (p *Process) StoreByte(addr cmem.Addr, b byte) {
	if f := p.Mem.StoreByte(addr, b); f != nil {
		panic(segvSignal{fault: f})
	}
}

// LoadSpan reads the n bytes at addr, as n LoadByte calls would, and
// returns them as a view of their page: read it, never write it. The
// span must lie in one page unless it faults first; a fault is raised
// at the first unreadable byte. It takes no step: a loop that moves a
// span at a time charges its steps around the spans, one before and
// n-1 after, so that every fault comes after the step the byte loop
// takes before it.
func (p *Process) LoadSpan(addr cmem.Addr, n int) []byte {
	b, f := p.Mem.ReadSpan(addr, n)
	if f != nil {
		panic(segvSignal{fault: f})
	}
	return b
}

// StoreSpan returns the n bytes at addr as a view of their page to
// store into, as n StoreByte calls would: the page is made private
// once, and an unwritable byte raises SIGSEGV. The span must lie in one
// page unless it faults first. Like LoadSpan it takes no step.
func (p *Process) StoreSpan(addr cmem.Addr, n int) []byte {
	b, f := p.Mem.WriteSpan(addr, n)
	if f != nil {
		panic(segvSignal{fault: f})
	}
	return b
}

// LoadU32 reads a 32-bit value or raises SIGSEGV.
func (p *Process) LoadU32(addr cmem.Addr) uint32 {
	v, f := p.Mem.ReadU32(addr)
	if f != nil {
		panic(segvSignal{fault: f})
	}
	return v
}

// StoreU32 writes a 32-bit value or raises SIGSEGV.
func (p *Process) StoreU32(addr cmem.Addr, v uint32) {
	if f := p.Mem.WriteU32(addr, v); f != nil {
		panic(segvSignal{fault: f})
	}
}

// LoadU64 reads a 64-bit value or raises SIGSEGV.
func (p *Process) LoadU64(addr cmem.Addr) uint64 {
	v, f := p.Mem.ReadU64(addr)
	if f != nil {
		panic(segvSignal{fault: f})
	}
	return v
}

// StoreU64 writes a 64-bit value or raises SIGSEGV.
func (p *Process) StoreU64(addr cmem.Addr, v uint64) {
	if f := p.Mem.WriteU64(addr, v); f != nil {
		panic(segvSignal{fault: f})
	}
}

// LoadCString reads a NUL-terminated string or raises SIGSEGV.
func (p *Process) LoadCString(addr cmem.Addr) string {
	s, f := p.Mem.CString(addr)
	if f != nil {
		panic(segvSignal{fault: f})
	}
	return s
}

// LoadCStringView reads a NUL-terminated string as LoadCString does and
// returns its bytes, a view of their page when they lie in one page (see
// cmem.Memory.CStringView): read it, never write it, and drop it before
// the next store. A string the call only parses costs no allocation.
func (p *Process) LoadCStringView(addr cmem.Addr) []byte {
	b, f := p.Mem.CStringView(addr)
	if f != nil {
		panic(segvSignal{fault: f})
	}
	return b
}

// StoreCString writes s plus a terminator or raises SIGSEGV.
func (p *Process) StoreCString(addr cmem.Addr, s string) {
	if f := p.Mem.WriteCString(addr, s); f != nil {
		panic(segvSignal{fault: f})
	}
}

// Static returns (allocating on first use) a static data area of the
// given size owned by name — the simulated equivalent of a library's
// .bss buffer, such as the struct tm that gmtime returns.
func (p *Process) Static(name string, size int) cmem.Addr {
	if a, ok := p.statics[name]; ok {
		return a
	}
	a, err := p.Mem.MmapRegion(size, cmem.ProtRW)
	if err != nil {
		p.SetErrno(ENOMEM)
		return 0
	}
	if p.statics == nil {
		p.statics = make(map[string]cmem.Addr)
	}
	p.statics[name] = a
	return a
}

// StdinUnread returns the standard input not yet consumed, empty at
// EOF. The bytes are the process's own: read them, never write them.
func (p *Process) StdinUnread() []byte {
	if p.stdinPos >= len(p.Stdin) {
		return nil
	}
	return p.Stdin[p.stdinPos:]
}

// StdinSkip consumes n bytes of standard input (at most what is left).
func (p *Process) StdinSkip(n int) { p.stdinPos = min(p.stdinPos+n, len(p.Stdin)) }

// --- EFAULT-style user-pointer probing (syscall boundary) ---
//
// Kernel-backed functions do not crash on bad user pointers; the kernel
// copy routines fail and the syscall returns EFAULT. These helpers give
// the simulated syscall layer the same behaviour, and report their
// accesses to a memory recorder as kernel accesses.

// CopyFromUser reads n bytes without faulting; ok is false if any byte
// is unreadable.
func (p *Process) CopyFromUser(addr cmem.Addr, n int) ([]byte, bool) {
	defer p.kernelCopy()()
	b, f := p.Mem.Read(addr, n)
	return b, f == nil
}

// CopyToUser writes data without faulting; ok is false on bad memory.
func (p *Process) CopyToUser(addr cmem.Addr, data []byte) bool {
	defer p.kernelCopy()()
	return p.Mem.Write(addr, data) == nil
}

// StrFromUser reads a NUL-terminated string without faulting.
func (p *Process) StrFromUser(addr cmem.Addr) (string, bool) {
	defer p.kernelCopy()()
	s, f := p.Mem.CString(addr)
	return s, f == nil
}

// CStringViewFromUser reads a NUL-terminated string without faulting,
// as StrFromUser does, and returns its bytes as LoadCStringView does.
func (p *Process) CStringViewFromUser(addr cmem.Addr) ([]byte, bool) {
	defer p.kernelCopy()()
	b, f := p.Mem.CStringView(addr)
	return b, f == nil
}

// kernelCopy marks the accesses a memory recorder sees as kernel ones
// until the returned func runs. Without a recorder it does nothing.
func (p *Process) kernelCopy() (restore func()) {
	rec := p.Mem.Recorder
	if rec == nil {
		return func() {}
	}
	p.Mem.Recorder = func(t cmem.Touch) {
		t.Kernel = true
		rec(t)
	}
	return func() { p.Mem.Recorder = rec }
}

// Malloc allocates simulated heap memory, setting errno on exhaustion.
func (p *Process) Malloc(size int) cmem.Addr {
	a, err := p.Mem.Malloc(size)
	if err != nil {
		p.SetErrno(ENOMEM)
		return 0
	}
	return a
}
