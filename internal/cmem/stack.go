package cmem

// Stack simulates the process stack. The wrapper's Libsafe-style check
// (paper §5.1) needs to know, for a destination buffer on the stack,
// the boundary of the stack frame that contains it: a C library function
// must never write past the frame of the caller that owns the buffer,
// because that would smash a saved return address.
//
// Frames grow downward from stackTop. Each frame records its extent; a
// buffer "in" a frame may safely extend only to the frame's base (the
// high end), where the saved frame pointer and return address live.
type Stack struct {
	low    Addr // lowest mapped stack address
	sp     Addr // current stack pointer (grows down)
	frames []Frame
}

// Frame is one activation record on the simulated stack.
type Frame struct {
	Base Addr // high end: saved return address sits at Base..Base+frameLinkSize
	SP   Addr // low end while the frame is active
}

// frameLinkSize models the saved frame pointer + return address.
const frameLinkSize = 16

// newStack maps the stack region of m and returns its bookkeeping.
func newStack(m *Memory) Stack {
	low := stackTop - Addr(stackSize)
	m.Map(low, stackSize, ProtRW)
	return Stack{low: low, sp: stackTop}
}

// clone copies the bookkeeping for a forked address space; the frames
// are copied only when there are any.
func (s *Stack) clone() Stack {
	c := *s
	c.frames = append([]Frame(nil), s.frames...)
	return c
}

// PushFrame enters a new activation record reserving size bytes of
// locals and returns the frame. The frame link (simulated return
// address) occupies the top frameLinkSize bytes.
func (s *Stack) PushFrame(size int) Frame {
	base := s.sp
	s.sp -= Addr(size + frameLinkSize)
	f := Frame{Base: base - frameLinkSize, SP: s.sp}
	s.frames = append(s.frames, f)
	return f
}

// PopFrame leaves the most recent activation record.
func (s *Stack) PopFrame() {
	if len(s.frames) == 0 {
		return
	}
	f := s.frames[len(s.frames)-1]
	s.frames = s.frames[:len(s.frames)-1]
	s.sp = f.Base + frameLinkSize
}

// Alloca reserves n bytes of locals in the current frame and returns
// their address. It panics if no frame is active, which indicates a
// bug in the simulation driver, not in simulated code.
func (s *Stack) Alloca(n int) Addr {
	if len(s.frames) == 0 {
		s.PushFrame(0)
	}
	f := &s.frames[len(s.frames)-1]
	s.sp -= Addr(n)
	// Keep allocations 8-byte aligned like a real compiler would.
	s.sp &^= 7
	f.SP = s.sp
	return s.sp
}

// Contains reports whether addr lies within the mapped stack region.
func (s *Stack) Contains(addr Addr) bool {
	return addr >= s.low && addr < stackTop
}

// FrameLimit returns, for a buffer starting at addr on the stack, the
// number of bytes that can be written before reaching the frame link of
// the innermost frame containing addr. ok is false when addr is on the
// stack but not inside any recorded frame's locals.
func (s *Stack) FrameLimit(addr Addr) (limit int, ok bool) {
	for i := len(s.frames) - 1; i >= 0; i-- {
		f := s.frames[i]
		if addr >= f.SP && addr < f.Base {
			return int(f.Base - addr), true
		}
	}
	return 0, false
}

// Depth returns the number of active frames.
func (s *Stack) Depth() int { return len(s.frames) }
