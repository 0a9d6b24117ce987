package csim

import (
	"testing"

	"healers/internal/cmem"
)

// Edge cases of the outcome classifier: the exact hang boundary, faults
// at the first byte past a mapping and on an explicit guard page, and
// signals raised while another signal is already unwinding. These pin
// the semantics the injector's adaptive loop depends on — a hang
// misclassified as a return (or a boundary fault attributed to the
// wrong address) silently corrupts robust type inference.

func TestStepBudgetBoundary(t *testing.T) {
	const budget = 100
	steps := func(n int) func(p *Process) {
		return func(p *Process) {
			for i := 0; i < n; i++ {
				p.Step()
			}
		}
	}
	hangAfter := func(n int) func(p *Process) {
		return func(p *Process) { steps(n)(p); p.Hang() }
	}
	cases := []struct {
		name  string
		run   func(p *Process)
		want  OutcomeKind
		steps int
	}{
		{"one under budget", steps(budget - 1), OutcomeReturn, budget - 1},
		{"exactly at budget", steps(budget), OutcomeReturn, budget},
		{"one past budget", steps(budget + 1), OutcomeHang, budget + 1},
		{"StepN to the budget", func(p *Process) { p.StepN(1); p.StepN(budget - 1) }, OutcomeReturn, budget},
		{"StepN one past budget", func(p *Process) { p.StepN(1); p.StepN(budget) }, OutcomeHang, budget + 1},
		// Hang spends the rest of the budget at once, wherever the
		// counter stands.
		{"Hang after 0 steps", hangAfter(0), OutcomeHang, budget + 1},
		{"Hang after budget-1 steps", hangAfter(budget - 1), OutcomeHang, budget + 1},
		{"Hang after budget steps", hangAfter(budget), OutcomeHang, budget + 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := NewProcess(nil)
			p.SetStepBudget(budget)
			out := p.Run(func() uint64 {
				c.run(p)
				return 7
			})
			if out.Kind != c.want {
				t.Fatalf("%s under budget %d: %s, want %s", c.name, budget, out.Kind, c.want)
			}
			// A hang is detected on the first over-budget step.
			if out.Steps != c.steps {
				t.Errorf("steps=%d, want %d", out.Steps, c.steps)
			}
			if c.want == OutcomeReturn && out.Ret != 7 {
				t.Errorf("ret=%d, want 7", out.Ret)
			}
			if c.want == OutcomeReturn && p.StepsLeft() != budget-c.steps {
				t.Errorf("StepsLeft=%d, want %d", p.StepsLeft(), budget-c.steps)
			}
		})
	}
}

func TestGuardPageBoundaryFaults(t *testing.T) {
	const base = cmem.Addr(0x5000_0000)
	cases := []struct {
		name       string
		prot       cmem.Prot // protection of the page after the mapped one
		access     func(p *Process, boundary cmem.Addr)
		wantAccess cmem.Access
		wantMapped bool
	}{
		{
			"read one past mapping",
			0xff, // sentinel: leave the page unmapped
			func(p *Process, b cmem.Addr) { p.LoadByte(b) },
			cmem.AccessRead, false,
		},
		{
			"write one past mapping",
			0xff,
			func(p *Process, b cmem.Addr) { p.StoreByte(b, 1) },
			cmem.AccessWrite, false,
		},
		{
			"read a guard page",
			cmem.ProtNone,
			func(p *Process, b cmem.Addr) { p.LoadByte(b) },
			cmem.AccessRead, true,
		},
		{
			"write a read-only page",
			cmem.ProtRead,
			func(p *Process, b cmem.Addr) { p.StoreByte(b, 1) },
			cmem.AccessWrite, true,
		},
		{
			"straddling read faults at the boundary",
			0xff,
			func(p *Process, b cmem.Addr) { p.Load(b-4, 8) },
			cmem.AccessRead, false,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := NewProcess(nil)
			p.Mem.Map(base, cmem.PageSize, cmem.ProtRW)
			if c.prot != 0xff {
				p.Mem.Map(base+cmem.PageSize, cmem.PageSize, c.prot)
			}
			boundary := base + cmem.PageSize

			// The whole mapped page is usable right up to the boundary.
			out := p.Run(func() uint64 {
				p.StoreByte(boundary-1, 0xab)
				return uint64(p.LoadByte(boundary - 1))
			})
			if out.Kind != OutcomeReturn || out.Ret != 0xab {
				t.Fatalf("last in-bounds byte: %s ret=%#x", out.Kind, out.Ret)
			}

			out = p.Run(func() uint64 {
				c.access(p, boundary)
				return 0
			})
			if out.Kind != OutcomeSegfault {
				t.Fatalf("boundary access: %s, want segfault", out.Kind)
			}
			if out.Fault.Addr != boundary {
				t.Errorf("fault at %#x, want boundary %#x", uint64(out.Fault.Addr), uint64(boundary))
			}
			if out.Fault.Access != c.wantAccess || out.Fault.Mapped != c.wantMapped {
				t.Errorf("fault %v mapped=%t, want %v mapped=%t",
					out.Fault.Access, out.Fault.Mapped, c.wantAccess, c.wantMapped)
			}
		})
	}
}

// TestSignalDuringSignal pins what happens when a deferred cleanup
// raises while another signal is unwinding: the later signal wins, as
// with a real SIGABRT delivered inside a SIGSEGV handler. The sandbox
// must classify the call by the signal that reached it, not crash the
// test harness itself.
func TestSignalDuringSignal(t *testing.T) {
	const unmapped = cmem.Addr(0x6000_0000)
	cases := []struct {
		name string
		fn   func(p *Process) func() uint64
		want OutcomeKind
	}{
		{
			"abort during abort",
			func(p *Process) func() uint64 {
				return func() uint64 {
					defer p.Abort()
					p.Abort()
					return 0
				}
			},
			OutcomeAbort,
		},
		{
			"abort during segfault",
			func(p *Process) func() uint64 {
				return func() uint64 {
					defer p.Abort()
					p.LoadByte(unmapped)
					return 0
				}
			},
			OutcomeAbort,
		},
		{
			"segfault during abort",
			func(p *Process) func() uint64 {
				return func() uint64 {
					defer p.LoadByte(unmapped)
					p.Abort()
					return 0
				}
			},
			OutcomeSegfault,
		},
		{
			"hang during abort",
			func(p *Process) func() uint64 {
				return func() uint64 {
					defer func() {
						for {
							p.Step()
						}
					}()
					p.Abort()
					return 0
				}
			},
			OutcomeHang,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := NewProcess(nil)
			p.SetStepBudget(1000)
			out := p.Run(c.fn(p))
			if out.Kind != c.want {
				t.Fatalf("classified %s, want %s", out.Kind, c.want)
			}
			// The process must stay usable for the next forked call.
			out = p.Run(func() uint64 { return 1 })
			if out.Kind != OutcomeReturn || out.Ret != 1 {
				t.Errorf("process unusable after nested signal: %s", out.Kind)
			}
		})
	}
}
