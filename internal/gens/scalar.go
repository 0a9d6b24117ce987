package gens

import (
	"math"

	"healers/internal/cmem"
	"healers/internal/csim"
	"healers/internal/typesys"
)

// IntGen generates integer test cases over the disjoint fundamentals
// NEG / ZERO / POS (§4.2's example of why fundamentals must not
// overlap).
type IntGen struct {
	// DefaultValue is the benign value used while other arguments are
	// being explored.
	DefaultValue int64

	fixedSeq
}

var _ Generator = (*IntGen)(nil)

// NewIntGen returns an integer generator with the given benign default.
func NewIntGen(defaultValue int64) *IntGen {
	return &IntGen{DefaultValue: defaultValue, fixedSeq: fixedSeq{build: intProbes}}
}

// Name implements Generator.
func (g *IntGen) Name() string { return "int" }

func intProbe(v int64) *Probe {
	fund := typesys.TypeIntZero
	switch {
	case v < 0:
		fund = typesys.TypeIntNeg
	case v > 0:
		fund = typesys.TypeIntPos
	}
	return &Probe{
		Fund:  fund,
		Build: func(p *csim.Process) uint64 { return uint64(v) },
	}
}

// IntProbeValues are the integers every IntGen tries.
var IntProbeValues = []int64{0, 1, 2, 8, 64, math.MaxInt32, -1, -2, math.MinInt32}

func intProbes() []*Probe {
	out := make([]*Probe, len(IntProbeValues))
	for i, v := range IntProbeValues {
		out[i] = intProbe(v)
	}
	return out
}

// Default implements Generator.
func (g *IntGen) Default() *Probe { return intProbe(g.DefaultValue) }

// ValueProbe returns a probe for a specific integer, used by the
// injector's dependent-size inference.
func (g *IntGen) ValueProbe(v int64) *Probe { return intProbe(v) }

// Hierarchy implements Generator.
func (g *IntGen) Hierarchy() *typesys.Hierarchy { return typesys.BuildIntHierarchy() }

// DoubleGen generates floating point test cases. Values cannot cause
// memory violations, so the expected robust type is the top of its
// (tiny) hierarchy.
type DoubleGen struct{ fixedSeq }

var _ Generator = (*DoubleGen)(nil)

// NewDoubleGen returns a double generator.
func NewDoubleGen() *DoubleGen { return &DoubleGen{fixedSeq{build: doubleProbes}} }

// Name implements Generator.
func (g *DoubleGen) Name() string { return "double" }

const typeDouble = typesys.TypeDouble

// TypeDoubleAny is the unified top of the double hierarchy.
const TypeDoubleAny = typesys.TypeDoubleAny

func doubleProbe(v float64) *Probe {
	return &Probe{
		Fund:  typeDouble,
		Build: func(p *csim.Process) uint64 { return math.Float64bits(v) },
	}
}

func doubleProbes() []*Probe {
	var out []*Probe
	for _, v := range []float64{0, 1.5, -1.5, math.Inf(1), math.NaN()} {
		out = append(out, doubleProbe(v))
	}
	return out
}

// Default implements Generator.
func (g *DoubleGen) Default() *Probe { return doubleProbe(1) }

// Hierarchy implements Generator.
func (g *DoubleGen) Hierarchy() *typesys.Hierarchy {
	h := typesys.NewHierarchy()
	typesys.AddDoubleTypes(h)
	if err := h.Finalize(); err != nil {
		panic(err)
	}
	return h
}

// FuncPtrGen generates function pointer test cases: a registered
// simulated code address, NULL, and garbage addresses. Calling through
// anything but the registered address raises SIGSEGV.
type FuncPtrGen struct{ fixedSeq }

var _ Generator = (*FuncPtrGen)(nil)

// NewFuncPtrGen returns a function pointer generator.
func NewFuncPtrGen() *FuncPtrGen { return &FuncPtrGen{fixedSeq{build: funcPtrProbes}} }

// Name implements Generator.
func (g *FuncPtrGen) Name() string { return "funcptr" }

// ValidCallback is a standard comparator: compare the first 4 bytes of
// each operand as little-endian signed ints.
func ValidCallback(p *csim.Process, args []uint64) uint64 {
	a := int32(p.LoadU32(cmem.Addr(args[0])))
	b := int32(p.LoadU32(cmem.Addr(args[1])))
	return uint64(int64(a - b))
}

func callbackProbe() *Probe {
	return &Probe{
		Fund: typesys.TypeFuncPtr,
		Build: func(p *csim.Process) uint64 {
			return uint64(p.RegisterCallback(ValidCallback))
		},
	}
}

func funcPtrProbes() []*Probe {
	return append([]*Probe{callbackProbe(), nullProbe()}, invalidProbes()...)
}

// Default implements Generator.
func (g *FuncPtrGen) Default() *Probe { return callbackProbe() }

// Hierarchy implements Generator.
func (g *FuncPtrGen) Hierarchy() *typesys.Hierarchy {
	h := typesys.NewHierarchy()
	f := h.Fundamental(typesys.TypeFuncPtr)
	null := h.Fundamental(typesys.TypeNull)
	inv := h.Fundamental(typesys.TypeInvalid)
	u := h.Unified(typesys.TypeFuncPtrU)
	top := h.Unified(typesys.TypeUnconstrained)
	h.Edge(f, u)
	h.Edge(u, top)
	h.Edge(null, top)
	h.Edge(inv, top)
	if err := h.Finalize(); err != nil {
		panic(err)
	}
	return h
}
