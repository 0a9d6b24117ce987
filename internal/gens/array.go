package gens

import (
	"bytes"

	"healers/internal/cmem"
	"healers/internal/csim"
	"healers/internal/typesys"
)

// ArrayGen is the fixed-size array generator of paper §4.2. It probes
// NULL, invalid pointers, and three adaptive growth chains (read-only,
// read-write, write-only), each starting from a zero-size array mounted
// flush against a guard page. Growth is driven by the faulting address:
// the new size is exactly enough to cover the failed access.
type ArrayGen struct {
	// MaxSize caps growth; reaching it plays the role of the paper's
	// "we run out of memory".
	MaxSize int
	// DefaultSize is the benign region size used by Default.
	DefaultSize int
	// Fill is the byte content of materialized regions.
	Fill byte
	// VariantFills adds, per fill byte, extra default-sized read-only
	// and read-write probes with that content — used for scalar
	// pointers whose pointed-to *value* selects an error path (a huge
	// time_t drives gmtime's EINVAL branch).
	VariantFills []byte
	// SeedSize, when positive, is a statically predicted minimal region
	// size (internal/analysis pre-inference): the first fault-driven
	// growth of each exploration chain jumps straight to it instead of
	// creeping up byte by byte. A confirmation probe at SeedSize-1 then
	// verifies minimality; if it unexpectedly succeeds the chain falls
	// back to cold growth from where the jump left off, so a wrong
	// prediction costs a few probes but never changes the result.
	SeedSize int
	// SkipWriteChains suppresses the RW/WO growth chains when the
	// static type proves the function cannot legally write through the
	// pointer (const-qualified pointee). NoteSuccess confirmations
	// still probe those protections at every successful size, so the
	// access-mode crash evidence the selection needs is preserved.
	SkipWriteChains bool

	queue     []*Probe
	observed  map[int]bool
	confirmed map[int]bool
	started   bool

	seeds map[cmem.Prot]*seedChain
	stats SeedStats

	// fills holds, per fill byte, one run of that byte that the probes'
	// Builds slice their contents from: Build runs once per experiment
	// and only reads it.
	fills map[byte][]byte
}

// seedChain tracks the static-seed state of one protection chain.
type seedChain struct {
	state seedState
}

type seedState uint8

const (
	seedArmed    seedState = iota + 1 // chain may jump on its first fault
	seedJumped                        // jump probe issued, outcome pending
	seedChecking                      // minimality probe at SeedSize-1 out
	seedDone
)

// SeedStats counts how a generator's static seed fared: Jumps is how
// many chains skipped growth, Confirms how many minimality probes
// crashed as predicted, Misses how many predictions were off (too
// small: the jump probe still faulted; too large: SeedSize-1 succeeded
// and the chain fell back to cold growth).
type SeedStats struct {
	Jumps    int
	Confirms int
	Misses   int
}

var _ Generator = (*ArrayGen)(nil)

// The growth cap and benign default size of the pointer generators
// ForParam selects (generic pointers and char buffers).
const (
	ArrayMaxSize     = 8192
	ArrayDefaultSize = 256
)

// NewArrayGen returns an array generator with the given growth cap and
// default (benign) size.
func NewArrayGen(maxSize, defaultSize int) *ArrayGen {
	return &ArrayGen{
		MaxSize:     maxSize,
		DefaultSize: defaultSize,
		observed:    make(map[int]bool),
		confirmed:   make(map[int]bool),
	}
}

// Name implements Generator.
func (g *ArrayGen) Name() string { return "array" }

func (g *ArrayGen) protProbe(size int, prot cmem.Prot, fund func(int) string) *Probe {
	g.observed[size] = true
	data := g.fillRun(g.Fill, size) // capture: Build runs later, after Fill may change
	pr := &Probe{Fund: fund(size), Size: size}
	pr.Build = func(p *csim.Process) uint64 {
		pr.Region = MountFlushData(p, data, prot)
		return uint64(pr.Region.Base)
	}
	return pr
}

// fillRun returns size bytes of fill. Runs are shared and must not be
// mutated; a longer one replaces the shorter, at least doubling it.
func (g *ArrayGen) fillRun(fill byte, size int) []byte {
	run := g.fills[fill]
	if len(run) < size {
		run = bytes.Repeat([]byte{fill}, max(size, 2*len(run)))
		if g.fills == nil {
			g.fills = make(map[byte][]byte)
		}
		g.fills[fill] = run
	}
	return run[:size]
}

func (g *ArrayGen) start() {
	g.started = true
	g.queue = append(g.queue, nullProbe())
	g.queue = append(g.queue, invalidProbes()...)
	// The three adaptive chains, each starting at size zero ("we first
	// allocate an array of zero size"). A static prediction arms each
	// chain it keeps; a const-qualified pointee drops the write chains.
	chains := []struct {
		prot cmem.Prot
		fund func(int) string
	}{
		{cmem.ProtRead, typesys.NameROnlyFixed},
		{cmem.ProtRW, typesys.NameRWFixed},
		{cmem.ProtWrite, typesys.NameWOnlyFixed},
	}
	g.seeds = make(map[cmem.Prot]*seedChain)
	for _, ch := range chains {
		if g.SkipWriteChains && ch.prot != cmem.ProtRead {
			continue
		}
		if g.SeedSize > 0 {
			g.seeds[ch.prot] = &seedChain{state: seedArmed}
		}
		g.queue = append(g.queue, g.protProbe(0, ch.prot, ch.fund))
	}
	for _, fill := range g.VariantFills {
		saved := g.Fill
		g.Fill = fill
		g.queue = append(g.queue,
			g.protProbe(g.DefaultSize, cmem.ProtRead, typesys.NameROnlyFixed),
			g.protProbe(g.DefaultSize, cmem.ProtRW, typesys.NameRWFixed),
		)
		g.Fill = saved
	}
}

// Next implements Generator.
func (g *ArrayGen) Next() *Probe {
	if !g.started {
		g.start()
	}
	if len(g.queue) == 0 {
		return nil
	}
	pr := g.queue[0]
	g.queue = g.queue[1:]
	return pr
}

// preciseGrowthLimit is the region size below which growth follows the
// faulting address byte-exactly (so boundaries like asctime's 44 bytes
// are discovered precisely); above it growth doubles, because a
// function still faulting past a quarter page is consuming an
// argument-controlled amount of memory and only the cap matters.
const preciseGrowthLimit = 256

// Adjust implements Generator: grow the region so it covers the failed
// access, staying within the same protection chain.
func (g *ArrayGen) Adjust(pr *Probe, faultAddr cmem.Addr) *Probe {
	if pr.Region.Base == 0 {
		return nil // NULL/INVALID probes are not adjustable
	}
	end := pr.Region.Base + cmem.Addr(pr.Region.Size)
	if faultAddr < end {
		// The fault is inside the region (a protection violation, not
		// an out-of-bounds access): growing cannot help.
		return nil
	}
	newSize := int(faultAddr-pr.Region.Base) + 1
	if pr.Region.Size >= preciseGrowthLimit && newSize < pr.Region.Size*2 {
		newSize = pr.Region.Size * 2
	}
	prot := protOfFund(pr.Fund)
	fund := fundNamer(pr.Fund)
	if st := g.seeds[prot]; st != nil {
		switch st.state {
		case seedArmed:
			if g.SeedSize > newSize && g.SeedSize <= g.MaxSize {
				st.state = seedJumped
				g.stats.Jumps++
				return g.protProbe(g.SeedSize, prot, fund)
			}
			// The fault already demands at least the predicted size:
			// the jump would not save anything.
			st.state = seedDone
		case seedJumped:
			if pr.Size == g.SeedSize {
				// The jump probe itself faulted past its end: the
				// prediction was too small. Cold growth takes over.
				st.state = seedDone
				g.stats.Misses++
			}
		case seedChecking:
			if pr.Size == g.SeedSize-1 {
				// The minimality probe crashed: SeedSize is minimal,
				// exactly as predicted. The crash is already recorded
				// as evidence; nothing is left to grow.
				st.state = seedDone
				g.stats.Confirms++
				return nil
			}
		}
	}
	if newSize <= pr.Region.Size || newSize > g.MaxSize {
		return nil
	}
	return g.protProbe(newSize, prot, fund)
}

// DisarmSeeds ends any pending seed jumps. The injector calls it after
// exploration so dependent-size re-measurement (which regrows fresh
// chains to find true minima) can never be contaminated by a static
// prediction.
func (g *ArrayGen) DisarmSeeds() {
	for _, st := range g.seeds {
		st.state = seedDone
	}
}

// SeedOutcome returns the seed outcome counters.
func (g *ArrayGen) SeedOutcome() SeedStats { return g.stats }

// protOfFund recovers the protection of a chain from its type name.
func protOfFund(fund string) cmem.Prot {
	switch {
	case len(fund) >= 2 && fund[:2] == "RW":
		return cmem.ProtRW
	case len(fund) >= 1 && fund[0] == 'W':
		return cmem.ProtWrite
	default:
		return cmem.ProtRead
	}
}

func fundNamer(fund string) func(int) string {
	switch protOfFund(fund) {
	case cmem.ProtRW:
		return typesys.NameRWFixed
	case cmem.ProtWrite:
		return typesys.NameWOnlyFixed
	default:
		return typesys.NameROnlyFixed
	}
}

// NoteSuccess reacts to a probe of this generator succeeding: it
// enqueues confirmation probes of the same size under the two other
// protections. Without them a function needing read AND write access
// would leave no crash evidence against dropping one of the
// requirements (the cfsetospeed read-modify-write asymmetry needs a
// read-only case at the final size to pin RW_ARRAY over R_ARRAY).
func (g *ArrayGen) NoteSuccess(pr *Probe) {
	if pr.Region.Base == 0 || pr.Size == 0 {
		return
	}
	if st := g.seeds[protOfFund(pr.Fund)]; st != nil {
		switch {
		case st.state == seedJumped && pr.Size == g.SeedSize:
			if g.SeedSize <= 1 {
				st.state = seedDone
				g.stats.Confirms++
			} else {
				// The jump landed on a working size; probe one byte
				// below to confirm it is also the *minimal* one.
				st.state = seedChecking
				g.queue = append(g.queue, g.protProbe(g.SeedSize-1, protOfFund(pr.Fund), fundNamer(pr.Fund)))
			}
		case st.state == seedChecking && pr.Size == g.SeedSize-1:
			// The minimality probe succeeded: the prediction was too
			// large. Restart the chain cold so it still finds the true
			// minimum — a wrong seed costs probes, never precision.
			st.state = seedDone
			g.stats.Misses++
			g.queue = append(g.queue, g.protProbe(0, protOfFund(pr.Fund), fundNamer(pr.Fund)))
		}
	}
	if g.confirmed[pr.Size] {
		return
	}
	g.confirmed[pr.Size] = true
	prot := protOfFund(pr.Fund)
	if prot != cmem.ProtRead {
		g.queue = append(g.queue, g.protProbe(pr.Size, cmem.ProtRead, typesys.NameROnlyFixed))
	}
	if prot != cmem.ProtRW {
		g.queue = append(g.queue, g.protProbe(pr.Size, cmem.ProtRW, typesys.NameRWFixed))
	}
	if prot != cmem.ProtWrite {
		g.queue = append(g.queue, g.protProbe(pr.Size, cmem.ProtWrite, typesys.NameWOnlyFixed))
	}
}

// Default implements Generator: a benign read-write region.
func (g *ArrayGen) Default() *Probe {
	return g.protProbe(g.DefaultSize, cmem.ProtRW, typesys.NameRWFixed)
}

// ChainProbe returns a fresh growth-chain start for dependent-size
// re-runs (the injector re-measures the minimal size under different
// values of the other arguments).
func (g *ArrayGen) ChainProbe(prot cmem.Prot) *Probe {
	return g.protProbe(0, prot, func(s int) string {
		switch prot {
		case cmem.ProtRW:
			return typesys.NameRWFixed(s)
		case cmem.ProtWrite:
			return typesys.NameWOnlyFixed(s)
		default:
			return typesys.NameROnlyFixed(s)
		}
	})
}

// SizedProbe returns a probe of exactly size bytes under the given
// protection — the building block of a *static* size grid, used by the
// adaptive-vs-static ablation benchmark.
func SizedProbe(g *ArrayGen, size int, prot cmem.Prot) *Probe {
	switch prot {
	case cmem.ProtRW:
		return g.protProbe(size, prot, typesys.NameRWFixed)
	case cmem.ProtWrite:
		return g.protProbe(size, prot, typesys.NameWOnlyFixed)
	default:
		return g.protProbe(size, prot, typesys.NameROnlyFixed)
	}
}

// SizesObserved returns every region size the generator has probed.
func (g *ArrayGen) SizesObserved() []int {
	out := make([]int, 0, len(g.observed))
	for s := range g.observed {
		out = append(out, s)
	}
	return out
}

// Hierarchy implements Generator.
func (g *ArrayGen) Hierarchy() *typesys.Hierarchy {
	return typesys.BuildArrayHierarchy(g.SizesObserved())
}
