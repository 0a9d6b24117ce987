package injector

import (
	"healers/internal/csim"
	"healers/internal/gens"
)

// Checkpointed fork trees. A campaign's experiments materialize their
// probe vectors one build at a time, and consecutive experiments
// overwhelmingly share the expensive part of that work: the exploration
// phase holds every argument but one at its default probe, the growth
// chains re-run the same defaults dozens of times while one argument's
// region grows, and the product phase cycles a handful of
// representative probes. The historical driver re-forked the template
// and re-built the full probe vector for every experiment —
// O(args × probes) materialization work per campaign.
//
// Two properties make the sharing exploitable:
//
//   - Pure probes (Probe.Pure) build constants — scalar values, NULL,
//     invalid pointers, bad descriptors — without reading or mutating
//     the process. They cost nothing to rebuild, so the tree treats
//     them as transparent: they never get a checkpoint and every run
//     rebuilds them in the child. Experiments that differ only in pure
//     probes share the same checkpoints.
//   - Build order is the vector's own: probes still at their campaign
//     default build first, in position order, and the varied probes
//     build last (see campaign.buildOrder). The stable builds — the
//     expensive FILE and buffer defaults — therefore form a shared
//     prefix of build steps no matter which argument an experiment
//     varies, even when the varied argument sits before them
//     positionally. A growth chain's every step forks one node holding
//     the full default set and builds a single probe.
//
// The tree memoizes build-step sequences as processes: an edge is
// (position, probe) and the node behind it is a fork of its parent in
// which that probe has been built. A node's mask records which
// positions are baked into its process. An experiment walks its build
// order down the tree, forks the deepest matching node, and builds
// only what the mask lacks. Forking a checkpoint is an ordinary
// copy-on-write csim.Fork, so a child that crashes or scribbles over a
// prefix region cannot corrupt the node it came from.
//
// Invariants (the differential and race tests pin these):
//
//   - Determinism: a vector's build order is a pure function of the
//     vector (pointer-compare against the defaults), and the state
//     after an edge is a pure function of (parent state, position,
//     probe) — simulated mmap, malloc, fd and inode cursors are all
//     inherited through Fork. A child assembled from checkpoints is
//     therefore byte-identical to one built from scratch in the same
//     order, whether checkpoints are enabled or not and however many
//     workers run. Robust-type vectors and golden files do not change.
//   - Region restoration: Probe.Build records the probe's owned Region
//     on the shared Probe struct, which later experiments overwrite.
//     Each node therefore snapshots the values and regions its builds
//     produced, and forkFor restores them before the run, so fault
//     attribution sees exactly what a full rebuild would.
//   - Edges are keyed by (position, probe pointer), not value:
//     generators hand the campaign stable *Probe pointers (defaults
//     are captured once), growth probes are fresh pointers per step,
//     and the position qualifier keeps distinct argument slots from
//     aliasing each other's build histories.
//   - Ownership: a tree belongs to one campaign goroutine. Checkpoint
//     nodes may hold open descriptors (the FILE default), and
//     unsynchronized descriptor state makes forking a node safe only
//     single-threaded. Templates stay descriptor-free and remain safe
//     to fork concurrently.
//   - Promotion is on second use: the first experiment that needs a
//     build sequence pays the full build (the edge is only recorded),
//     the second materializes the node, so one-shot sequences never
//     cost a checkpoint fork. Default probes are the exception and
//     promote immediately — the defaults-first build order guarantees
//     they recur.
//
// The tree is bounded by ckptMaxNodes; past the cap, experiments fall
// back to building from the deepest existing node.

// ckptMaxNodes caps the per-campaign checkpoint count. Edges exist only
// for impure probes, so the budget is spent entirely on state-bearing
// builds (buffers, strings, FILEs) shared across experiments.
const ckptMaxNodes = 128

// Edge states for promote-on-second-use.
const (
	edgeSeen uint8 = iota + 1 // requested once; promote on next use
	edgeDead                  // materialization failed; never retry
)

// ckptEdge identifies one build step: probe pr built at argument
// position pos.
type ckptEdge struct {
	pos int
	pr  *gens.Probe
}

// ckptNode is one memoized build sequence.
type ckptNode struct {
	// proc has every position in mask built; nil for the root, where
	// the campaign template (owned by the campaign, not the tree)
	// stands in.
	proc *csim.Process
	mask uint64
	// built counts the builds baked into proc — the per-run builds a
	// fork of this node avoids.
	built int
	// vals and regions snapshot what the builds produced, indexed by
	// argument position: the argument values passed to the function
	// under test and the owned regions used for fault attribution.
	// Entries at positions outside mask are unset.
	vals    []uint64
	regions []gens.Region

	kids map[ckptEdge]*ckptNode
	seen map[ckptEdge]uint8
}

// fork returns a run child of the node (the template for the root).
func (n *ckptNode) fork(template *csim.Process) *csim.Process {
	if n.proc == nil {
		return template.Fork()
	}
	return n.proc.Fork()
}

// ckptTree is a campaign's checkpoint fork tree.
type ckptTree struct {
	c     *campaign
	root  *ckptNode
	nodes int
}

func newCkptTree(c *campaign) *ckptTree {
	return &ckptTree{c: c, root: &ckptNode{
		kids: make(map[ckptEdge]*ckptNode),
		seen: make(map[ckptEdge]uint8),
	}}
}

// forkFor returns a child process for the probe vector, forked from the
// deepest checkpoint matching a prefix of its build order, and the node
// it came from. The caller builds only the positions outside node.mask,
// seeding args with node.vals; the covered probes' Region fields are
// restored here. Probes must be fully resolved (no nils) and order must
// be the vector's build order.
func (t *ckptTree) forkFor(probes []*gens.Probe, order []int) (*csim.Process, *ckptNode) {
	n := t.root
	for _, k := range order {
		pr := probes[k]
		if pr.Pure {
			continue
		}
		e := ckptEdge{pos: k, pr: pr}
		if kid, ok := n.kids[e]; ok {
			n = kid
			continue
		}
		// Promote on second use — except default probes, which the
		// defaults-first build order guarantees will recur, so their
		// first use already pays for a node.
		if (n.seen[e] != edgeSeen && pr != t.c.defaults[k]) || t.nodes >= ckptMaxNodes {
			if n.seen[e] == 0 {
				n.seen[e] = edgeSeen
			}
			break
		}
		kid := t.materialize(n, pr, k, len(probes))
		if kid == nil {
			n.seen[e] = edgeDead
			break
		}
		n.kids[e] = kid
		n = kid
	}
	for k, pr := range probes {
		if n.mask&(1<<uint(k)) != 0 {
			pr.Region = n.regions[k]
		}
	}
	if n.mask != 0 {
		t.c.inj.mCheckpointForks.Inc()
		t.c.inj.mBuildsAvoided.Add(int64(n.built))
	}
	return n.fork(t.c.template), n
}

// materialize creates the child node of parent along pr at position
// pos: one fork plus one probe build. A build that does not return
// cleanly is a harness problem the per-experiment path will surface;
// the edge is marked dead so it is never retried.
func (t *ckptTree) materialize(parent *ckptNode, pr *gens.Probe, pos, nargs int) *ckptNode {
	proc := parent.fork(t.c.template)
	proc.SetStepBudget(StepBudget)
	var val uint64
	out := proc.Run(func() uint64 { val = pr.Build(proc); return 0 })
	if out.Kind != csim.OutcomeReturn {
		proc.Release()
		return nil
	}
	t.nodes++
	t.c.inj.mCheckpoints.Inc()
	kid := &ckptNode{
		proc:    proc,
		mask:    parent.mask | 1<<uint(pos),
		built:   parent.built + 1,
		vals:    make([]uint64, nargs),
		regions: make([]gens.Region, nargs),
		kids:    make(map[ckptEdge]*ckptNode),
		seen:    make(map[ckptEdge]uint8),
	}
	copy(kid.vals, parent.vals)
	copy(kid.regions, parent.regions)
	kid.vals[pos] = val
	kid.regions[pos] = pr.Region
	return kid
}

// release returns every node's pages to the shared pool and drops the
// nodes' references to their released processes. Called before the
// template's own release, since nodes fork from it.
func (t *ckptTree) release() {
	var walk func(n *ckptNode)
	walk = func(n *ckptNode) {
		for _, kid := range n.kids {
			walk(kid)
		}
		if n.proc != nil {
			n.proc.Release()
			n.proc = nil
		}
	}
	walk(t.root)
	t.root = nil
}

// buildOrder returns the argument positions of probes in build order:
// positions still holding their campaign default probe first, in
// position order, then the varied positions. The order is a pure
// function of the vector, so the memory layout of a materialized child
// is reproducible from the vector alone — and the expensive default
// builds form a shared build-step prefix whichever argument an
// experiment varies. The slice aliases campaign scratch space, valid
// until the next call.
func (c *campaign) buildOrder(probes []*gens.Probe) []int {
	order := c.orderScratch[:0]
	for k, pr := range probes {
		if pr == c.defaults[k] {
			order = append(order, k)
		}
	}
	for k, pr := range probes {
		if pr != c.defaults[k] {
			order = append(order, k)
		}
	}
	c.orderScratch = order
	return order
}

// forkChild forks the run child for probes — through the checkpoint
// tree when enabled, straight off the template otherwise (node nil).
func (c *campaign) forkChild(probes []*gens.Probe, order []int) (*csim.Process, *ckptNode) {
	if c.ckpt != nil {
		return c.ckpt.forkFor(probes, order)
	}
	return c.template.Fork(), nil
}
