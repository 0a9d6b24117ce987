// Package crashpoint is the whitebox killpoint registry for the
// crash-safety harness (cmd/crashtest). A killpoint is a named seam in
// a durability-critical code path — around the disk cache's fsync, inside
// its line append, at the serve layer's campaign commit — where a test
// build can make the process die by SIGKILL, exactly there, to prove
// recovery works from that state.
//
// The package has two personalities selected by the `crashtest` build
// tag. Without the tag (every production and tier-1 test build),
// Armed/Firing are constant-false and Hit is an empty function, so the
// hooks compile to nothing on the hot paths. With the tag, one point
// is armed through the environment:
//
//	HEALERS_CRASHPOINT=<name>[:N]
//
// and the Nth execution of Hit(<name>) kills the process with
// SIGKILL — not os.Exit, not a panic — so no deferred cleanup,
// flushing, or unlock runs, which is the whole point: the orchestrator
// restarts over the surviving on-disk state and verifies the oracle.
package crashpoint

// Registered killpoint names. Every name here has a Hit (or
// Firing+Hit) site in the codebase; cmd/crashtest's whitebox sweep
// iterates Points() so an added killpoint without a scenario fails the
// sweep rather than rotting silently.
const (
	// DiskCachePutBefore fires before a result line is appended to the
	// cache file: the computed result dies with the process and must be
	// recomputed after restart.
	DiskCachePutBefore = "diskcache.put.before"
	// DiskCachePutMidline fires mid-append: only the first half of the
	// line reaches the kernel, forcing the truncated-tail load path.
	DiskCachePutMidline = "diskcache.put.midline"
	// DiskCacheSyncBefore fires inside a disk cache's Sync before the
	// fsync: every completed write is in the page cache but not yet
	// durable against power loss (process death loses nothing).
	DiskCacheSyncBefore = "diskcache.sync.before"
	// DiskCacheSyncAfter fires inside a disk cache's Sync after the fsync.
	DiskCacheSyncAfter = "diskcache.sync.after"
	// ServeCommitBefore fires at campaign commit in internal/serve,
	// before the commit sync: the campaign finished computing but was
	// never acknowledged as done.
	ServeCommitBefore = "serve.commit.before"
	// ServeCommitAfter fires after the commit sync, before the done
	// state is published.
	ServeCommitAfter = "serve.commit.after"
)

// Points returns every registered killpoint name, in a stable order.
func Points() []string {
	return []string{
		DiskCachePutBefore,
		DiskCachePutMidline,
		DiskCacheSyncBefore,
		DiskCacheSyncAfter,
		ServeCommitBefore,
		ServeCommitAfter,
	}
}

// EnvVar is the environment variable that arms a killpoint in a
// crashtest-tagged build: HEALERS_CRASHPOINT=<name>[:N].
const EnvVar = "HEALERS_CRASHPOINT"
