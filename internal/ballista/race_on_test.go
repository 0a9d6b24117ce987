//go:build race

package ballista

// raceEnabled reports whether the race detector instruments this build.
// It drops sync.Pool entries at random, so recycled page buffers are
// allocated again and a zero allocation count cannot hold.
const raceEnabled = true
