//go:build race

package injector

// raceEnabled reports whether the race detector instruments this build.
// It drops sync.Pool entries at random, so recycled page buffers are
// allocated again and byte counts are not comparable.
const raceEnabled = true
