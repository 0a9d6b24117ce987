//go:build !race

package ballista

const raceEnabled = false
