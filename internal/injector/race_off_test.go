//go:build !race

package injector

const raceEnabled = false
