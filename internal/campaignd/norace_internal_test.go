//go:build !race

package campaignd

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = false
