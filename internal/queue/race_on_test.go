//go:build race

package queue

// raceEnabled reports whether the race detector is active; it makes
// sync.Pool drop entries at random, so the AllocsPerRun tests skip under
// it.
const raceEnabled = true
