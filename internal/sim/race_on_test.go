//go:build race

package sim

// raceEnabled reports whether the race detector is active: it makes
// sync.Pool drop entries at random, so the AllocsPerRun pin skips under
// it, and it slows the replay past the adversarial test's time bound.
const raceEnabled = true
