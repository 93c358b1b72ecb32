//go:build race

package gateway

// raceEnabled reports whether the race detector is active; its
// instrumentation slows every kernel, so wall-clock bounds scale under it.
const raceEnabled = true
