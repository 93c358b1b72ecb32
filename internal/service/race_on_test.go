//go:build race

package service

// raceEnabled reports whether the race detector is active; its
// instrumentation slows every compile several times over, so tests that
// need a compile to outlast a budget can size it down under it.
const raceEnabled = true
