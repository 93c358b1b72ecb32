//go:build !race

package queue

const raceEnabled = false
