//go:build !race

package unroll

const raceEnabled = false
