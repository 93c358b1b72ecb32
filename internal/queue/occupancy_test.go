package queue

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// simOccupancy brute-forces the steady-state occupancy of a queue: run
// enough iterations and take the maximum resident count over a late,
// periodic window.
func simOccupancy(lts []Lifetime, ii int) int {
	maxLen := 0
	for _, lt := range lts {
		if lt.Len() > maxLen {
			maxLen = lt.Len()
		}
	}
	warm := (maxLen/ii + 3) * ii
	end := warm + 2*ii
	max := 0
	for t := warm; t < end; t++ {
		n := 0
		for _, lt := range lts {
			// Count instances k with Start+k*ii <= t < End+k*ii.
			for k := 0; ; k++ {
				s := lt.Start + k*ii
				if s > t {
					break
				}
				if t < lt.End+k*ii {
					n++
				}
			}
		}
		if n > max {
			max = n
		}
	}
	return max
}

// TestMaxOccupancyMatchesSimulation: the closed-form residency formula
// must agree with brute-force counting on random lifetime sets.
func TestMaxOccupancyMatchesSimulation(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	check := func() bool {
		ii := 1 + rng.Intn(8)
		n := 1 + rng.Intn(5)
		lts := make([]Lifetime, n)
		for i := range lts {
			s := rng.Intn(3 * ii)
			lts[i] = Lifetime{Start: s, End: s + rng.Intn(3*ii)}
		}
		got := maxOccupancy(lts, ii)
		want := simOccupancy(lts, ii)
		if got != want {
			t.Logf("ii=%d lts=%v: formula=%d sim=%d", ii, lts, got, want)
		}
		return got == want
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestOccupancyPhaseShiftInvariance: shifting every lifetime by a
// constant leaves the steady-state occupancy unchanged.
func TestOccupancyPhaseShiftInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 500; trial++ {
		ii := 1 + rng.Intn(8)
		n := 1 + rng.Intn(4)
		lts := make([]Lifetime, n)
		for i := range lts {
			s := rng.Intn(2 * ii)
			lts[i] = Lifetime{Start: s, End: s + rng.Intn(3*ii)}
		}
		shift := rng.Intn(4 * ii)
		shifted := make([]Lifetime, n)
		for i, lt := range lts {
			shifted[i] = Lifetime{Start: lt.Start + shift, End: lt.End + shift}
		}
		if maxOccupancy(lts, ii) != maxOccupancy(shifted, ii) {
			t.Fatalf("occupancy not shift-invariant: %v shift %d", lts, shift)
		}
	}
}

// TestCompatibleShiftInvariance: compatibility depends only on relative
// position, so shifting both lifetimes preserves it.
func TestCompatibleShiftInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 2000; trial++ {
		ii := 1 + rng.Intn(10)
		a := Lifetime{Start: rng.Intn(3 * ii)}
		a.End = a.Start + rng.Intn(3*ii)
		b := Lifetime{Start: rng.Intn(3 * ii)}
		b.End = b.Start + rng.Intn(3*ii)
		shift := rng.Intn(5 * ii)
		a2 := Lifetime{Start: a.Start + shift, End: a.End + shift}
		b2 := Lifetime{Start: b.Start + shift, End: b.End + shift}
		if Compatible(a, b, ii) != Compatible(a2, b2, ii) {
			t.Fatalf("compatibility not shift-invariant: %v %v shift %d ii %d", a, b, shift, ii)
		}
	}
}
