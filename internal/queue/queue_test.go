package queue

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"vliwq/internal/ir"
	"vliwq/internal/sched"
)

// buildLifetimes derives one lifetime per flow dependence of the schedule,
// as Allocate does.
func buildLifetimes(s *sched.Schedule) []Lifetime {
	return appendLifetimes(nil, s)
}

// maxOccupancy returns the largest number of values simultaneously
// resident in a queue holding the given lifetimes, in pipeline steady
// state, through the occupy and peak steps Allocate takes per queue. A
// lifetime of length L contributes ceil((L-r)/II) instances at phase
// offset r from its start.
func maxOccupancy(lts []Lifetime, ii int) int {
	diff := make([]int32, ii+1)
	base := 0
	for _, lt := range lts {
		base += occupy(diff, phaseOf(lt.Start, lt.End, ii), ii)
	}
	return base + peak(diff, ii)
}

// fifoCompatible brute-forces the Q-compatibility question: it merges the
// periodic write/read event streams of two lifetimes over enough iterations
// to cover every phase relation and simulates a FIFO queue. Two writes or
// two reads in the same cycle, or any pop delivering the wrong instance,
// means the pair cannot share a queue.
func fifoCompatible(a, b Lifetime, ii int) bool {
	maxLen := a.Len()
	if b.Len() > maxLen {
		maxLen = b.Len()
	}
	iters := maxLen/ii + 6
	type ev struct {
		t     int
		write bool
		who   int // 0 = a, 1 = b
		k     int
	}
	var evs []ev
	for k := 0; k < iters; k++ {
		evs = append(evs,
			ev{a.Start + k*ii, true, 0, k},
			ev{b.Start + k*ii, true, 1, k},
			ev{a.End + k*ii, false, 0, k},
			ev{b.End + k*ii, false, 1, k},
		)
	}
	sort.SliceStable(evs, func(i, j int) bool {
		if evs[i].t != evs[j].t {
			return evs[i].t < evs[j].t
		}
		// Writes before reads in the same cycle (hardware bypass).
		return evs[i].write && !evs[j].write
	})
	type tag struct{ who, k int }
	var fifo []tag
	lastWrite, lastRead := -1, -1
	for _, e := range evs {
		if e.write {
			if e.t == lastWrite {
				return false // write-port conflict
			}
			lastWrite = e.t
			fifo = append(fifo, tag{e.who, e.k})
		} else {
			if e.t == lastRead {
				return false // read-port conflict
			}
			lastRead = e.t
			if len(fifo) == 0 {
				// The read's value was written before the simulated window;
				// only possible in the warm-up region. Skip it — order
				// violations repeat every II cycles, so the steady-state
				// window catches them.
				continue
			}
			head := fifo[0]
			fifo = fifo[1:]
			if head.who != e.who || head.k != e.k {
				return false
			}
		}
	}
	return true
}

// TestCompatibleMatchesFIFOSimulation is the central property test: the
// closed-form Theorem 1.1 must agree with brute-force FIFO simulation on
// random lifetime pairs.
func TestCompatibleMatchesFIFOSimulation(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	check := func() bool {
		ii := 1 + rng.Intn(12)
		a := Lifetime{Start: rng.Intn(3 * ii)}
		b := Lifetime{Start: rng.Intn(3 * ii)}
		a.End = a.Start + rng.Intn(4*ii)
		b.End = b.Start + rng.Intn(4*ii)
		got := Compatible(a, b, ii)
		want := fifoCompatible(a, b, ii)
		if got != want {
			t.Logf("II=%d a=[%d,%d) b=[%d,%d): Compatible=%v fifo=%v",
				ii, a.Start, a.End, b.Start, b.End, got, want)
		}
		return got == want
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestCompatibleKnownCases(t *testing.T) {
	lt := func(s, e int) Lifetime { return Lifetime{Start: s, End: e} }
	cases := []struct {
		name string
		a, b Lifetime
		ii   int
		want bool
	}{
		// Same write slot: write-port conflict regardless of lengths.
		{"same-start", lt(0, 3), lt(0, 2), 4, false},
		{"same-start-mod", lt(0, 3), lt(4, 6), 4, false},
		// Staggered starts, equal lengths: always compatible if slots
		// differ.
		{"stagger-equal", lt(0, 2), lt(1, 3), 4, true},
		// Length difference equal to the stagger: reads collide.
		{"read-collision", lt(0, 5), lt(1, 5), 4, false},
		// Length difference one below the stagger: compatible.
		{"just-fits", lt(0, 4), lt(2, 5), 4, true},
		// Length difference >= II can never fit.
		{"too-long", lt(0, 9), lt(1, 2), 4, false},
		// Zero-length lifetimes at distinct slots are compatible.
		{"zero-length", lt(0, 0), lt(1, 1), 4, true},
		{"zero-length-same", lt(2, 2), lt(2, 2), 4, false},
		// Order of arguments must not matter.
		{"symmetric", lt(2, 5), lt(0, 4), 4, true},
	}
	for _, c := range cases {
		if got := Compatible(c.a, c.b, c.ii); got != c.want {
			t.Errorf("%s: Compatible(%v,%v,II=%d) = %v, want %v", c.name, c.a, c.b, c.ii, got, c.want)
		}
		if got := Compatible(c.b, c.a, c.ii); got != c.want {
			t.Errorf("%s (swapped): got %v, want %v", c.name, got, c.want)
		}
	}
}

func TestCompatibleIsSymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 2000; i++ {
		ii := 1 + rng.Intn(10)
		a := Lifetime{Start: rng.Intn(20)}
		a.End = a.Start + rng.Intn(30)
		b := Lifetime{Start: rng.Intn(20)}
		b.End = b.Start + rng.Intn(30)
		if Compatible(a, b, ii) != Compatible(b, a, ii) {
			t.Fatalf("asymmetric: a=%v b=%v ii=%d", a, b, ii)
		}
	}
}

func TestCompatibleNeverWithSelf(t *testing.T) {
	// A lifetime is never compatible with a copy of itself (same write
	// slot), for any II.
	for ii := 1; ii <= 8; ii++ {
		for s := 0; s < 6; s++ {
			for l := 0; l < 10; l++ {
				a := Lifetime{Start: s, End: s + l}
				if Compatible(a, a, ii) {
					t.Fatalf("lifetime %v compatible with itself at II=%d", a, ii)
				}
			}
		}
	}
}

func TestCompatibleLongLifetimes(t *testing.T) {
	// A lifetime longer than the other by at least II is never compatible.
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 1000; i++ {
		ii := 1 + rng.Intn(8)
		b := Lifetime{Start: rng.Intn(10)}
		b.End = b.Start + rng.Intn(10)
		a := Lifetime{Start: rng.Intn(10)}
		a.End = a.Start + b.Len() + ii + rng.Intn(10)
		if Compatible(a, b, ii) {
			t.Fatalf("II=%d: %v and %v compatible despite length gap >= II", ii, a, b)
		}
	}
}

func TestMaxOccupancy(t *testing.T) {
	cases := []struct {
		name string
		lts  []Lifetime
		ii   int
		want int
	}{
		{"empty", nil, 4, 0},
		// One lifetime of length 1: a single position.
		{"short", []Lifetime{{Start: 0, End: 1}}, 4, 1},
		// Length 2*II: at any instant, two instances are resident... plus
		// the phase where a third is being written: ceil provides it.
		{"two-ii", []Lifetime{{Start: 0, End: 8}}, 4, 2},
		// Zero-length lifetimes never occupy a slot in steady state.
		{"zero", []Lifetime{{Start: 3, End: 3}}, 4, 0},
		// Two disjoint short lifetimes in one II can share their peak.
		{"pair", []Lifetime{{Start: 0, End: 1}, {Start: 1, End: 3}}, 4, 1},
		{"overlap", []Lifetime{{Start: 0, End: 2}, {Start: 1, End: 3}}, 4, 2},
	}
	for _, c := range cases {
		if got := maxOccupancy(c.lts, c.ii); got != c.want {
			t.Errorf("%s: maxOccupancy = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestCompatibleSetPairwise(t *testing.T) {
	// Three lifetimes, each pair compatible -> set compatible; breaking
	// one pair breaks the set.
	ii := 6
	a := Lifetime{Start: 0, End: 2}
	b := Lifetime{Start: 3, End: 4}
	c := Lifetime{Start: 5, End: 6}
	if !CompatibleSet([]Lifetime{a, b, c}, ii) {
		t.Fatal("pairwise-compatible set rejected")
	}
	d := Lifetime{Start: 3, End: 9} // collides with b's write slot
	if CompatibleSet([]Lifetime{a, b, d}, ii) {
		t.Fatal("set with incompatible pair accepted")
	}
}

// TestDepIndexDistinguishesDuplicates covers the a*a pattern: the same
// producer feeding the same consumer twice yields two lifetimes that are
// never compatible and must land in different queues.
func TestDepIndexDistinguishesDuplicates(t *testing.T) {
	l := ir.New("square")
	x := l.AddOp(ir.KLoad, "x")
	m := l.AddOp(ir.KMul, "xx")
	l.AddFlow(x, m)
	l.AddFlow(x, m)
	st := l.AddOp(ir.KStore, "st")
	l.AddFlow(m, st)
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	// Both x->m lifetimes have identical times; they must be incompatible.
	a := Lifetime{DepIndex: 0, Start: 2, End: 4}
	b := Lifetime{DepIndex: 1, Start: 2, End: 4}
	if Compatible(a, b, 3) {
		t.Fatal("duplicate lifetimes reported compatible")
	}
}
