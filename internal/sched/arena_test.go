package sched

import (
	"context"
	"runtime"
	"slices"
	"sync"
	"testing"

	"vliwq/internal/corpus"
	"vliwq/internal/ir"
	"vliwq/internal/machine"
)

// TestScheduleLoopAllocs locks in the scratch-arena behaviour: once the
// pooled state has seen a loop of a given size, rescheduling stays within a
// small constant allocation budget (the returned Schedule and its two
// placement arrays). The pre-arena scheduler allocated well over a
// hundred times per loop here.
func TestScheduleLoopAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation inflates allocation counts")
	}
	loops := corpus.Generate(corpus.Params{Seed: corpus.DefaultSeed, N: 16})
	for _, cfg := range []machine.Config{machine.SingleCluster(12), machine.Clustered(4)} {
		// Warm the pool so every arena reaches its high-water size.
		for _, l := range loops {
			if _, err := ScheduleLoop(context.Background(), l, cfg, EffortFast); err != nil {
				t.Fatalf("%s on %s: %v", l.Name, cfg.Name, err)
			}
		}
		var total float64
		for _, l := range loops {
			total += testing.AllocsPerRun(10, func() {
				if _, err := ScheduleLoop(context.Background(), l, cfg, EffortFast); err != nil {
					t.Fatalf("%s on %s: %v", l.Name, cfg.Name, err)
				}
			})
		}
		// 3 allocs/loop in practice; 25 leaves headroom for a GC clearing
		// the sync.Pool mid-measurement without masking a regression back
		// toward the former ~180+/loop.
		if mean := total / float64(len(loops)); mean > 25 {
			t.Errorf("%s: ScheduleLoop allocates %.1f times per loop, want <= 25", cfg.Name, mean)
		}
	}
}

// TestPortfolioAllocsIndependentOfGOMAXPROCS pins the allocations of an
// exhaustive ScheduleLoop, whose five strategies run on the calling
// goroutine: over the 48 loops BenchmarkSchedulePortfolioExhaustive
// schedules on clustered:6, a pass allocates as much at GOMAXPROCS 4 as at
// 1. testing.AllocsPerRun cannot measure this, because it pins GOMAXPROCS
// to 1 while it counts, so the test reads the malloc counter itself. It
// keeps the cheapest of ten passes: a pass whose goroutine moved to
// another processor misses that processor's sync.Pool entries and
// allocates fresh arenas, which says nothing about the scheduler.
func TestPortfolioAllocsIndependentOfGOMAXPROCS(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation inflates allocation counts")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	loops := corpus.Generate(corpus.Params{Seed: corpus.DefaultSeed, N: 48})
	cfg := machine.Clustered(6)
	pass := func() {
		for _, l := range loops {
			if _, err := ScheduleLoop(context.Background(), l, cfg, EffortExhaustive); err != nil {
				t.Fatalf("%s: %v", l.Name, err)
			}
		}
	}
	var perPass [2]uint64
	for i, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		pass() // warm the pools at this processor count
		perPass[i] = ^uint64(0)
		for r := 0; r < 10; r++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			pass()
			runtime.ReadMemStats(&after)
			perPass[i] = min(perPass[i], after.Mallocs-before.Mallocs)
		}
	}
	t.Logf("allocs per pass: %d at GOMAXPROCS 1, %d at 4", perPass[0], perPass[1])
	if perPass[1] > perPass[0]+perPass[0]/20 {
		t.Errorf("an exhaustive pass allocates %d times at GOMAXPROCS 4, %d at 1", perPass[1], perPass[0])
	}
}

// TestMRTReuseAllocs verifies the modulo reservation table reuses its rows
// and per-cell reservation slices across reset cycles: steady-state use
// allocates nothing.
func TestMRTReuseAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation inflates allocation counts")
	}
	cfg := machine.Clustered(4)
	m := newMRT(8, &cfg)
	fill := func() {
		m.reset(8, &cfg)
		for row := 0; row < 8; row++ {
			for c := 0; c < cfg.NumClusters(); c++ {
				m.add(row, c, machine.ALU, row*cfg.NumClusters()+c)
			}
		}
		for row := 0; row < 8; row++ {
			for c := 0; c < cfg.NumClusters(); c++ {
				m.remove(row, c, machine.ALU, row*cfg.NumClusters()+c)
			}
		}
	}
	fill() // reach the high-water mark
	if allocs := testing.AllocsPerRun(100, fill); allocs != 0 {
		t.Errorf("MRT reset/add/remove cycle allocates %.1f times, want 0", allocs)
	}
}

// TestTryIIAttemptAllocs checks the heart of the tentpole: after the first
// attempt has sized the arena, further II attempts on the same state are
// allocation-free (reset, MRT, heights, worklist and slot search all reuse
// their storage).
func TestTryIIAttemptAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation inflates allocation counts")
	}
	l := corpus.Stencil3()
	cfg := machine.Clustered(4)
	st := statePool.Get().(*state)
	defer statePool.Put(st)
	memo := newLoopMemo(l, &cfg)
	defer memo.release()
	st.init(l, cfg, DefaultBudgetRatio, StrategyBaseline, memo)
	if !st.tryII(8) {
		t.Fatalf("stencil3 did not schedule at II=8")
	}
	allocs := testing.AllocsPerRun(50, func() {
		st.reset()
		if !st.tryII(8) {
			t.Fatalf("stencil3 did not schedule at II=8")
		}
	})
	if allocs != 0 {
		t.Errorf("II attempt allocates %.1f times, want 0", allocs)
	}
}

// TestForceSlotUnschedulable covers the degenerate inputs that used to
// panic with an index out of range: an op pinned to a cluster without an FU
// of its class (empty occupant list), and an op whose class no cluster in
// the preference order offers (empty preference list). Both must fail the
// attempt cleanly so ScheduleLoop can report ErrNoSchedule.
func TestForceSlotUnschedulable(t *testing.T) {
	l := ir.New("pinned-move")
	l.AddOp(ir.KMove, "m")
	cfg := machine.Config{
		Name: "no-copy-units",
		Clusters: []machine.Cluster{
			{FUs: [machine.NumClasses]int{machine.LS: 1, machine.ALU: 1, machine.MUL: 1}},
			{FUs: [machine.NumClasses]int{machine.LS: 1, machine.ALU: 1, machine.MUL: 1}},
		},
	}

	st := statePool.Get().(*state)
	defer statePool.Put(st)
	memo := newLoopMemo(l, &cfg)
	defer memo.release()

	// Pinned to a cluster that cannot host a move: forceSlot finds no free
	// unit and no occupant to evict.
	st.init(l, cfg, DefaultBudgetRatio, StrategyBaseline, memo)
	st.pinned[0] = 0
	if st.tryII(1) {
		t.Errorf("tryII succeeded for a pinned op on a cluster without its FU class")
	}

	// Unpinned with no providing cluster anywhere: the preference list is
	// empty.
	st.init(l, cfg, DefaultBudgetRatio, StrategyBaseline, memo)
	if st.tryII(1) {
		t.Errorf("tryII succeeded for an op whose FU class no cluster offers")
	}
}

// TestScheduleLoopReusedStateDeterminism guards the arena against state
// leaking between runs: scheduling the same corpus twice through the pooled
// states must reproduce identical placements.
func TestScheduleLoopReusedStateDeterminism(t *testing.T) {
	loops := corpus.Generate(corpus.Params{Seed: 5, N: 24})
	cfg := machine.Clustered(5)
	run := func() []int {
		var out []int
		for _, l := range loops {
			s, err := ScheduleLoop(context.Background(), l, cfg, EffortFast)
			if err != nil {
				t.Fatalf("%s: %v", l.Name, err)
			}
			out = append(out, s.II)
			out = append(out, s.Time...)
			out = append(out, s.Cluster...)
		}
		return out
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("runs differ in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("placement diverged at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

// TestRecMIIPooledMatchesFresh: RecMII runs in the recScratch of a pooled
// state. Over the kernels, the standard and the stressed corpus, ordered
// largest, smallest, second largest and so on, four goroutines starting
// at different points of that order each get, for every loop, the RecMII
// a fresh recScratch computes: nothing one call leaves in a pooled arena
// reaches the next, and under -race no two calls share one.
func TestRecMIIPooledMatchesFresh(t *testing.T) {
	loops := append(append(corpus.Kernels(), corpus.Standard()...), corpus.Stressed()...)
	size := func(l *ir.Loop) int { return len(l.Ops) + len(l.Deps) }
	slices.SortStableFunc(loops, func(a, b *ir.Loop) int { return size(a) - size(b) })
	order := make([]*ir.Loop, 0, len(loops))
	for lo, hi := 0, len(loops)-1; lo <= hi; lo, hi = lo+1, hi-1 {
		order = append(order, loops[hi])
		if lo < hi {
			order = append(order, loops[lo])
		}
	}
	want := make([]int, len(order))
	for i, l := range order {
		var fresh recScratch
		want[i] = recMIIInto(l, &fresh)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range order {
				i := (k + g*len(order)/4) % len(order)
				if got := RecMII(order[i]); got != want[i] {
					t.Errorf("goroutine %d, %s: RecMII = %d, fresh scratch %d", g, order[i].Name, got, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestRingRuleAllocs: the ring rule keeps its longest-path matrix, groups
// and windows in the RecMII scratch, so once that scratch has seen the
// loops, asking the rule about them allocates nothing.
func TestRingRuleAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation inflates allocation counts")
	}
	cfg := machine.Clustered(6)
	cfg.CommLatency = 2
	loops := corpus.Stressed()[:32]
	var scr recScratch
	pass := func() {
		for _, l := range loops {
			rec := recMIIInto(l, &scr)
			for ii := rec; ii < rec+3; ii++ {
				scr.ringRefutes(l, &cfg, ii)
			}
		}
	}
	pass()
	if n := testing.AllocsPerRun(5, pass); n != 0 {
		t.Errorf("a warmed pass of the ring rule allocates %.0f times, want 0", n)
	}
}
