package sched

// Tests for the certified branch-and-bound backend (Effort: optimal,
// exact.go + bound.go). The properties here are the tier's public
// contract, restated in DESIGN.md §14:
//
//   - optimal never returns a worse II than exhaustive;
//   - Bound.Lower >= MII always, and Bound.Lower <= II;
//   - Bound.Optimal implies II == Bound.Lower;
//   - a cancelled proof still returns a complete, Verify-clean incumbent;
//   - a budget-cut result is reproducible.

import (
	"context"
	"reflect"
	"testing"

	"vliwq/internal/copyins"
	"vliwq/internal/corpus"
	"vliwq/internal/ir"
	"vliwq/internal/machine"
)

// TestOptimalBoundContract is the stressed-corpus property test: over the
// loops whose partition quality decides II-optimality, the optimal tier
// must match-or-beat exhaustive and carry a self-consistent certificate.
func TestOptimalBoundContract(t *testing.T) {
	loops := corpus.Generate(corpusStress(48))
	improvedOrProved := 0
	for _, cfg := range []machine.Config{machine.Clustered(4), machine.Clustered(6)} {
		for _, l := range loops {
			ex, err := ScheduleLoop(context.Background(), l, cfg, EffortExhaustive)
			if err != nil {
				t.Fatalf("%s on %s exhaustive: %v", l.Name, cfg.Name, err)
			}
			opt, err := ScheduleLoop(context.Background(), l, cfg, EffortOptimal)
			if err != nil {
				t.Fatalf("%s on %s optimal: %v", l.Name, cfg.Name, err)
			}
			if err := opt.Verify(); err != nil {
				t.Fatalf("%s on %s: optimal schedule invalid: %v", l.Name, cfg.Name, err)
			}
			if opt.II > ex.II {
				t.Fatalf("%s on %s: optimal II %d worse than exhaustive %d", l.Name, cfg.Name, opt.II, ex.II)
			}
			b := opt.Bound
			if b.Lower < opt.MII() {
				t.Fatalf("%s on %s: Bound.Lower %d < MII %d", l.Name, cfg.Name, b.Lower, opt.MII())
			}
			if b.Lower > opt.II {
				t.Fatalf("%s on %s: Bound.Lower %d > II %d", l.Name, cfg.Name, b.Lower, opt.II)
			}
			if b.Optimal && opt.II != b.Lower {
				t.Fatalf("%s on %s: Optimal=true but II %d != Lower %d", l.Name, cfg.Name, opt.II, b.Lower)
			}
			if b.DeadlineCut {
				t.Fatalf("%s on %s: DeadlineCut without a deadline", l.Name, cfg.Name)
			}
			if ex.II > ex.MII() && (b.Optimal || opt.II < ex.II) {
				improvedOrProved++
			}
		}
	}
	if improvedOrProved == 0 {
		t.Fatalf("no exhaustive-gapped loop was proved optimal or improved; the exact search is not searching")
	}
}

// TestOptimalCancellation: an expired context cuts the proof but never the
// schedule — the portfolio incumbent comes back complete and Verify-clean,
// flagged unproved and deadline-cut. The end-to-end simulator check of the
// same property lives in the root package (TestOptimalEffortCancellation),
// where the pipeline's verify stage replays the incumbent.
func TestOptimalCancellation(t *testing.T) {
	cfg := machine.Clustered(6)
	l := findGappedLoop(t, cfg)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s, err := ScheduleLoop(ctx, l, cfg, EffortOptimal)
	if err != nil {
		t.Fatalf("cancelled optimal compile failed: %v", err)
	}
	if err := s.Verify(); err != nil {
		t.Fatalf("incumbent invalid after cancellation: %v", err)
	}
	if s.Bound.Optimal {
		t.Fatalf("cancelled proof claims optimality (II=%d, Lower=%d)", s.II, s.Bound.Lower)
	}
	if !s.Bound.DeadlineCut {
		t.Fatalf("cancelled proof not flagged DeadlineCut")
	}
	if s.Bound.Lower != s.MII() {
		t.Fatalf("cancelled proof raised the bound: Lower=%d, MII=%d", s.Bound.Lower, s.MII())
	}
	// The incumbent must equal the exhaustive tier's schedule: cancellation
	// may only cost the certificate, never placement quality.
	ex, err := ScheduleLoop(context.Background(), l, cfg, EffortExhaustive)
	if err != nil {
		t.Fatal(err)
	}
	if s.II != ex.II || !reflect.DeepEqual(s.Time, ex.Time) || !reflect.DeepEqual(s.Cluster, ex.Cluster) {
		t.Fatalf("cancelled incumbent differs from the exhaustive schedule (II %d vs %d)", s.II, ex.II)
	}
}

// TestOptimalBudgetCutDeterministic: a node-budget cut is deterministic —
// unlike a deadline cut it reproduces bit-for-bit, so it is not flagged
// DeadlineCut and stays cacheable.
func TestOptimalBudgetCutDeterministic(t *testing.T) {
	cfg := machine.Clustered(6)
	l := findGappedLoop(t, cfg)
	lim := limitsFor(l)
	lim.budgetRatio = 1
	var ref *Schedule
	for run := 0; run < 2; run++ {
		s, err := scheduleLoop(context.Background(), l, cfg, EffortOptimal, lim)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Verify(); err != nil {
			t.Fatal(err)
		}
		if s.Bound.DeadlineCut {
			t.Fatal("budget cut misreported as deadline cut")
		}
		if ref == nil {
			ref = s
			continue
		}
		if d := scheduleDiff(s, ref); d != "" {
			t.Fatalf("repeat run differs: %s", d)
		}
	}
}

// TestOptimalTrivialCertificates: the cases that skip the search entirely.
func TestOptimalTrivialCertificates(t *testing.T) {
	// A heuristic MII hit is proved optimal with zero search nodes.
	l := corpus.Daxpy()
	cfg := machine.Clustered(4)
	s, err := ScheduleLoop(context.Background(), l, cfg, EffortOptimal)
	if err != nil {
		t.Fatal(err)
	}
	if s.II == s.MII() {
		if !s.Bound.Optimal || s.Bound.Lower != s.II || s.Stats.PrunedNodes != 0 {
			t.Fatalf("MII hit not trivially certified: II=%d bound=%+v pruned=%d", s.II, s.Bound, s.Stats.PrunedNodes)
		}
	}
	// Heuristic tiers never set a certificate.
	for _, e := range []Effort{EffortFast, EffortBalanced, EffortExhaustive} {
		s, err := ScheduleLoop(context.Background(), l, cfg, e)
		if err != nil {
			t.Fatal(err)
		}
		if s.Bound != (Bound{}) {
			t.Fatalf("effort %s set a bound: %+v", e, s.Bound)
		}
	}
	// Moves-extended machines keep the trivial MII certificate: the exact
	// model does not cover move insertion, so the bound must never rise.
	mv := machine.Clustered(6)
	mv.AllowMoves = true
	for _, l := range corpus.Generate(corpusStress(8)) {
		s, err := ScheduleLoop(context.Background(), l, mv, EffortOptimal)
		if err != nil {
			t.Fatal(err)
		}
		if s.Bound.Lower != s.MII() || s.Bound.Optimal != (s.II == s.MII()) {
			t.Fatalf("%s with moves: bound %+v, II=%d, MII=%d", l.Name, s.Bound, s.II, s.MII())
		}
	}
}

// TestExactSearchRejectsInfeasibleII: the searcher run directly at an II
// below RecMII must never "find" a schedule — the positive-cycle test is
// the searcher's soundness in the rejecting direction. On the small
// hand-written kernels the proof also completes within budget (an actual
// exhaustion, not an abort); large stressed loops may legitimately burn
// the budget first, which is exactly what the budget is for.
func TestExactSearchRejectsInfeasibleII(t *testing.T) {
	cfg := machine.Clustered(4)
	proved := 0
	for _, l := range corpus.Kernels() {
		rec := RecMII(l)
		if rec < 2 {
			continue
		}
		if _, err := ResMII(l, cfg); err != nil {
			continue
		}
		ex := newExactSearcher(l, &cfg)
		switch got := ex.search(context.Background(), rec-1, 1<<20); got {
		case exactFound:
			t.Fatalf("%s: search found a schedule at II=%d < RecMII=%d", l.Name, rec-1, rec)
		case exactInfeasible:
			proved++
		}
	}
	if proved == 0 {
		t.Fatal("no kernel's sub-RecMII infeasibility was proved within budget")
	}
}

// TestExactFoundScheduleVerifies: every schedule the searcher materializes
// (stage counters recovered from the propagation potentials) satisfies the
// full Verify contract, on single-cluster and ring machines.
func TestExactFoundScheduleVerifies(t *testing.T) {
	cfgs := []machine.Config{machine.SingleCluster(4), machine.Clustered(4), machine.Clustered(6)}
	for _, cfg := range cfgs {
		for _, l := range corpus.Generate(corpusStress(8)) {
			resMII, err := ResMII(l, cfg)
			if err != nil {
				t.Fatal(err)
			}
			recMII := RecMII(l)
			mii := resMII
			if recMII > mii {
				mii = recMII
			}
			ex := newExactSearcher(l, &cfg)
			for ii := mii; ii < mii+4; ii++ {
				st := ex.search(context.Background(), ii, 60000)
				if st != exactFound {
					continue
				}
				s := ex.schedule(cfg, ii, resMII, recMII)
				if err := s.Verify(); err != nil {
					t.Fatalf("%s on %s at II=%d: exact schedule invalid: %v", l.Name, cfg.Name, ii, err)
				}
				break
			}
		}
	}
}

// findGappedLoop returns the first stressed loop whose exhaustive schedule
// leaves II > MII on cfg — the population the optimal tier exists for.
func findGappedLoop(t *testing.T, cfg machine.Config) *ir.Loop {
	t.Helper()
	for _, l := range corpus.Generate(corpusStress(64)) {
		s, err := ScheduleLoop(context.Background(), l, cfg, EffortExhaustive)
		if err != nil {
			continue
		}
		if s.II > s.MII() && len(s.Loop.Ops) == len(l.Ops) {
			return l
		}
	}
	t.Fatal("no gapped loop in the stressed slice")
	return nil
}

// TestRingBoundNeverRefutesScheduledII holds the ring rule (ringRefutes)
// to the schedules the tiers find, which it must never contradict: over
// the four loop/machine sets of TestScheduleDigestPinnedOptimal, at every
// effort, the rule must not refute the II a tier achieved. It also demands
// that the rule refutes MII on some loop of the certified vliwbench compile
// set (the first 128 stressed loops with tree copies, clustered:6, comm
// latency 2), so a rule gone dead fails here too.
func TestRingBoundNeverRefutesScheduledII(t *testing.T) {
	var scr recScratch
	points := 0
	for _, set := range pinnedOptimalSets(t) {
		for _, cfg := range set.cfgs {
			for _, l := range set.loops {
				recMIIInto(l, &scr)
				for _, e := range []Effort{EffortFast, EffortBalanced, EffortExhaustive, EffortOptimal} {
					s, err := ScheduleLoop(context.Background(), l, cfg, e)
					if err != nil {
						t.Fatalf("%s %s on %s at %s: %v", set.name, l.Name, cfg.Name, e, err)
					}
					if len(s.Loop.Ops) != len(l.Ops) {
						t.Fatalf("%s %s on %s at %s: inserted moves on a machine without them", set.name, l.Name, cfg.Name, e)
					}
					if scr.ringRefutes(l, &cfg, s.II) {
						t.Errorf("%s %s on %s (comm %d): the rule refutes II %d, which %s scheduled",
							set.name, l.Name, cfg.Name, cfg.CommLatency, s.II, e)
					}
					points++
				}
			}
		}
	}
	cfg := machine.Clustered(6)
	cfg.CommLatency = 2
	refuted := 0
	for _, l := range corpus.Stressed()[:128] {
		l = copyins.Insert(l, copyins.Tree).Loop
		resMII, err := ResMII(l, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if scr.ringRefutes(l, &cfg, max(resMII, recMIIInto(l, &scr))) {
			refuted++
		}
	}
	t.Logf("%d scheduled IIs checked; the rule refutes MII on %d certified loops", points, refuted)
	if refuted == 0 {
		t.Fatal("the ring rule refutes no MII of the certified compile set")
	}
}

// TestRingBoundClosesGapWithoutSearch: a hand-built recurrence the rule
// refutes at MII. Two multiplies feed each other, a→b in the iteration and
// b→a two iterations on, so RecMII = (2+2)/2 = 2 and, at II 2, b issues
// exactly one II after a: the same row. Crossing clusters would add the hop
// to a cycle with no slack, so they share a cluster, whose one multiplier
// cannot take both. The certificate must rise to MII+1 = II with no
// search node spent.
func TestRingBoundClosesGapWithoutSearch(t *testing.T) {
	l := ir.New("mulpair")
	l.Trip = 16
	a := l.AddOp(ir.KMul, "a")
	b := l.AddOp(ir.KMul, "b")
	l.AddFlow(a, b)
	l.AddCarried(b, a, 2)
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	cfg := machine.Clustered(2)
	cfg.CommLatency = 1
	s, err := ScheduleLoop(context.Background(), l, cfg, EffortOptimal)
	if err != nil {
		t.Fatal(err)
	}
	if mii := s.MII(); mii != 2 || s.II != mii+1 {
		t.Fatalf("II %d, MII %d: want MII 2 and II 3", s.II, mii)
	}
	if want := (Bound{Lower: s.II, Optimal: true}); s.Bound != want || s.Stats.PrunedNodes != 0 {
		t.Fatalf("bound %+v with %d pruned nodes, want %+v with none", s.Bound, s.Stats.PrunedNodes, want)
	}
	// Without the hop the two may cross clusters, and II 2 schedules.
	cfg.CommLatency = 0
	if s, err = ScheduleLoop(context.Background(), l, cfg, EffortOptimal); err != nil {
		t.Fatal(err)
	}
	if s.II != 2 {
		t.Fatalf("without comm latency: II %d, want 2", s.II)
	}
}

// TestRingBoundKeepsTightSchedules: a hand-built loop that sits exactly on
// both of the rule's thresholds at a II that schedules, so the rule must
// not refute it. Three adds u→x→y→u form a cycle with no slack at II 3:
// their rows are fixed, and they fill the three add rows of their cluster,
// exactly r·F ops in r rows. A fourth add v reads u and returns to u by an
// ordering dependence one iteration on, so it can cross clusters only by
// issuing exactly the hop after u's result: a crossing with no slack,
// which the must-share test must allow. So v crosses, and II 3 schedules.
func TestRingBoundKeepsTightSchedules(t *testing.T) {
	l := ir.New("tight")
	l.Trip = 16
	u := l.AddOp(ir.KAdd, "u")
	x := l.AddOp(ir.KAdd, "x")
	y := l.AddOp(ir.KAdd, "y")
	v := l.AddOp(ir.KAdd, "v")
	l.AddFlow(u, x)
	l.AddFlow(x, y)
	l.AddCarried(y, u, 1)
	l.AddFlow(u, v)
	l.AddDep(ir.Dep{From: v.ID, To: u.ID, Dist: 1, Kind: ir.Order})
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	cfg := machine.Clustered(2)
	cfg.CommLatency = 1
	var scr recScratch
	if rec := recMIIInto(l, &scr); rec != 3 {
		t.Fatalf("RecMII %d, want 3", rec)
	}
	if scr.ringRefutes(l, &cfg, 3) {
		t.Fatal("the rule refutes II 3, which schedules")
	}
	s, err := ScheduleLoop(context.Background(), l, cfg, EffortOptimal)
	if err != nil {
		t.Fatal(err)
	}
	if want := (Bound{Lower: 3, Optimal: true}); s.II != 3 || s.Bound != want {
		t.Fatalf("II %d with bound %+v, want II 3 with %+v", s.II, s.Bound, want)
	}
}
