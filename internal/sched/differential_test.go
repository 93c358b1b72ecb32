package sched

// The differential test harness for the bitset feasibility core (DESIGN.md
// §13). The scheduler has one slot search: the packed bitset path
// (mrt.full words, adjacency masks, argmin candidate selection, the fused
// settle). The scalar reference it is checked against lives in
// ref_test.go (findSlotRef, forceSlotRef, freeScalar) and reuses
// settleSlow. The lockstep test here advances one state through each over
// the same attempts on randomized machines and stressed loops and demands
// the same op, the same slot and the same placement arrays after every
// step; the other tests pin the per-probe MRT agreement directly and the
// schedule digests of every effort tier, so byte drift anywhere in the
// corpus fails loudly.
//
// CONTRIBUTING.md makes this file a gate: bench/baseline.txt must never be
// refreshed while any test in here is red.

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"testing"

	"vliwq/internal/copyins"
	"vliwq/internal/corpus"
	"vliwq/internal/ir"
	"vliwq/internal/machine"
)

// effortDigest hashes every schedule of loops × cfgs at one effort tier
// into a single FNV-64a word: name, II, winning strategy, and each op's
// (cycle, cluster) placement. With cert set it also hashes each schedule's
// certificate: Bound.Lower, Bound.Optimal, Bound.DeadlineCut and
// Stats.PrunedNodes.
func effortDigest(t *testing.T, loops []*ir.Loop, cfgs []machine.Config, e Effort, cert bool) uint64 {
	t.Helper()
	h := fnv.New64a()
	writeInt := func(v int) {
		var b [8]byte
		for i := 0; i < 8; i++ {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	for _, cfg := range cfgs {
		for _, l := range loops {
			s, err := ScheduleLoop(context.Background(), l, cfg, e)
			if err != nil {
				t.Fatalf("%s on %s: %v", l.Name, cfg.Name, err)
			}
			h.Write([]byte(l.Name))
			writeInt(s.II)
			writeInt(int(s.Strategy))
			for id := range s.Loop.Ops {
				writeInt(s.Time[id])
				writeInt(s.Cluster[id])
			}
			if cert {
				b := s.Bound
				writeInt(b.Lower)
				for _, flag := range []bool{b.Optimal, b.DeadlineCut} {
					if flag {
						writeInt(1)
					} else {
						writeInt(0)
					}
				}
				writeInt(int(s.Stats.PrunedNodes))
			}
		}
	}
	return h.Sum64()
}

// TestScheduleDigestPinnedAllEfforts extends the fast-path digest pin
// (TestFastScheduleDigestPinned) to every effort tier over both the
// 64-loop bench corpus and the first 48 stressed loops (the structural
// remap corpus size). Any placement shift anywhere — a candidate ordering
// change, a worklist tie-break, an MRT probe off by one — moves one of the
// six words. Regenerate the constants only for a deliberate, reviewed
// scheduler behaviour change, never to make a refactor pass.
func TestScheduleDigestPinnedAllEfforts(t *testing.T) {
	cfgs := []machine.Config{machine.SingleCluster(12), machine.Clustered(4), machine.Clustered(6)}
	bench := identityCorpus(t)
	stressed := corpus.Stressed()[:48]
	pinned := map[Effort][2]uint64{
		EffortFast:       {0xd1a1c7a67cc45035, 0x62de04b8de0b69ab},
		EffortBalanced:   {0xd0a9c3817e9fe0cb, 0xb8418867b245cbca},
		EffortExhaustive: {0xcf72e4dc163740c6, 0x4c8c69bf2b816f57},
	}
	for _, e := range []Effort{EffortFast, EffortBalanced, EffortExhaustive} {
		want := pinned[e]
		if got := effortDigest(t, bench, cfgs, e, false); got != want[0] {
			t.Errorf("effort=%s bench-corpus digest = %#x, want %#x", e, got, want[0])
		}
		if got := effortDigest(t, stressed, cfgs, e, false); got != want[1] {
			t.Errorf("effort=%s stressed-corpus digest = %#x, want %#x", e, got, want[1])
		}
	}
}

// TestScheduleDigestPinnedOptimal pins the certified tier the way
// TestScheduleDigestPinnedAllEfforts pins the heuristic ones, and also
// hashes each certificate (Bound and Stats.PrunedNodes): the exact search
// counts its budget in placements, so a change that makes its nodes
// cheaper must leave every verdict, every budget cut and every pruned-node
// count where it was. The third word is the certified vliwbench
// configuration (clustered:6, comm latency 2), where the search runs
// longest. The fourth runs the same stressed loops, raw and with tree
// copies, on rings of 2, 3, 5 and 8 clusters at comm latency 1 and 3 and
// on two seeded uneven rings without moves: the hop latency and the
// cluster widths shape the dependence weights the search compares between
// sibling rows. The ring rule (bound.go) can refute an II only where the
// hop costs something, so only those two words see its certificates.
// Regenerate the constants only for a deliberate, reviewed change to the
// search tree, never to make a refactor pass.
func TestScheduleDigestPinnedOptimal(t *testing.T) {
	want := map[string]uint64{
		"bench-corpus":    0xe37b45a549f77f56,
		"stressed-corpus": 0xc649c75f0560a86a,
		"stressed-comm2":  0x987048c4e603452,
		"stressed-rings":  0xad519b6c6cb44012,
	}
	for _, c := range pinnedOptimalSets(t) {
		if got := effortDigest(t, c.loops, c.cfgs, EffortOptimal, true); got != want[c.name] {
			t.Errorf("effort=optimal %s digest = %#x, want %#x", c.name, got, want[c.name])
		}
	}
}

// optimalSet is one loop/machine set of TestScheduleDigestPinnedOptimal.
type optimalSet struct {
	name  string
	loops []*ir.Loop
	cfgs  []machine.Config
}

// pinnedOptimalSets returns the four sets TestScheduleDigestPinnedOptimal
// pins, in order.
func pinnedOptimalSets(t *testing.T) []optimalSet {
	t.Helper()
	cfgs := []machine.Config{machine.SingleCluster(12), machine.Clustered(4), machine.Clustered(6)}
	comm := machine.Clustered(6)
	comm.CommLatency = 2
	bench := identityCorpus(t)
	stressed := corpus.Stressed()[:48]
	rings := slices.Clone(stressed)
	for _, l := range stressed {
		rings = append(rings, copyins.Insert(l, copyins.Tree).Loop)
	}
	var ringCfgs []machine.Config
	for _, nc := range []int{2, 3, 5, 8} {
		for _, lat := range []int{1, 3} {
			cfg := machine.Clustered(nc)
			cfg.CommLatency = lat
			ringCfgs = append(ringCfgs, cfg)
		}
	}
	rng := rand.New(rand.NewSource(7))
	for _, nc := range []int{4, 7} {
		cfg := randomConfig(rng, nc)
		cfg.AllowMoves = false
		ringCfgs = append(ringCfgs, cfg)
	}
	return []optimalSet{
		{"bench-corpus", bench, cfgs},
		{"stressed-corpus", stressed, cfgs},
		{"stressed-comm2", stressed, []machine.Config{comm}},
		{"stressed-rings", rings, ringCfgs},
	}
}

// randomConfig builds a random ring machine of nc clusters with mixed FU
// widths (including clusters missing a class entirely — their classMask
// bit is absent and their MRT rows are born full), random comm latency and
// the move extension on half the draws. Cluster 0 always provides every
// class so ResMII cannot reject a loop outright.
func randomConfig(rng *rand.Rand, nc int) machine.Config {
	clusters := make([]machine.Cluster, nc)
	for i := range clusters {
		var fus [machine.NumClasses]int
		for cl := range fus {
			fus[cl] = rng.Intn(3) // 0-2 units: mixed widths, gaps included
		}
		if i == 0 {
			for cl := range fus {
				if fus[cl] == 0 {
					fus[cl] = 1
				}
			}
		}
		total := 0
		for _, n := range fus {
			total += n
		}
		if total == 0 {
			fus[machine.ALU] = 1 // Validate rejects an FU-less cluster
		}
		clusters[i] = machine.Cluster{FUs: fus, PrivateQueues: machine.DefaultPrivateQueues}
	}
	return machine.Config{
		Name:        fmt.Sprintf("rand-%dc", nc),
		Clusters:    clusters,
		RingQueues:  machine.DefaultRingQueues,
		CommLatency: rng.Intn(3),
		AllowMoves:  rng.Intn(2) == 1,
	}
}

// lockstep advances two states over the same attempts: packed through
// findSlot, forceSlot and settle, ref through findSlotRef, forceSlotRef
// and settleSlow. After every step both must have popped the same op,
// chosen the same slot and hold equal time and cluster arrays. With shared
// set, both states read one loopMemo, as the attempts of a portfolio
// do; otherwise each state has its own.
type lockstep struct {
	t           *testing.T
	tag         string
	l           *ir.Loop
	cfg         machine.Config
	packed, ref *state
	memos       []*loopMemo
	steps       int
	ordinal     int
}

func newLockstep(t *testing.T, tag string, l *ir.Loop, cfg machine.Config, strat Strategy, shared bool) *lockstep {
	ls := &lockstep{t: t, tag: tag, l: l, cfg: cfg, packed: new(state), ref: new(state)}
	memo := newLoopMemo(l, &cfg)
	ls.memos = append(ls.memos, memo)
	ls.packed.init(l, cfg, DefaultBudgetRatio, strat, memo)
	if !shared {
		memo = newLoopMemo(l, &cfg)
		ls.memos = append(ls.memos, memo)
	}
	ls.ref.init(l, cfg, DefaultBudgetRatio, strat, memo)
	return ls
}

// release returns the memos to their pool.
func (ls *lockstep) release() {
	for _, m := range ls.memos {
		m.release()
	}
}

// attempt mirrors tryII step for step on both states, from the pristine
// loop, with placement restricted to the allowed cluster mask (0 = free
// placement). It reports whether the attempt scheduled every op; the
// states keep the placement until the next attempt.
func (ls *lockstep) attempt(ii int, allowed uint64) bool {
	t, packed, ref := ls.t, ls.packed, ls.ref
	t.Helper()
	ls.ordinal++
	for _, st := range []*state{packed, ref} {
		st.reset()
		st.ordinal = ls.ordinal
		st.allowed = allowed
		st.ii = ii
		st.table.reset(ii, &st.cfg)
		st.load = refill(st.load, ls.cfg.NumClusters(), 0)
		st.computeHeights()
		st.wl.fill(st, len(st.loop.Ops))
	}
	mult := min(ls.ordinal, 4)
	budget := DefaultBudgetRatio * len(ls.l.Ops) * mult
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("%s: II %d (attempt %d, allowed %#b) step %d: "+format,
			append([]any{ls.tag, ii, ls.ordinal, allowed, ls.steps}, args...)...)
	}
	for packed.wl.Len() > 0 {
		if ref.wl.Len() == 0 {
			fail("reference worklist drained first")
		}
		if budget <= 0 {
			return false
		}
		budget--
		ls.steps++
		id, rid := packed.wl.pop(), ref.wl.pop()
		if id != rid {
			fail("packed popped op %d, reference op %d", id, rid)
		}
		pt, pc, estart, pok := packed.findSlot(id)
		rest := ref.earliestStart(id)
		rt, rc, rok := ref.findSlotRef(id, rest)
		if estart != rest || pok != rok || (pok && (pt != rt || pc != rc)) {
			fail("op %d findSlot = (%d,%d,%v) estart %d, reference (%d,%d,%v) estart %d",
				id, pt, pc, pok, estart, rt, rc, rok, rest)
		}
		if !pok {
			pt, pc, pok = packed.forceSlot(id, estart, &packed.wl)
			rt, rc, rok = ref.forceSlotRef(id, rest, &ref.wl)
			if pok != rok || (pok && (pt != rt || pc != rc)) {
				fail("op %d forceSlot = (%d,%d,%v), reference (%d,%d,%v)", id, pt, pc, pok, rt, rc, rok)
			}
			if !pok {
				return false
			}
		}
		packed.place(id, pt, pc)
		ref.place(id, rt, rc)
		added, refAdded := packed.settle(id, &packed.wl), ref.settleSlow(id, &ref.wl)
		if added != refAdded {
			fail("op %d settle added %d ops, reference %d", id, added, refAdded)
		}
		if !slices.Equal(packed.time, ref.time) || !slices.Equal(packed.cluster, ref.cluster) {
			fail("op %d placed at (%d,%d): arrays diverge\npacked time=%v cluster=%v\nref    time=%v cluster=%v",
				id, pt, pc, packed.time, packed.cluster, ref.time, ref.cluster)
		}
		budget += added * DefaultBudgetRatio
	}
	if ref.wl.Len() != 0 {
		fail("packed worklist drained first")
	}
	return true
}

// compact walks one compact subset's candidate-II ladder the way
// compactSchedule does and returns the achieved II, or -1.
func (ls *lockstep) compact(allowed uint64, mii, maxII int) int {
	sub, err := resMIISubset(ls.l, ls.cfg, allowed)
	if err != nil {
		return -1
	}
	for _, ii := range candidateIIs(nil, max(sub, mii), maxII) {
		if ls.attempt(ii, allowed) {
			return ii
		}
	}
	return -1
}

// lockstepRun runs the lockstep over the attempts the portfolio driver
// makes for one loop, machine and strategy: the candidate-II ladder, then
// the compact subsets. The final outcome is checked against the driver
// itself (schedulePortfolio with that one strategy), which pins the
// lockstep to the production path. It returns the number of steps.
func lockstepRun(t *testing.T, tag string, l *ir.Loop, cfg machine.Config, strat Strategy, shared bool) int {
	t.Helper()
	resMII, err := ResMII(l, cfg)
	if err != nil {
		t.Fatalf("%s: %v", tag, err)
	}
	recMII := RecMII(l)
	mii := max(resMII, recMII)
	lim := limits{maxII: iiCap(l), budgetRatio: DefaultBudgetRatio}
	ls := newLockstep(t, tag, l, cfg, strat, shared)
	defer ls.release()

	want, wantErr := schedulePortfolio(new(state), l, cfg, []Strategy{strat}, resMII, recMII, lim)
	ii := -1
	for _, c := range candidateIIs(nil, mii, lim.maxII) {
		if ls.attempt(c, 0) {
			ii = c
			break
		}
	}
	if ii < 0 && cfg.NumClusters() > 1 {
		for _, allowed := range [...]uint64{0b11, 0b1} {
			if ii = ls.compact(allowed, mii, lim.maxII); ii >= 0 {
				break
			}
		}
	}
	switch {
	case ii < 0 && wantErr == nil:
		t.Fatalf("%s: lockstep found no schedule, the portfolio driver did", tag)
	case ii >= 0 && wantErr != nil:
		t.Fatalf("%s: lockstep scheduled at II %d, the portfolio driver failed: %v", tag, ii, wantErr)
	case ii >= 0 && (want.II != ii || !slices.Equal(want.Time, ls.packed.time) || !slices.Equal(want.Cluster, ls.packed.cluster)):
		t.Fatalf("%s: lockstep schedule (II %d) differs from the portfolio driver's (II %d)", tag, ii, want.II)
	}
	return ls.steps
}

// lockstepClusters draws a ring width: 1-8 clusters in about three trials
// of four, 9-64 in the rest, so bit 63 of the packed masks and an all-ones
// allMask are exercised alongside the paper-sized rings.
func lockstepClusters(rng *rand.Rand) int {
	if rng.Intn(4) == 0 {
		return 9 + rng.Intn(machine.MaxClusters-8)
	}
	return 1 + rng.Intn(8)
}

// TestDifferentialBitsetVsReference is the harness's main property: over
// randomized machines × stressed loops × every strategy, the packed slot
// search and the scalar reference advance in lockstep (lockstepRun) and
// agree on every probe, not only on the final schedule. The first trial is
// always a 64-cluster ring. The seed is logged so a failure replays exactly.
func TestDifferentialBitsetVsReference(t *testing.T) {
	const seed = 20260808
	rng := rand.New(rand.NewSource(seed))
	t.Logf("lockstep seed %d", seed)
	loops := corpus.Stressed()
	steps := 0
	for trial := 0; trial < 32; trial++ {
		nc := lockstepClusters(rng)
		if trial == 0 {
			nc = machine.MaxClusters
		}
		cfg := randomConfig(rng, nc)
		l := loops[rng.Intn(len(loops))]
		strat := Strategy(trial % int(NumStrategies))
		shared := rng.Intn(2) == 1
		tag := fmt.Sprintf("trial %d: %s on %s (comm=%d moves=%v strategy=%s shared=%v)",
			trial, l.Name, cfg.Name, cfg.CommLatency, cfg.AllowMoves, strat, shared)
		steps += lockstepRun(t, tag, l, cfg, strat, shared)
	}
	t.Logf("%d lockstep steps", steps)
}

// TestLockstepCompactEscape covers the compact fallback's class escape,
// which the free ladder almost never leaves to reach: it runs the compact
// attempts, {0, 1} and then {0}, in lockstep on every trial, whatever the
// free ladder would have done. Clusters 0 and 1 of each machine lack a
// class the loop uses, so every op of that class escapes the subset to the
// lowest cluster providing it, and at least two clusters provide it, so an
// escape anywhere else diverges from the reference's ordered scan.
func TestLockstepCompactEscape(t *testing.T) {
	const seed = 20261017
	rng := rand.New(rand.NewSource(seed))
	t.Logf("escape seed %d", seed)
	loops := corpus.Stressed()
	steps := 0
	for trial := 0; trial < 16; trial++ {
		l := loops[rng.Intn(len(loops))]
		var used []machine.FUClass
		var seen [machine.NumClasses]bool
		for _, op := range l.Ops {
			if c := machine.ClassOf(op.Kind); !seen[c] {
				seen[c] = true
				used = append(used, c)
			}
		}
		lack := used[rng.Intn(len(used))]
		nc := 4 + rng.Intn(5)
		if trial%4 == 3 {
			nc = 9 + rng.Intn(machine.MaxClusters-8)
		}
		cfg := randomConfig(rng, nc)
		for c := 0; c < 2; c++ {
			fus := &cfg.Clusters[c].FUs
			fus[lack] = 0
			if *fus == ([machine.NumClasses]int{}) {
				fus[(lack+1)%machine.NumClasses] = 1 // Validate rejects an FU-less cluster
			}
		}
		for _, c := range rng.Perm(nc - 2)[:2] {
			cfg.Clusters[2+c].FUs[lack] = max(cfg.Clusters[2+c].FUs[lack], 1)
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		strat := Strategy(trial % int(NumStrategies))
		shared := rng.Intn(2) == 1
		tag := fmt.Sprintf("trial %d: %s on %s lacking %v on clusters 0-1 (comm=%d moves=%v strategy=%s shared=%v)",
			trial, l.Name, cfg.Name, lack, cfg.CommLatency, cfg.AllowMoves, strat, shared)
		resMII, err := ResMII(l, cfg)
		if err != nil {
			t.Fatalf("%s: %v", tag, err)
		}
		ls := newLockstep(t, tag, l, cfg, strat, shared)
		for _, allowed := range [...]uint64{0b11, 0b1} {
			ls.compact(allowed, max(resMII, RecMII(l)), iiCap(l))
		}
		ls.release()
		steps += ls.steps
	}
	t.Logf("%d lockstep steps", steps)
}

// TestMRTProbeDifferential pins the per-probe agreement of the two MRT
// occupancy views directly: after every add/remove of a randomized
// reservation script, the packed bitmap (free, anyFree, firstFree) must
// answer exactly like the scalar occupant-list reference (freeScalar, a
// linear row or window walk), and the exact search's count table, given
// the same script, exactly like the MRT. IIs range over [1, 130], and the
// first trials sit on either side of the 64-row word boundaries, so rows
// span one, two and three bitmap words. FuzzMRTBitset extends this script
// shape to fuzzing.
func TestMRTProbeDifferential(t *testing.T) {
	const seed = 8081998
	rng := rand.New(rand.NewSource(seed))
	t.Logf("mrt probe seed %d", seed)
	edges := []int{64, 65, 128, 129, 130}
	for trial := 0; trial < 64; trial++ {
		ii := 1 + rng.Intn(130)
		if trial < len(edges) {
			ii = edges[trial]
		}
		cfg := randomConfig(rng, 1+rng.Intn(8))
		nc := cfg.NumClusters()
		m := newMRT(ii, &cfg)
		var ct countTable
		ct.reset(ii, &cfg)
		type res struct {
			row, c int
			class  machine.FUClass
			id     int
		}
		var live []res
		nextID := 0
		for step := 0; step < 128; step++ {
			if len(live) > 0 && rng.Intn(3) == 0 {
				k := rng.Intn(len(live))
				r := live[k]
				m.remove(r.row, r.c, r.class, r.id)
				ct.remove(r.row, r.c, r.class)
				live = append(live[:k], live[k+1:]...)
			} else {
				row, c := rng.Intn(ii), rng.Intn(nc)
				class := machine.FUClass(rng.Intn(int(machine.NumClasses)))
				if m.freeScalar(row, c, class) {
					m.add(row, c, class, nextID)
					ct.add(row, c, class)
					live = append(live, res{row, c, class, nextID})
					nextID++
				}
			}
			mrtViewsAgree(t, m, &ct, &cfg, ii)
			if t.Failed() {
				t.Fatalf("trial %d step %d (ii=%d, %s): packed and scalar MRT views diverged", trial, step, ii, cfg.Name)
			}
		}
	}
}

// mrtViewsAgree asserts free == freeScalar on every slot, anyFree == a
// scalar row walk on every (cluster, class) pair and firstFree == a scalar
// window walk on a spread of windows; and that ct, the count table that
// saw the same reservations as m, holds each slot's occupant count and
// answers free and anyFree exactly as m does.
func mrtViewsAgree(t *testing.T, m *mrt, ct *countTable, cfg *machine.Config, ii int) {
	t.Helper()
	nc := cfg.NumClusters()
	for c := 0; c < nc; c++ {
		for class := machine.FUClass(0); class < machine.NumClasses; class++ {
			anyRow := false
			for row := 0; row < ii; row++ {
				want := m.freeScalar(row, c, class)
				anyRow = anyRow || want
				if got := m.free(row, c, class); got != want {
					t.Errorf("free(%d,%d,%v) = %v, scalar reference says %v", row, c, class, got, want)
					return
				}
				if got, occ := ct.used[ct.slot(row, c, class)], len(m.occupants(row, c, class)); int(got) != occ {
					t.Errorf("count table holds %d units at (%d,%d,%v), the MRT %d occupants", got, row, c, class, occ)
					return
				}
				if got := ct.free(row, c, class); got != m.free(row, c, class) {
					t.Errorf("count table free(%d,%d,%v) = %v, MRT says %v", row, c, class, got, m.free(row, c, class))
					return
				}
			}
			if got := m.anyFree(c, class); got != anyRow {
				t.Errorf("anyFree(%d,%v) = %v, scalar reference says %v", c, class, got, anyRow)
				return
			}
			if got := ct.anyFree(c, class); got != m.anyFree(c, class) {
				t.Errorf("count table anyFree(%d,%v) = %v, MRT says %v", c, class, got, m.anyFree(c, class))
				return
			}
			for _, from := range []int{0, ii / 2, ii - 1, ii, 3*ii + 1} {
				for _, span := range []int{1, ii / 2, ii} {
					if span == 0 {
						continue
					}
					to := from + span
					gotT, gotOK := m.firstFree(from, to, c, class)
					wantT, wantOK := -1, false
					for x := from; x < to; x++ {
						if m.freeScalar(x%ii, c, class) {
							wantT, wantOK = x, true
							break
						}
					}
					if gotOK != wantOK || (gotOK && gotT != wantT) {
						t.Errorf("firstFree(%d,%d,%d,%v) = (%d,%v), scalar walk says (%d,%v)",
							from, to, c, class, gotT, gotOK, wantT, wantOK)
						return
					}
				}
			}
		}
	}
}

// TestRecMIIDecompositionMatchesReference pins the SCC-decomposed RecMII
// (recMIIInto, with its singleton self-loop shortcut and per-component
// binary searches) against the whole-graph binary-search reference
// (recMIIRef) over the stressed corpus and freshly randomized loops.
func TestRecMIIDecompositionMatchesReference(t *testing.T) {
	var scr recScratch
	check := func(loops []*ir.Loop, tag string) {
		for _, l := range loops {
			if got, want := recMIIInto(l, &scr), recMIIRef(l); got != want {
				t.Errorf("%s/%s: recMIIInto = %d, reference = %d", tag, l.Name, got, want)
			}
		}
	}
	check(corpus.Stressed(), "stressed")
	check(corpus.Generate(corpus.Params{Seed: 424242, N: 64}), "random")
	check(corpus.Kernels(), "kernels")
}
