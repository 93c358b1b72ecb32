package sched

// The differential test harness for the bitset feasibility core (DESIGN.md
// §13). The scheduler keeps two implementations of every feasibility
// primitive: the packed bitset fast path (mrt.full words, adjacency masks,
// argmin candidate selection) and the retained scalar reference
// (ref.go + mrt.freeScalar), selected per run by Options.refImpl. The
// tests here drive both over randomized machines and stressed loops and
// demand op-for-op identical schedules, pin the per-probe MRT agreement
// directly, and pin the schedule digests of every effort tier so byte
// drift anywhere in the corpus fails loudly.
//
// CONTRIBUTING.md makes this file a gate: bench/baseline.txt must never be
// refreshed while any test in here is red.

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"reflect"
	"testing"

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
			s, err := ScheduleLoop(l, cfg, Options{Effort: e})
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
// longest. Regenerate the constants only for a deliberate, reviewed change
// to the search tree, never to make a refactor pass.
func TestScheduleDigestPinnedOptimal(t *testing.T) {
	cfgs := []machine.Config{machine.SingleCluster(12), machine.Clustered(4), machine.Clustered(6)}
	comm := machine.Clustered(6)
	comm.CommLatency = 2
	bench := identityCorpus(t)
	stressed := corpus.Stressed()[:48]
	for _, c := range []struct {
		name  string
		loops []*ir.Loop
		cfgs  []machine.Config
		want  uint64
	}{
		{"bench-corpus", bench, cfgs, 0xe37b45a549f77f56},
		{"stressed-corpus", stressed, cfgs, 0xc649c75f0560a86a},
		{"stressed-comm2", stressed, []machine.Config{comm}, 0xc70ac6e48e4c2537},
	} {
		if got := effortDigest(t, c.loops, c.cfgs, EffortOptimal, true); got != c.want {
			t.Errorf("effort=optimal %s digest = %#x, want %#x", c.name, got, c.want)
		}
	}
}

// randomConfig builds a random ring machine: 1-8 clusters with mixed FU
// widths (including clusters missing a class entirely — their classMask
// bit is absent and their MRT rows are born full), random comm latency and
// the move extension on half the draws. Cluster 0 always provides every
// class so ResMII cannot reject a loop outright.
func randomConfig(rng *rand.Rand) machine.Config {
	nc := 1 + rng.Intn(8)
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

// TestDifferentialBitsetVsReference is the harness's main property: over
// randomized machines × stressed loops, a run whose every feasibility
// probe goes through the scalar reference implementation must produce the
// schedule the packed bitset path produces, op for op — same II, same
// winning strategy, same (cycle, cluster) per op, or the identical error.
// The seed is logged so a failure replays exactly.
func TestDifferentialBitsetVsReference(t *testing.T) {
	const seed = 20260808
	rng := rand.New(rand.NewSource(seed))
	t.Logf("differential seed %d", seed)
	loops := corpus.Stressed()
	efforts := []Effort{EffortFast, EffortBalanced}
	for trial := 0; trial < 32; trial++ {
		cfg := randomConfig(rng)
		l := loops[rng.Intn(len(loops))]
		e := efforts[trial%len(efforts)]
		opts := Options{Effort: e}
		refOpts := opts
		refOpts.refImpl = true
		got, gotErr := ScheduleLoop(l, cfg, opts)
		want, wantErr := ScheduleLoop(l, cfg, refOpts)
		ctx := fmt.Sprintf("trial %d: %s on %s (comm=%d moves=%v effort=%s)",
			trial, l.Name, cfg.String(), cfg.CommLatency, cfg.AllowMoves, e)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("%s: packed err=%v, reference err=%v", ctx, gotErr, wantErr)
		}
		if gotErr != nil {
			continue
		}
		if got.II != want.II || got.Strategy != want.Strategy {
			t.Fatalf("%s: packed II=%d/%v, reference II=%d/%v",
				ctx, got.II, got.Strategy, want.II, want.Strategy)
		}
		if !reflect.DeepEqual(got.Time, want.Time) || !reflect.DeepEqual(got.Cluster, want.Cluster) {
			t.Fatalf("%s: placements diverge\npacked  time=%v cluster=%v\nref     time=%v cluster=%v",
				ctx, got.Time, got.Cluster, want.Time, want.Cluster)
		}
	}
}

// TestMRTProbeDifferential pins the per-probe agreement of the two MRT
// occupancy views directly: after every add/remove of a randomized
// reservation script, the packed bitmap (free, firstFree) must answer
// exactly like the scalar occupant-list reference (freeScalar, a linear
// window walk). FuzzMRTBitset extends this script shape to fuzzing.
func TestMRTProbeDifferential(t *testing.T) {
	const seed = 8081998
	rng := rand.New(rand.NewSource(seed))
	t.Logf("mrt probe seed %d", seed)
	for trial := 0; trial < 64; trial++ {
		ii := 1 + rng.Intn(64)
		cfg := randomConfig(rng)
		nc := cfg.NumClusters()
		m := newMRT(ii, &cfg)
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
				live = append(live[:k], live[k+1:]...)
			} else {
				row, c := rng.Intn(ii), rng.Intn(nc)
				class := machine.FUClass(rng.Intn(int(machine.NumClasses)))
				if m.freeScalar(row, c, class) {
					m.add(row, c, class, nextID)
					live = append(live, res{row, c, class, nextID})
					nextID++
				}
			}
			mrtViewsAgree(t, m, &cfg, ii)
			if t.Failed() {
				t.Fatalf("trial %d step %d (ii=%d, %s): packed and scalar MRT views diverged", trial, step, ii, cfg.Name)
			}
		}
	}
}

// mrtViewsAgree asserts free == freeScalar on every slot and firstFree ==
// a scalar window walk on a spread of windows.
func mrtViewsAgree(t *testing.T, m *mrt, cfg *machine.Config, ii int) {
	t.Helper()
	nc := cfg.NumClusters()
	for c := 0; c < nc; c++ {
		for class := machine.FUClass(0); class < machine.NumClasses; class++ {
			for row := 0; row < ii; row++ {
				if got, want := m.free(row, c, class), m.freeScalar(row, c, class); got != want {
					t.Errorf("free(%d,%d,%v) = %v, scalar reference says %v", row, c, class, got, want)
					return
				}
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
