package sched

import (
	"context"
	"fmt"
	"testing"

	"vliwq/internal/copyins"
	"vliwq/internal/corpus"
	"vliwq/internal/ir"
	"vliwq/internal/machine"
)

// fuzzMachine builds a ring of nc clusters whose mixed FU widths are driven
// by the input: 0-2 units per class, shifted per cluster so the layout is
// irregular; cluster 0 keeps one of everything so no class is machine-wide
// absent.
func fuzzMachine(nc int, widths uint8) machine.Config {
	clusters := make([]machine.Cluster, nc)
	for i := range clusters {
		var fus [machine.NumClasses]int
		for cl := range fus {
			fus[cl] = int(widths>>uint((i+cl)%7)) % 3
			if i == 0 && fus[cl] == 0 {
				fus[cl] = 1
			}
		}
		total := 0
		for _, n := range fus {
			total += n
		}
		if total == 0 {
			fus[machine.ALU] = 1
		}
		clusters[i] = machine.Cluster{FUs: fus, PrivateQueues: machine.DefaultPrivateQueues}
	}
	return machine.Config{Name: "fuzz", Clusters: clusters, RingQueues: machine.DefaultRingQueues}
}

// FuzzMRTBitset fuzzes the packed MRT occupancy bitmaps against the scalar
// occupant-list reference, and the exact search's count table against the
// MRT (the same agreement TestMRTProbeDifferential pins on fixed seeds).
// The input derives an II in [1, 130], so rows span up to three bitmap
// words, a ring machine of 1-64 clusters with mixed FU widths, and a
// reservation script that both tables apply; after every add/remove the
// packed free bit of each (row, cluster, class) slot must match
// freeScalar, anyFree and firstFree windows must match a scalar walk, and
// the count table must answer free and anyFree as the MRT does. Any
// divergence is a feasibility probe the scheduler or the exact search
// would answer differently from the scalar reference — exactly the break
// the lockstep test exists to catch. Nightly fuzz.yml runs this target;
// crashers land in testdata/fuzz and are committed as regression seeds.
func FuzzMRTBitset(f *testing.F) {
	f.Add(uint8(3), uint8(1), uint8(0), []byte{0, 0, 0, 1, 1, 0, 2, 0, 1})
	f.Add(uint8(63), uint8(5), uint8(7), []byte{10, 2, 0, 11, 3, 1, 10, 2, 0, 200, 0, 0})
	f.Add(uint8(64), uint8(8), uint8(255), []byte{0, 0, 0, 63, 7, 3, 31, 4, 2, 1, 1, 1, 128, 0, 0})
	f.Add(uint8(129), uint8(2), uint8(0x5a), []byte{63, 0, 0, 64, 0, 0, 127, 1, 1, 128, 1, 1, 129, 0, 2, 0, 0, 200, 64, 1, 0})
	f.Fuzz(func(t *testing.T, iiRaw, ncRaw, widths uint8, script []byte) {
		ii := 1 + int(iiRaw)%130
		nc := 1 + int(ncRaw)%machine.MaxClusters
		cfg := fuzzMachine(nc, widths)
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
		for i := 0; i+2 < len(script) && i < 3*64; i += 3 {
			a, b, op := script[i], script[i+1], script[i+2]
			if op >= 128 && len(live) > 0 {
				k := (int(a)<<8 | int(b)) % len(live)
				r := live[k]
				m.remove(r.row, r.c, r.class, r.id)
				ct.remove(r.row, r.c, r.class)
				live = append(live[:k], live[k+1:]...)
			} else {
				row, c := int(a)%ii, int(b)%nc
				class := machine.FUClass(op % uint8(machine.NumClasses))
				if m.freeScalar(row, c, class) {
					m.add(row, c, class, nextID)
					ct.add(row, c, class)
					live = append(live, res{row, c, class, nextID})
					nextID++
				}
			}
			mrtViewsAgree(t, m, &ct, &cfg, ii)
			if t.Failed() {
				t.Fatalf("packed and scalar MRT views diverged at script offset %d (ii=%d, nc=%d, widths=%#x)",
					i, ii, nc, widths)
			}
		}
	})
}

// FuzzExactPropagate fuzzes the exact search's stage-potential propagation
// against the from-scratch Bellman–Ford oracle, with the checks of
// TestExactPropagateMatchesOracle: the input picks a stressed loop or a
// hand-written kernel, a ring of 1-8 clusters, a comm latency of 0-3 and
// a candidate II in [1, MII+2], and its script is the placement walk —
// each byte one choice of backtrack, move or place, op, row or cluster; a
// move to a higher row with no weight step at or below it takes the
// sibling-reuse path, and an accepted move re-checks its cluster's
// lookahead (testdata/fuzz/FuzzExactPropagate/seed-reuse reaches both
// verdicts of each). Nightly fuzz.yml runs this target; crashers land in
// testdata/fuzz and are committed as regression seeds.
func FuzzExactPropagate(f *testing.F) {
	f.Add(uint16(0), uint8(3), uint8(2), uint8(0), []byte{1, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 0})
	f.Add(uint16(17), uint8(5), uint8(1), uint8(3), []byte{1, 5, 2, 4, 2, 9, 1, 3, 3, 1, 0, 5, 1, 2, 7, 1, 0, 0, 2, 4, 4, 4})
	f.Add(uint16(260), uint8(1), uint8(0), uint8(1), []byte{3, 0, 0, 0, 3, 0, 1, 1, 3, 0, 0, 1, 0, 3, 2, 0, 0})
	pool := append(append([]*ir.Loop(nil), corpus.Stressed()...), corpus.Kernels()...)
	f.Fuzz(func(t *testing.T, loopSel uint16, ncRaw, commRaw, iiRaw uint8, script []byte) {
		l := pool[int(loopSel)%len(pool)]
		cfg := machine.Clustered(1 + int(ncRaw)%8)
		cfg.CommLatency = int(commRaw) % 4
		pos := 0
		propagateWalk(t, l, cfg, walkII(l, cfg, int(iiRaw)), func(k int) int {
			if pos >= len(script) {
				return -1
			}
			pos++
			return int(script[pos-1]) % k
		})
	})
}

// FuzzSlotSearchLockstep fuzzes the lockstep check of
// TestDifferentialBitsetVsReference (lockstepRun): the input picks a
// stressed loop, a ring of 1-64 clusters with mixed FU widths (fuzzMachine),
// a comm latency of 0-3 and, from flags, the move extension (bit 0), the
// strategy (bits 1-3) and whether both states share one loopMemo (bit 4).
// Every probe of the packed slot search must agree with the scalar
// reference. Nightly fuzz.yml runs this target; crashers land in
// testdata/fuzz and are committed as regression seeds.
func FuzzSlotSearchLockstep(f *testing.F) {
	f.Add(uint16(0), uint8(3), uint8(0xff), uint8(0), uint8(0))
	f.Add(uint16(7), uint8(63), uint8(0x5a), uint8(2), uint8(0x13))
	f.Add(uint16(300), uint8(40), uint8(0x0f), uint8(1), uint8(0x09))
	loops := corpus.Stressed()
	f.Fuzz(func(t *testing.T, loopSel uint16, ncRaw, widths, commRaw, flags uint8) {
		l := loops[int(loopSel)%len(loops)]
		cfg := fuzzMachine(1+int(ncRaw)%machine.MaxClusters, widths)
		cfg.CommLatency = int(commRaw) % 4
		cfg.AllowMoves = flags&1 == 1
		strat := Strategy(int(flags>>1&7) % int(NumStrategies))
		shared := flags>>4&1 == 1
		tag := fmt.Sprintf("%s on %d clusters (widths=%#x comm=%d moves=%v strategy=%s shared=%v)",
			l.Name, cfg.NumClusters(), widths, cfg.CommLatency, cfg.AllowMoves, strat, shared)
		lockstepRun(t, tag, l, cfg, strat, shared)
	})
}

// FuzzRingBound holds the ring rule (ringRefutes) to the exact search:
// wherever the rule refutes one of a tiny loop's first three IIs from MII
// up, a search of that II at a 2²² node budget must not find a schedule.
// The input seeds the stressed corpus's generator for one loop of at most
// 12 ops, raw or with tree copies (flags bit 0), and builds a uniform ring
// of 2-6 clusters or, with flags bit 1, a fuzzMachine ring of mixed widths,
// at comm latency 1-3. Nightly fuzz.yml runs this target; crashers land in
// testdata/fuzz and are committed as regression seeds.
func FuzzRingBound(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(0), uint8(0), uint8(0))
	f.Add(int64(2), uint8(1), uint8(4), uint8(1), uint8(0))
	f.Add(int64(3), uint8(3), uint8(2), uint8(2), uint8(0x5a))
	f.Fuzz(func(t *testing.T, seed int64, flags, ncRaw, commRaw, widths uint8) {
		p := corpus.StressedParams()
		p.Seed, p.N, p.MinOps, p.MaxOps, p.MeanLogOps = seed, 1, 3, 12, 2.0
		l := corpus.Generate(p)[0]
		if len(l.Ops) > 12 {
			return
		}
		if flags&1 == 1 {
			l = copyins.Insert(l, copyins.Tree).Loop
		}
		nc := 2 + int(ncRaw)%5
		cfg := machine.Clustered(nc)
		if flags&2 != 0 {
			cfg = fuzzMachine(nc, widths)
		}
		cfg.CommLatency = 1 + int(commRaw)%3
		resMII, err := ResMII(l, cfg)
		if err != nil {
			return // the fuzzed ring lacks a class the loop uses
		}
		var scr recScratch
		mii := max(resMII, recMIIInto(l, &scr))
		for ii := mii; ii < mii+3; ii++ {
			if !scr.ringRefutes(l, &cfg, ii) {
				continue
			}
			if ex := newExactSearcher(l, &cfg); ex.search(context.Background(), ii, 1<<22) == exactFound {
				t.Fatalf("%s (%d ops) on %s (comm %d): the rule refutes II %d, the search finds a schedule",
					l.Name, len(l.Ops), cfg.Name, cfg.CommLatency, ii)
			}
		}
	})
}
