package sched

import (
	"context"
	"fmt"
	"hash/fnv"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"vliwq/internal/corpus"
	"vliwq/internal/ir"
	"vliwq/internal/machine"
)

func TestStrategyAndEffortNames(t *testing.T) {
	for e := Effort(0); e < numEfforts; e++ {
		got, err := ParseEffort(e.String())
		if err != nil || got != e {
			t.Fatalf("ParseEffort(%q) = %v, %v", e.String(), got, err)
		}
	}
	if e, err := ParseEffort(""); err != nil || e != EffortFast {
		t.Fatalf("empty effort = %v, %v; want fast", e, err)
	}
	if _, err := ParseEffort("extreme"); err == nil ||
		!strings.Contains(err.Error(), "balanced, exhaustive, fast, optimal") {
		t.Fatalf("ParseEffort error not sorted: %v", err)
	}
	if s := Strategy(200).String(); !strings.Contains(s, "200") {
		t.Fatalf("out-of-range strategy string %q", s)
	}
	if s := Effort(200).String(); !strings.Contains(s, "200") {
		t.Fatalf("out-of-range effort string %q", s)
	}
}

func TestStrategySet(t *testing.T) {
	// Single-cluster machines collapse to baseline at any effort.
	if got := strategySet(EffortExhaustive, 1); !reflect.DeepEqual(got, []Strategy{StrategyBaseline}) {
		t.Fatalf("single cluster set = %v", got)
	}
	if got := strategySet(EffortFast, 4); !reflect.DeepEqual(got, []Strategy{StrategyBaseline}) {
		t.Fatalf("fast set = %v", got)
	}
	if got := strategySet(EffortExhaustive, 4); len(got) != int(NumStrategies) {
		t.Fatalf("exhaustive set = %v", got)
	}
}

// identityCorpus is the 64-loop bench corpus the satellite pins: the same
// loops bench_test.go and the e2e load generator replay.
func identityCorpus(t *testing.T) []*ir.Loop {
	t.Helper()
	return corpus.Generate(corpus.Params{Seed: corpus.DefaultSeed, N: 64})
}

// TestEffortFastByteIdentity is the regression contract protecting golden
// files and cache keys: EffortFast — spelled as the zero value or
// explicitly — must reproduce the historical scheduler's placements
// exactly, operation by operation.
func TestEffortFastByteIdentity(t *testing.T) {
	loops := identityCorpus(t)
	for _, cfg := range []machine.Config{machine.SingleCluster(12), machine.Clustered(4), machine.Clustered(6)} {
		for _, l := range loops {
			var zero Effort
			ref, err := ScheduleLoop(context.Background(), l, cfg, zero)
			if err != nil {
				t.Fatalf("%s on %s: %v", l.Name, cfg.Name, err)
			}
			got, err := ScheduleLoop(context.Background(), l, cfg, EffortFast)
			if err != nil {
				t.Fatalf("%s on %s: %v", l.Name, cfg.Name, err)
			}
			if got.II != ref.II || !reflect.DeepEqual(got.Time, ref.Time) || !reflect.DeepEqual(got.Cluster, ref.Cluster) {
				t.Fatalf("%s on %s: schedule differs from the zero effort's", l.Name, cfg.Name)
			}
			if got.Strategy != StrategyBaseline || got.Stats.StrategiesTried != 0 {
				t.Fatalf("%s on %s: strategy=%v tried=%d, want baseline/0",
					l.Name, cfg.Name, got.Strategy, got.Stats.StrategiesTried)
			}
		}
	}
}

// scheduleDigest pins today's schedules as one number, so a future change
// that shifts any placement of the fast path anywhere in the bench corpus
// fails loudly instead of silently invalidating goldens and cache keys.
func scheduleDigest(t *testing.T, loops []*ir.Loop, cfgs []machine.Config) uint64 {
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
			s, err := ScheduleLoop(context.Background(), l, cfg, EffortFast)
			if err != nil {
				t.Fatalf("%s on %s: %v", l.Name, cfg.Name, err)
			}
			h.Write([]byte(l.Name))
			writeInt(s.II)
			for id := range s.Loop.Ops {
				writeInt(s.Time[id])
				writeInt(s.Cluster[id])
			}
		}
	}
	return h.Sum64()
}

func TestFastScheduleDigestPinned(t *testing.T) {
	// Computed from the pre-portfolio scheduler; EffortFast must keep
	// producing it. Regenerate only for a deliberate, reviewed scheduler
	// behaviour change.
	const pinned = uint64(0xdf0ec0390bfa1535)
	got := scheduleDigest(t, identityCorpus(t),
		[]machine.Config{machine.SingleCluster(12), machine.Clustered(4), machine.Clustered(6)})
	if got != pinned {
		t.Fatalf("fast-path schedule digest = %#x, want %#x", got, pinned)
	}
}

// TestPortfolioDeterministic: the portfolio's schedule verifies, and a
// repeat run returns the identical schedule and work — the determinism
// guarantee DESIGN.md §9 documents.
func TestPortfolioDeterministic(t *testing.T) {
	loops := corpus.Generate(corpus.Params{Seed: 11, N: 24, MinOps: 8})
	cfg := machine.Clustered(4)
	for _, l := range loops {
		ref, err := ScheduleLoop(context.Background(), l, cfg, EffortExhaustive)
		if err != nil {
			t.Fatalf("%s: %v", l.Name, err)
		}
		if err := ref.Verify(); err != nil {
			t.Fatalf("%s: %v", l.Name, err)
		}
		s, err := ScheduleLoop(context.Background(), l, cfg, EffortExhaustive)
		if err != nil {
			t.Fatalf("%s: %v", l.Name, err)
		}
		if d := scheduleDiff(s, ref); d != "" {
			t.Fatalf("%s: repeat run differs: %s", l.Name, d)
		}
	}
}

// scheduleDiff names the first way got differs from want in the schedule,
// its certificate or its work, or returns "" when they agree.
func scheduleDiff(got, want *Schedule) string {
	switch {
	case got.II != want.II:
		return fmt.Sprintf("II %d, want %d", got.II, want.II)
	case got.Strategy != want.Strategy:
		return fmt.Sprintf("strategy %v, want %v", got.Strategy, want.Strategy)
	case len(got.Loop.Ops) != len(want.Loop.Ops):
		return fmt.Sprintf("%d ops, want %d", len(got.Loop.Ops), len(want.Loop.Ops))
	case !slices.Equal(got.Time, want.Time) || !slices.Equal(got.Cluster, want.Cluster):
		return "placements differ"
	case got.Bound != want.Bound:
		return fmt.Sprintf("bound %+v, want %+v", got.Bound, want.Bound)
	case got.Stats != want.Stats:
		return fmt.Sprintf("stats %+v, want %+v", got.Stats, want.Stats)
	}
	return ""
}

// TestScheduleSameAtAnyGOMAXPROCS: the strategies of a rung run one after
// another on the calling goroutine, so a compile's schedule and its work
// are a function of the loop and the machine alone. Over the first 16
// stressed loops on clustered:4 and clustered:6, at the exhaustive and the
// optimal tier, a compile at GOMAXPROCS 4 returns the schedule, certificate
// and Stats of the same compile at GOMAXPROCS 1.
func TestScheduleSameAtAnyGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	loops := corpus.Stressed()[:16]
	for _, effort := range []Effort{EffortExhaustive, EffortOptimal} {
		for _, cfg := range []machine.Config{machine.Clustered(4), machine.Clustered(6)} {
			for _, l := range loops {
				var got [2]*Schedule
				for i, procs := range []int{1, 4} {
					runtime.GOMAXPROCS(procs)
					s, err := ScheduleLoop(context.Background(), l, cfg, effort)
					if err != nil {
						t.Fatalf("%s on %s at %v, GOMAXPROCS %d: %v", l.Name, cfg.Name, effort, procs, err)
					}
					got[i] = s
				}
				if d := scheduleDiff(got[1], got[0]); d != "" {
					t.Errorf("%s on %s at %v: GOMAXPROCS 4 against 1: %s", l.Name, cfg.Name, effort, d)
				}
			}
		}
	}
}

// TestPortfolioNeverWorse: the portfolio contains the baseline, and the
// II ladder stops at the first schedulable II, so a portfolio schedule can
// only match or beat the baseline's II.
func TestPortfolioNeverWorse(t *testing.T) {
	loops := corpus.Generate(corpus.Params(corpusStress(48)))
	cfg := machine.Clustered(6)
	improved := 0
	for _, l := range loops {
		base, err := ScheduleLoop(context.Background(), l, cfg, EffortFast)
		if err != nil {
			t.Fatalf("%s: %v", l.Name, err)
		}
		port, err := ScheduleLoop(context.Background(), l, cfg, EffortExhaustive)
		if err != nil {
			t.Fatalf("%s: %v", l.Name, err)
		}
		if port.II > base.II {
			t.Fatalf("%s: portfolio II %d worse than baseline %d", l.Name, port.II, base.II)
		}
		if port.II < base.II {
			improved++
		}
		if port.Stats.StrategiesTried != int(NumStrategies) {
			t.Fatalf("%s: StrategiesTried = %d", l.Name, port.Stats.StrategiesTried)
		}
	}
	if improved == 0 {
		t.Fatalf("exhaustive portfolio improved no loop of the stressed slice; the portfolio tries only the baseline")
	}
}

// corpusStress mirrors corpus.StressedParams at a test-sized N without
// importing the preset's memoized slice.
func corpusStress(n int) corpus.Params {
	p := corpus.StressedParams()
	p.N = n
	return p
}

func TestEffortPortfolios(t *testing.T) {
	if got := EffortFast.Strategies(); len(got) != 1 || got[0] != StrategyBaseline {
		t.Fatalf("fast portfolio = %v", got)
	}
	if got := EffortBalanced.Strategies(); len(got) != 3 || got[0] != StrategyBaseline {
		t.Fatalf("balanced portfolio = %v", got)
	}
	if got := EffortExhaustive.Strategies(); len(got) != int(NumStrategies) {
		t.Fatalf("exhaustive portfolio = %v", got)
	}
}
