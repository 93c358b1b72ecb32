package sched

import (
	"context"
	"testing"

	"vliwq/internal/corpus"
	"vliwq/internal/ir"
	"vliwq/internal/machine"
)

// schedBenchLoops is a fixed slice of the standard corpus: large enough to
// mix single-attempt loops with loops that need several II attempts (where
// the scratch-arena reuse pays off most).
func schedBenchLoops(b *testing.B) []*ir.Loop {
	b.Helper()
	return corpus.Generate(corpus.Params{Seed: corpus.DefaultSeed, N: 48})
}

func benchScheduleLoop(b *testing.B, cfg machine.Config) {
	loops := schedBenchLoops(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, l := range loops {
			if _, err := ScheduleLoop(context.Background(), l, cfg, EffortFast); err != nil {
				b.Fatalf("%s: %v", l.Name, err)
			}
		}
	}
}

func BenchmarkScheduleLoopSingle12(b *testing.B) {
	benchScheduleLoop(b, machine.SingleCluster(12))
}

func BenchmarkScheduleLoopClustered4(b *testing.B) {
	benchScheduleLoop(b, machine.Clustered(4))
}

func BenchmarkScheduleLoopClustered6(b *testing.B) {
	benchScheduleLoop(b, machine.Clustered(6))
}

// BenchmarkSchedulePortfolioExhaustive prices the full strategy portfolio: the
// same clustered-6 workload as above under EffortExhaustive, so the bench
// trajectory records what the portfolio costs relative to the fast path.
func BenchmarkSchedulePortfolioExhaustive(b *testing.B) {
	loops := schedBenchLoops(b)
	cfg := machine.Clustered(6)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, l := range loops {
			if _, err := ScheduleLoop(context.Background(), l, cfg, EffortExhaustive); err != nil {
				b.Fatalf("%s: %v", l.Name, err)
			}
		}
	}
}

// BenchmarkScheduleOptimalSmall prices the certified tier on the
// hand-written kernels. Every kernel closes at MII on clustered:4, so the
// certificate is the trivial one and the exact search never runs: this
// records what the tier costs on top of the exhaustive portfolio it contains.
// BenchmarkScheduleOptimalStressed prices the exact search itself.
func BenchmarkScheduleOptimalSmall(b *testing.B) {
	loops := corpus.Kernels()
	cfg := machine.Clustered(4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, l := range loops {
			if _, err := ScheduleLoop(context.Background(), l, cfg, EffortOptimal); err != nil {
				b.Fatalf("%s: %v", l.Name, err)
			}
		}
	}
}

// BenchmarkScheduleOptimalStressed prices the exact branch-and-bound
// search: the certified vliwbench configuration (clustered:6, comm latency
// 2, EffortOptimal) over the first 32 stressed loops, where the hop
// latency leaves II gaps the search proves, closes or cuts at its node
// budget. Its nodes are counted in placements, so the tree each searched
// II walks is fixed: the cost per node moves this number, and so does a
// proof rule that refutes an II before its search runs (the ring rule,
// bound.go), by removing that search.
func BenchmarkScheduleOptimalStressed(b *testing.B) {
	loops := corpus.Stressed()[:32]
	cfg := machine.Clustered(6)
	cfg.CommLatency = 2
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, l := range loops {
			if _, err := ScheduleLoop(context.Background(), l, cfg, EffortOptimal); err != nil {
				b.Fatalf("%s: %v", l.Name, err)
			}
		}
	}
}
