package sim_test

import (
	"context"
	"testing"

	"vliwq/internal/corpus"
	"vliwq/internal/machine"
	"vliwq/internal/queue"
	"vliwq/internal/sched"
	"vliwq/internal/sim"
	"vliwq/internal/unroll"
)

// BenchmarkVerifyPipeline prices the 64-iteration replay: VerifyPipeline
// for min(trip, 64) iterations, the count the engine replayed before it
// stopped at the horizon and the count the verdict oracle still replays,
// over the first 64 standard loops compiled for clustered:4 with
// unrolling. ns/issue divides the time by the operation instances the
// pipelined runs issue.
func BenchmarkVerifyPipeline(b *testing.B) {
	benchVerify(b, func(s *sched.Schedule) int { return min(s.Loop.TripCount(), 64) })
}

// BenchmarkVerifyServed prices served verification: VerifyPipeline as the
// engine calls it, for min(trip, 64, Horizon) iterations, over
// BenchmarkVerifyPipeline's loops.
func BenchmarkVerifyServed(b *testing.B) {
	benchVerify(b, func(s *sched.Schedule) int { return min(s.Loop.TripCount(), 64, sim.Horizon(s)) })
}

// benchVerify times VerifyPipeline over the first 64 standard loops
// compiled for clustered:4 with unrolling, each replayed for iters(s)
// iterations, and reports ns/issue.
func benchVerify(b *testing.B, iters func(*sched.Schedule) int) {
	cfg := machine.Clustered(4)
	type job struct {
		s *sched.Schedule
		a *queue.Allocation
		n int
	}
	var jobs []job
	issues := 0
	for _, l := range corpus.Generate(corpus.Params{Seed: corpus.DefaultSeed, N: 64}) {
		u, err := unroll.Unroll(l, unroll.AutoFactor(l, cfg))
		if err != nil {
			b.Fatal(err)
		}
		s, a := compile(b, u, cfg)
		n := iters(s)
		jobs = append(jobs, job{s, a, n})
		issues += n * len(s.Loop.Ops)
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, j := range jobs {
			if err := sim.VerifyPipeline(ctx, j.s, j.a, j.n); err != nil {
				b.Fatalf("%s: %v", j.s.Loop.Name, err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*issues), "ns/issue")
}
