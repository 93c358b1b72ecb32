package sim_test

import (
	"testing"

	"vliwq/internal/corpus"
	"vliwq/internal/machine"
	"vliwq/internal/queue"
	"vliwq/internal/sched"
	"vliwq/internal/sim"
	"vliwq/internal/unroll"
)

// BenchmarkVerifyPipeline prices served verification: VerifyPipeline as
// the engine calls it, for min(trip, 64) iterations, over the first 64
// standard loops compiled for clustered:4 with unrolling. ns/issue divides
// the time by the operation instances the pipelined runs issue.
func BenchmarkVerifyPipeline(b *testing.B) {
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
		n := min(s.Loop.TripCount(), 64)
		jobs = append(jobs, job{s, a, n})
		issues += n * len(s.Loop.Ops)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, j := range jobs {
			if err := sim.VerifyPipeline(j.s, j.a, j.n); err != nil {
				b.Fatalf("%s: %v", j.s.Loop.Name, err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*issues), "ns/issue")
}
