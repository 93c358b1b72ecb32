package queue_test

import (
	"context"
	"testing"

	"vliwq/internal/corpus"
	"vliwq/internal/machine"
	"vliwq/internal/queue"
	"vliwq/internal/sched"
	"vliwq/internal/unroll"
)

// BenchmarkAllocate prices the engine's allocation stage, Allocate plus
// Verify, over the first 64 standard loops scheduled for clustered:4 with
// unrolling (the schedules internal/sim's BenchmarkVerifyPipeline checks).
func BenchmarkAllocate(b *testing.B) {
	cfg := machine.Clustered(4)
	var scheds []*sched.Schedule
	for _, l := range corpus.Generate(corpus.Params{Seed: corpus.DefaultSeed, N: 64}) {
		u, err := unroll.Unroll(l, unroll.AutoFactor(l, cfg))
		if err != nil {
			b.Fatal(err)
		}
		scheds = append(scheds, compile(b, u, cfg))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range scheds {
			a, err := queue.Allocate(context.Background(), s)
			if err == nil {
				err = a.Verify(context.Background())
			}
			if err != nil {
				b.Fatalf("%s: %v", s.Loop.Name, err)
			}
		}
	}
}
