package unroll

import (
	"testing"

	"vliwq/internal/corpus"
	"vliwq/internal/machine"
)

// BenchmarkUnroll prices unrolling the first 64 standard loops by their
// AutoFactor for clustered:4, the loops internal/queue's BenchmarkAllocate
// schedules.
func BenchmarkUnroll(b *testing.B) {
	cfg := machine.Clustered(4)
	loops := corpus.Generate(corpus.Params{Seed: corpus.DefaultSeed, N: 64})
	factors := make([]int, len(loops))
	for i, l := range loops {
		factors[i] = AutoFactor(l, cfg)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, l := range loops {
			if _, err := Unroll(l, factors[j]); err != nil {
				b.Fatalf("%s: %v", l.Name, err)
			}
		}
	}
}

// factorSink keeps BenchmarkAutoFactor's calls from being optimized away.
var factorSink int

// BenchmarkAutoFactor prices choosing the unroll factor, RecMII included,
// for the loops BenchmarkUnroll unrolls: every unrolled compile runs it.
func BenchmarkAutoFactor(b *testing.B) {
	cfg := machine.Clustered(4)
	loops := corpus.Generate(corpus.Params{Seed: corpus.DefaultSeed, N: 64})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, l := range loops {
			factorSink = AutoFactor(l, cfg)
		}
	}
}
