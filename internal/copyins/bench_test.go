package copyins

import (
	"testing"

	"vliwq/internal/corpus"
	"vliwq/internal/ir"
	"vliwq/internal/machine"
	"vliwq/internal/unroll"
)

// BenchmarkCopyInsert prices copy insertion (Tree) over the first 64
// standard loops unrolled for clustered:4, the loops internal/queue's
// BenchmarkAllocate schedules.
func BenchmarkCopyInsert(b *testing.B) {
	cfg := machine.Clustered(4)
	var loops []*ir.Loop
	for _, l := range corpus.Generate(corpus.Params{Seed: corpus.DefaultSeed, N: 64}) {
		u, err := unroll.Unroll(l, unroll.AutoFactor(l, cfg))
		if err != nil {
			b.Fatal(err)
		}
		loops = append(loops, u)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, l := range loops {
			Insert(l, Tree)
		}
	}
}
