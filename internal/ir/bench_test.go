package ir_test

import (
	"math/rand"
	"testing"

	"vliwq/internal/corpus"
	"vliwq/internal/ir"
)

// Per-request kernel benchmarks: every op handles one loop of the paper
// corpus, cycling through all 1258, so ns/op and allocs/op are per loop.

// Sinks keep the benchmarked results live.
var (
	sinkLoop   *ir.Loop
	sinkString string
)

// benchTexts renders the paper corpus as loop texts.
func benchTexts(b *testing.B) []string {
	b.Helper()
	loops := corpus.Standard()
	srcs := make([]string, len(loops))
	for i, l := range loops {
		srcs[i] = ir.FormatString(l)
	}
	return srcs
}

// benchLoops parses the paper corpus from its text, as a request would.
func benchLoops(b *testing.B) []*ir.Loop {
	b.Helper()
	srcs := benchTexts(b)
	loops := make([]*ir.Loop, len(srcs))
	for i, src := range srcs {
		l, err := ir.ParseString(src)
		if err != nil {
			b.Fatal(err)
		}
		loops[i] = l
	}
	return loops
}

func BenchmarkParse(b *testing.B) {
	srcs := benchTexts(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l, err := ir.ParseString(srcs[i%len(srcs)])
		if err != nil {
			b.Fatal(err)
		}
		sinkLoop = l
	}
}

func BenchmarkFingerprint(b *testing.B) {
	loops := benchLoops(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkString = ir.Fingerprint(loops[i%len(loops)])
	}
}

func BenchmarkSkeleton(b *testing.B) {
	loops := benchLoops(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkString = ir.Skeleton(loops[i%len(loops)])
	}
}

// BenchmarkAlignLike aligns a renamed, statement-permuted spelling of each
// loop onto the loop: the reordered structural hit's alignment step.
func BenchmarkAlignLike(b *testing.B) {
	loops := benchLoops(b)
	rng := rand.New(rand.NewSource(1))
	perms := make([]*ir.Loop, len(loops))
	for i, l := range loops {
		perms[i] = permuted(renamed(l), rng)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(loops)
		sinkLoop, _ = ir.AlignLike(perms[k], loops[k])
	}
}
