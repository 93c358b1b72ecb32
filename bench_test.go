// Benchmarks regenerating every table and figure of the paper's evaluation
// (DESIGN.md §5). Each benchmark runs its experiment on a deterministic
// corpus slice and reports the experiment's headline statistic as a custom
// metric alongside the usual time/op, so `go test -bench=.` doubles as the
// reproduction harness at small scale; cmd/vliwexp runs the full
// 1258-loop corpus.
package vliwq_test

import (
	"context"
	"io"
	"strconv"
	"strings"
	"testing"

	"vliwq"
	"vliwq/internal/corpus"
	"vliwq/internal/exp"
	"vliwq/internal/ir"
	"vliwq/internal/program"
)

// benchCorpus is the per-iteration workload: big enough for stable
// percentages, small enough to iterate.
func benchCorpus(b *testing.B) []*ir.Loop {
	b.Helper()
	return corpus.Generate(corpus.Params{Seed: corpus.DefaultSeed, N: 64})
}

// BenchmarkRunAll regenerates every figure, table and ablation end to end —
// the whole experiment pipeline over one corpus. This is the headline
// benchmark for the shared compile cache: most (loop, machine, options)
// compilations recur across figures, so the cached pipeline should complete
// the suite several times faster than independent per-figure compilation.
func BenchmarkRunAll(b *testing.B) {
	loops := benchCorpus(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		exp.RunAll(io.Discard, exp.Options{Loops: loops})
	}
}

// cell parses a table cell like "93.8%" or "4.25" into a float.
func cell(b *testing.B, t *exp.Table, row int, col int) float64 {
	b.Helper()
	if row >= len(t.Rows) || col >= len(t.Rows[row]) {
		b.Fatalf("%s: no cell (%d,%d)", t.ID, row, col)
	}
	s := strings.TrimSuffix(strings.TrimSuffix(t.Rows[row][col], "%"), "x")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		b.Fatalf("%s: cell (%d,%d) = %q: %v", t.ID, row, col, t.Rows[row][col], err)
	}
	return v
}

// BenchmarkFig3_QueuesRequired regenerates Fig. 3: % of loops schedulable
// with <= 32 queues per machine, with copy operations.
func BenchmarkFig3_QueuesRequired(b *testing.B) {
	loops := benchCorpus(b)
	var last *exp.Table
	for i := 0; i < b.N; i++ {
		last = exp.Fig3(exp.Options{Loops: loops})
	}
	// Rows alternate without/with copies for 4, 6, 12 FUs; col 5 is <=32.
	b.ReportMetric(cell(b, last, 1, 5), "%loops<=32q/4FU")
	b.ReportMetric(cell(b, last, 3, 5), "%loops<=32q/6FU")
	b.ReportMetric(cell(b, last, 5, 5), "%loops<=32q/12FU")
}

// BenchmarkCopyCost regenerates the §2 text table: % of loops keeping the
// same II after copy insertion (paper: ~95%).
func BenchmarkCopyCost(b *testing.B) {
	loops := benchCorpus(b)
	var last *exp.Table
	for i := 0; i < b.N; i++ {
		last = exp.CopyCost(exp.Options{Loops: loops})
	}
	b.ReportMetric(cell(b, last, 0, 1), "%sameII/4FU")
	b.ReportMetric(cell(b, last, 2, 1), "%sameII/12FU")
}

// BenchmarkFig4_IISpeedup regenerates Fig. 4: % of loops with
// II_speedup > 1 from unrolling.
func BenchmarkFig4_IISpeedup(b *testing.B) {
	loops := benchCorpus(b)
	var last *exp.Table
	for i := 0; i < b.N; i++ {
		last = exp.Fig4(exp.Options{Loops: loops})
	}
	b.ReportMetric(cell(b, last, 0, 1), "%speedup>1/4FU")
	b.ReportMetric(cell(b, last, 1, 1), "%speedup>1/6FU")
	b.ReportMetric(cell(b, last, 2, 1), "%speedup>1/12FU")
}

// BenchmarkUnrollQueues regenerates the §3 queue-demand table (paper: >90%
// of unrolled loops fit 32 queues).
func BenchmarkUnrollQueues(b *testing.B) {
	loops := benchCorpus(b)
	var last *exp.Table
	for i := 0; i < b.N; i++ {
		last = exp.UnrollQueues(exp.Options{Loops: loops})
	}
	b.ReportMetric(cell(b, last, 2, 4), "%loops<=32q/12FU")
}

// BenchmarkFig6_IIVariation regenerates Fig. 6: % of loops whose
// partitioned schedule keeps the single-cluster II, per cluster count.
func BenchmarkFig6_IIVariation(b *testing.B) {
	loops := benchCorpus(b)
	var last *exp.Table
	for i := 0; i < b.N; i++ {
		last = exp.Fig6(exp.Options{Loops: loops})
	}
	b.ReportMetric(cell(b, last, 0, 2), "%sameII/4clusters")
	b.ReportMetric(cell(b, last, 1, 2), "%sameII/5clusters")
	b.ReportMetric(cell(b, last, 2, 2), "%sameII/6clusters")
}

// BenchmarkClusterResources regenerates the §4 sizing result: % of loops
// fitting the Fig. 7 cluster (8 private + 8/dir ring queues).
func BenchmarkClusterResources(b *testing.B) {
	loops := benchCorpus(b)
	var last *exp.Table
	for i := 0; i < b.N; i++ {
		last = exp.ClusterResources(exp.Options{Loops: loops})
	}
	b.ReportMetric(cell(b, last, 0, 3), "%fitsFig7/4clusters")
	b.ReportMetric(cell(b, last, 2, 3), "%fitsFig7/6clusters")
}

// BenchmarkFig8_IPCAllLoops regenerates Fig. 8's end points: static and
// dynamic IPC at 4 and 18 FUs (single cluster), and clustered at 18.
func BenchmarkFig8_IPCAllLoops(b *testing.B) {
	loops := benchCorpus(b)
	var last *exp.Table
	for i := 0; i < b.N; i++ {
		last = exp.Fig8(exp.Options{Loops: loops})
	}
	b.ReportMetric(cell(b, last, 0, 1), "staticIPC/4FU")
	b.ReportMetric(cell(b, last, 14, 1), "staticIPC/18FU-single")
	b.ReportMetric(cell(b, last, 14, 2), "staticIPC/18FU-clustered")
	b.ReportMetric(cell(b, last, 14, 3), "dynIPC/18FU-single")
}

// BenchmarkFig9_IPCResourceConstrained regenerates Fig. 9's end points on
// the resource-constrained subset.
func BenchmarkFig9_IPCResourceConstrained(b *testing.B) {
	loops := benchCorpus(b)
	var last *exp.Table
	for i := 0; i < b.N; i++ {
		last = exp.Fig9(exp.Options{Loops: loops})
	}
	b.ReportMetric(cell(b, last, 0, 1), "staticIPC/4FU")
	b.ReportMetric(cell(b, last, 14, 1), "staticIPC/18FU-single")
	b.ReportMetric(cell(b, last, 14, 2), "staticIPC/18FU-clustered")
}

// BenchmarkAblationCopyShape regenerates ablation A1: balanced tree vs
// chain copy fanout.
func BenchmarkAblationCopyShape(b *testing.B) {
	loops := benchCorpus(b)
	var last *exp.Table
	for i := 0; i < b.N; i++ {
		last = exp.AblationCopyShape(exp.Options{Loops: loops})
	}
	b.ReportMetric(cell(b, last, 0, 1), "meanII/tree")
	b.ReportMetric(cell(b, last, 1, 1), "meanII/chain")
}

// BenchmarkAblationMoveOps regenerates ablation A2 (the paper's §5 future
// work): same-II fraction with and without move operations at 6 clusters.
func BenchmarkAblationMoveOps(b *testing.B) {
	loops := benchCorpus(b)
	var last *exp.Table
	for i := 0; i < b.N; i++ {
		last = exp.AblationMoveOps(exp.Options{Loops: loops})
	}
	b.ReportMetric(cell(b, last, 2, 1), "%sameII/6c-movesoff")
	b.ReportMetric(cell(b, last, 2, 2), "%sameII/6c-moveson")
}

// BenchmarkAblationCommLatency regenerates ablation A3: sensitivity of the
// II to inter-cluster communication latency.
func BenchmarkAblationCommLatency(b *testing.B) {
	loops := benchCorpus(b)
	var last *exp.Table
	for i := 0; i < b.N; i++ {
		last = exp.AblationCommLatency(exp.Options{Loops: loops})
	}
	b.ReportMetric(cell(b, last, 1, 1), "%sameII/lat1")
	b.ReportMetric(cell(b, last, 2, 1), "%sameII/lat2")
}

// BenchmarkProgramSchedule schedules the kernelmix traced program end to
// end — frontend-lifted regions, trivial/hard classification, fast and
// certified tiers, merge + verify — with a fresh compiler session per
// iteration so no cross-iteration caching hides the per-region work.
func BenchmarkProgramSchedule(b *testing.B) {
	p := corpus.TracedPrograms()[0]
	b.ReportAllocs()
	var last *program.Schedule
	for i := 0; i < b.N; i++ {
		s, err := program.ScheduleProgram(context.Background(), p, program.Options{})
		if err != nil {
			b.Fatal(err)
		}
		last = s
	}
	if err := last.Verify(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(last.SumII()), "sumII")
	b.ReportMetric(float64(last.HardCount()), "hardRegions")
}

// sink keeps the request-path benchmarks' results live.
var sink string

// requestCorpus renders the paper corpus as request loop texts, the form
// the service and the gateway receive.
func requestCorpus(b *testing.B) []string {
	b.Helper()
	loops := corpus.Standard()
	srcs := make([]string, len(loops))
	for i, l := range loops {
		srcs[i] = vliwq.FormatLoop(l)
	}
	return srcs
}

// BenchmarkStructuralKey measures the structural key of one request —
// normalize, parse, fingerprint, render — per op, cycling through the
// paper corpus on clustered:4 with unrolling: the gateway's routing cost
// per /compile.
func BenchmarkStructuralKey(b *testing.B) {
	srcs := requestCorpus(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := vliwq.Request{Loop: srcs[i%len(srcs)], Machine: "clustered:4", Unroll: true}
		sink = req.StructuralKey()
	}
}

// BenchmarkRender measures Result.Report plus Result.KernelSchedule per
// op, cycling through compiles of the first 64 paper-corpus loops on
// clustered:4 with unrolling: the render cost of every structural hit.
func BenchmarkRender(b *testing.B) {
	loops := corpus.Standard()[:64]
	results := make([]*vliwq.Result, len(loops))
	for i, l := range loops {
		res, err := vliwq.Compile(l, vliwq.Options{Machine: vliwq.Clustered(4), Unroll: true, SkipVerify: true})
		if err != nil {
			b.Fatal(err)
		}
		results[i] = res
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := results[i%len(results)]
		sink = res.Report()
		sink = res.KernelSchedule()
	}
}
