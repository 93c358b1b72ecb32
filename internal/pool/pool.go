// Package pool provides the one worker-pool primitive every fan-out in the
// repo shares: the experiment sweeps (internal/exp), the facade's
// Compiler.RunBatch and the service's /batch endpoint all fan index sets
// over a fixed set of workers with deterministic, index-addressed output.
// Parallelism lives at this one level, across compiles: a single compile
// runs on one goroutine. Workers claim indices from one
// atomic counter, in increasing order, and the calling goroutine is one of
// them.
package pool

import (
	"context"
	"sync"
	"sync/atomic"
)

// Run calls fn(i) for every i in [0, n) on a fixed pool of workers: the
// calling goroutine plus workers-1 goroutines, each claiming the next index
// from a shared atomic counter. A claim is one atomic add on that contended
// counter, so each item must cost well above it: on items of ~20 ns, two
// workers run slower than one (BenchmarkPoolRun). The callers' items are
// whole compiles, or one loop's memo lookups under a figure's bindings.
// With workers == 1 every fn runs on the calling goroutine and no goroutine
// starts. workers is clamped to [1, n].
//
// Indices are claimed in increasing order: when fn(i) starts, every j < i
// has been claimed and fn(j) will run, so a caller that cancels from fn(i)
// never loses a lower index.
//
// When ctx is cancelled, the first worker to see it takes every unclaimed
// index in one swap and hands each to skipped instead (calls already
// running finish; a nil skipped drops them silently). Each index goes
// exactly once to fn or to skipped. Run returns only after all started work
// finishes, also when fn panics on the calling goroutine: the panic
// propagates once the other workers are done. fn and skipped run
// concurrently and must write disjoint, index-addressed state; that
// discipline is also what keeps output order deterministic regardless of
// worker interleaving.
func Run(ctx context.Context, n, workers int, fn func(i int), skipped func(i int)) {
	if n <= 0 {
		return
	}
	workers = min(max(workers, 1), n)
	var next atomic.Int64
	work := func() {
		for {
			if ctx.Err() != nil {
				skipRest(skipped, int(next.Swap(int64(n))), n)
				return
			}
			i := int(next.Add(1) - 1)
			if i >= n {
				return
			}
			fn(i)
		}
	}
	var wg sync.WaitGroup
	defer wg.Wait()
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
}

func skipRest(skipped func(i int), from, n int) {
	if skipped == nil {
		return
	}
	for j := from; j < n; j++ {
		skipped(j)
	}
}
