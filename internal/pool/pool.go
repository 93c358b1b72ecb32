// Package pool provides the one worker-pool primitive every fan-out in the
// repo shares: the experiment sweeps (internal/exp), the facade's
// Compiler.RunBatch and the service's /batch endpoint all fan index sets
// over a fixed set of workers with deterministic, index-addressed output.
package pool

import (
	"context"
	"sync"
)

// Run calls fn(i) for every i in [0, n) on a fixed pool of workers pulling
// indices from a channel. A fixed pool spawns `workers` goroutines total
// instead of one per item — corpora run to a thousand-plus loops and each
// experiment sweeps them several times, so goroutine-per-item churn adds
// up. workers is clamped to [1, n].
//
// When ctx is cancelled, feeding stops and every unstarted index is handed
// to skipped instead (in-flight fn calls run to completion; a nil skipped
// drops them silently). Run returns only after all started work finishes.
// fn and skipped run concurrently and must write disjoint, index-addressed
// state; that discipline is also what keeps output order deterministic
// regardless of worker interleaving.
func Run(ctx context.Context, n, workers int, fn func(i int), skipped func(i int)) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range idx {
				fn(i)
			}
		}()
	}
	done := ctx.Done()
feed:
	for i := 0; i < n; i++ {
		// Check before the select: with an idle worker AND a cancelled
		// context both ready, select would pick randomly and dispatch
		// indices the caller expects to be skipped.
		if ctx.Err() != nil {
			skipRest(skipped, i, n)
			break
		}
		select {
		case idx <- i:
		case <-done:
			skipRest(skipped, i, n)
			break feed
		}
	}
	close(idx)
	wg.Wait()
}

func skipRest(skipped func(i int), from, n int) {
	if skipped == nil {
		return
	}
	for j := from; j < n; j++ {
		skipped(j)
	}
}
