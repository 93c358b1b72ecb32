package pool

import (
	"bytes"
	"context"
	"runtime"
	"strconv"
	"sync/atomic"
	"testing"
	"time"
)

func TestRunCoversEveryIndex(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 64} {
		const n = 40
		out := make([]int, n)
		Run(context.Background(), n, workers, func(i int) { out[i] = i + 1 }, nil)
		for i, v := range out {
			if v != i+1 {
				t.Fatalf("workers=%d: index %d not processed (got %d)", workers, i, v)
			}
		}
	}
}

func TestRunZeroItems(t *testing.T) {
	Run(context.Background(), 0, 4, func(i int) { t.Fatal("fn called") }, nil)
}

func TestRunCancelledUpfront(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	const n = 16
	var ran, skip atomic.Int64
	Run(ctx, n, 2, func(i int) { ran.Add(1) }, func(i int) { skip.Add(1) })
	// A context cancelled before Run starts must dispatch nothing: every
	// worker checks the context before it claims an index.
	if ran.Load() != 0 {
		t.Fatalf("pre-cancelled run dispatched %d indices to fn", ran.Load())
	}
	if skip.Load() != n {
		t.Fatalf("skipped %d of %d", skip.Load(), n)
	}
}

func TestRunCancelMidway(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	const n = 100
	var ran, skip atomic.Int64
	Run(ctx, n, 2, func(i int) {
		if ran.Add(1) == 10 {
			cancel()
		}
	}, func(i int) { skip.Add(1) })
	if got := ran.Load() + skip.Load(); got != n {
		t.Fatalf("ran %d + skipped %d = %d, want every index accounted for (%d)", ran.Load(), skip.Load(), got, n)
	}
	if skip.Load() == 0 {
		t.Fatal("cancellation mid-run skipped nothing")
	}
}

// TestRunEachIndexOnce counts per index, at every cancel point: the k-th
// call to start cancels the context (k = 0 cancels before Run). Every index
// must reach fn or skipped exactly once, the indices fn saw must be a
// prefix of [0, n) at least k long, and skipped must get the rest.
func TestRunEachIndexOnce(t *testing.T) {
	const n = 24
	for _, workers := range []int{1, 2, 3, 8} {
		for k := 0; k <= n; k++ {
			ctx, cancel := context.WithCancel(context.Background())
			if k == 0 {
				cancel()
			}
			var started atomic.Int64
			var ran, skip [n]atomic.Int32
			Run(ctx, n, workers, func(i int) {
				ran[i].Add(1)
				if started.Add(1) == int64(k) {
					cancel()
				}
			}, func(i int) { skip[i].Add(1) })
			cancel()
			prefix := 0
			for i := 0; i < n; i++ {
				r, s := ran[i].Load(), skip[i].Load()
				if r+s != 1 {
					t.Fatalf("workers=%d cancel at %d: index %d reached fn %d and skipped %d times, want once in all", workers, k, i, r, s)
				}
				if r == 1 {
					if prefix != i {
						t.Fatalf("workers=%d cancel at %d: index %d ran but index %d was skipped", workers, k, i, prefix)
					}
					prefix++
				}
			}
			if prefix < k {
				t.Fatalf("workers=%d cancel at %d: only %d indices ran", workers, k, prefix)
			}
		}
	}
}

// TestRunClaimsInIndexOrder: when fn(i) starts, every j < i has already
// been claimed for fn, so a cancel from fn(i) — the portfolio race's MII
// short-circuit — can never skip a lower index. The calls below the
// cancelling one are slowed down, so a pool that handed out indices in
// any other order (per-worker ranges, strides) would reach the cancelling
// index while lower ones were still unclaimed.
func TestRunClaimsInIndexOrder(t *testing.T) {
	const n = 16
	for _, workers := range []int{2, 3, 8} {
		for w := 0; w < n; w++ {
			ctx, cancel := context.WithCancel(context.Background())
			var ran [n]atomic.Bool
			Run(ctx, n, workers, func(i int) {
				ran[i].Store(true)
				if i == w {
					cancel()
					return
				}
				time.Sleep(20 * time.Microsecond)
			}, nil)
			cancel()
			for j := 0; j < w; j++ {
				if !ran[j].Load() {
					t.Fatalf("workers=%d: fn(%d) cancelled the run and index %d < %d never reached fn", workers, w, j, w)
				}
			}
		}
	}
}

// goid returns the current goroutine's id, read from its stack header.
func goid() uint64 {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	buf = bytes.TrimPrefix(buf, []byte("goroutine "))
	id, _ := strconv.ParseUint(string(buf[:bytes.IndexByte(buf, ' ')]), 10, 64)
	return id
}

// TestRunPanicWaitsForWorkers: a panic in fn on the calling goroutine
// propagates only after the other workers have finished, so a caller that
// recovers it (net/http recovers a handler's panic) cannot return while
// workers still write into its index-addressed results.
func TestRunPanicWaitsForWorkers(t *testing.T) {
	caller := goid()
	panicking := make(chan struct{})
	var workerDone atomic.Bool
	var recovered any
	var doneAtRecover bool
	func() {
		defer func() {
			recovered = recover()
			doneAtRecover = workerDone.Load()
		}()
		// Two items on two workers: the caller panics on the first index it
		// claims, so the other worker always gets the second, and is still
		// busy with it well after the panic.
		Run(context.Background(), 2, 2, func(i int) {
			if goid() == caller {
				close(panicking)
				panic("fn failed")
			}
			<-panicking
			time.Sleep(20 * time.Millisecond)
			workerDone.Store(true)
		}, nil)
	}()
	if recovered != "fn failed" {
		t.Fatalf("recovered %v, want fn's panic", recovered)
	}
	if !doneAtRecover {
		t.Fatal("the panic propagated while another worker's fn was still running")
	}
}

// TestRunOneWorkerStaysOnCaller: with one worker every fn runs on the
// calling goroutine, and no goroutine is started.
func TestRunOneWorkerStaysOnCaller(t *testing.T) {
	caller := goid()
	Run(context.Background(), 8, 1, func(i int) {
		if id := goid(); id != caller {
			t.Errorf("fn(%d) ran on goroutine %d, want the caller's %d", i, id, caller)
		}
	}, nil)
}

// BenchmarkPoolRun prices one figure sweep served from the memo: 1258 cheap
// index-addressed items (the paper corpus' size) on two workers, where the
// pool's per-item overhead is most of the cost.
func BenchmarkPoolRun(b *testing.B) {
	const n = 1258
	out := make([]uint64, n)
	ctx := context.Background()
	b.ReportAllocs()
	for it := 0; it < b.N; it++ {
		Run(ctx, n, 2, func(i int) {
			x := uint64(i)
			for r := 0; r < 8; r++ {
				x += 0x9e3779b97f4a7c15
				x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
				x = (x ^ x>>27) * 0x94d049bb133111eb
				x ^= x >> 31
			}
			out[i] = x
		}, nil)
	}
}
