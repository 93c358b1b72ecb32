package cache

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestDoMemoizes(t *testing.T) {
	c := New[string, int](Options{}, StringHash)
	var computes atomic.Int64
	get := func(k string, v int) int {
		return c.Do(k, func() int { computes.Add(1); return v })
	}
	if got := get("a", 1); got != 1 {
		t.Fatalf("Do(a) = %d, want 1", got)
	}
	if got := get("a", 99); got != 1 {
		t.Fatalf("second Do(a) = %d, want memoized 1", got)
	}
	if got := get("b", 2); got != 2 {
		t.Fatalf("Do(b) = %d, want 2", got)
	}
	if n := computes.Load(); n != 2 {
		t.Fatalf("compute ran %d times, want 2", n)
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 2 || s.Entries != 2 || s.Evictions != 0 {
		t.Fatalf("stats = %+v, want hits=1 misses=2 entries=2 evictions=0", s)
	}
}

func TestGet(t *testing.T) {
	c := New[string, int](Options{}, StringHash)
	if _, ok := c.Get("missing"); ok {
		t.Fatal("Get on empty cache reported a value")
	}
	c.Do("k", func() int { return 7 })
	v, ok := c.Get("k")
	if !ok || v != 7 {
		t.Fatalf("Get(k) = %d, %t; want 7, true", v, ok)
	}
	if s := c.Stats(); s.Hits != 0 || s.Misses != 1 {
		t.Fatalf("Get changed hit/miss counters: %+v", s)
	}
}

// TestConcurrentSameKey verifies the singleflight contract: many
// goroutines racing on one key observe a single compute and one value.
func TestConcurrentSameKey(t *testing.T) {
	c := New[string, int](Options{Shards: 4}, StringHash)
	var computes atomic.Int64
	var wg sync.WaitGroup
	const workers = 32
	out := make([]int, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			out[w] = c.Do("hot", func() int {
				computes.Add(1)
				return 42
			})
		}(w)
	}
	wg.Wait()
	if n := computes.Load(); n != 1 {
		t.Fatalf("compute ran %d times under contention, want 1", n)
	}
	for w, v := range out {
		if v != 42 {
			t.Fatalf("worker %d saw %d, want 42", w, v)
		}
	}
	s := c.Stats()
	if s.Misses != 1 || s.Hits != workers-1 {
		t.Fatalf("stats = %+v, want misses=1 hits=%d", s, workers-1)
	}
}

// TestConcurrentManyKeys exercises shard contention across distinct keys;
// run under -race this is the cache's main data-race check.
func TestConcurrentManyKeys(t *testing.T) {
	c := New[string, int](Options{Shards: 8}, StringHash)
	const keys, workers = 64, 16
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < keys; i++ {
				k := fmt.Sprintf("k%d", (i+w)%keys)
				want := (i + w) % keys
				if got := c.Do(k, func() int { return want }); got != want {
					t.Errorf("Do(%s) = %d, want %d", k, got, want)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if c.Len() != keys {
		t.Fatalf("Len = %d, want %d", c.Len(), keys)
	}
}

func TestBoundedEviction(t *testing.T) {
	const bound = 8
	c := New[int, int](Options{Shards: 1, MaxEntries: bound}, func(k int) uint64 { return uint64(k) })
	for i := 0; i < 4*bound; i++ {
		c.Do(i, func() int { return i })
	}
	if n := c.Len(); n > bound {
		t.Fatalf("bounded cache holds %d entries, want <= %d", n, bound)
	}
	s := c.Stats()
	if s.Evictions != 4*bound-bound {
		t.Fatalf("evictions = %d, want %d", s.Evictions, 4*bound-bound)
	}
	// Every lookup still computes the right value after eviction churn.
	for i := 0; i < 4*bound; i++ {
		if got := c.Do(i, func() int { return i }); got != i {
			t.Fatalf("post-eviction Do(%d) = %d", i, got)
		}
	}
}

func TestShardRounding(t *testing.T) {
	// A non-power-of-two shard request must still place and find keys.
	c := New[string, int](Options{Shards: 5}, StringHash)
	for i := 0; i < 100; i++ {
		k := fmt.Sprintf("key-%d", i)
		c.Do(k, func() int { return i })
	}
	for i := 0; i < 100; i++ {
		v, ok := c.Get(fmt.Sprintf("key-%d", i))
		if !ok || v != i {
			t.Fatalf("Get(key-%d) = %d, %t", i, v, ok)
		}
	}
}

func TestStringHashSpreads(t *testing.T) {
	seen := map[uint64]bool{}
	for i := 0; i < 1000; i++ {
		seen[StringHash(fmt.Sprintf("loop%04d", i))] = true
	}
	if len(seen) < 1000 {
		t.Fatalf("StringHash collided on sequential names: %d distinct of 1000", len(seen))
	}
}

// TestBoundedExactCap checks MaxEntries is honored exactly: per-shard caps
// sum to the bound, and the shard count folds so small bounds still fill.
func TestBoundedExactCap(t *testing.T) {
	const bound = 20
	c := New[string, int](Options{MaxEntries: bound}, StringHash)
	for i := 0; i < 60; i++ {
		c.Do(fmt.Sprintf("key-%d", i), func() int { return i })
	}
	if n := c.Len(); n != bound {
		t.Fatalf("bounded cache settled at %d entries, want exactly %d", n, bound)
	}
}

// TestDoWithInfoClassification pins the three outcomes: Created on first
// use, Joined while the compute is in flight, neither on a completed-entry
// hit — and the Coalesced counter tracking exactly the Joined calls.
func TestDoWithInfoClassification(t *testing.T) {
	c := New[string, int](Options{Shards: 1}, StringHash)

	started := make(chan struct{})
	release := make(chan struct{})
	joined := make(chan Info, 1)
	go func() {
		_, info, _ := c.DoWithInfo(context.Background(), "k", func() (int, Fate) {
			close(started)
			<-release
			return 7, Keep
		})
		if !info.Created || info.Joined {
			t.Errorf("leader info = %+v, want Created", info)
		}
		joined <- info
	}()
	<-started

	done := make(chan Info, 1)
	go func() {
		_, info, _ := c.DoWithInfo(context.Background(), "k", func() (int, Fate) { return 0, Keep })
		done <- info
	}()
	// The joiner classifies before it waits; give it a moment, then let the
	// leader finish.
	for c.Stats().Coalesced == 0 {
		time.Sleep(time.Millisecond)
	}
	close(release)
	if info := <-done; !info.Joined || info.Created {
		t.Fatalf("joiner info = %+v, want Joined", info)
	}
	<-joined

	if v, info, _ := c.DoWithInfo(context.Background(), "k", func() (int, Fate) { return 0, Keep }); v != 7 || info.Created || info.Joined {
		t.Fatalf("completed-entry hit: v=%d info=%+v, want v=7 and neither flag", v, info)
	}
	s := c.Stats()
	if s.Misses != 1 || s.Hits != 2 || s.Coalesced != 1 {
		t.Fatalf("stats = %+v, want misses=1 hits=2 coalesced=1", s)
	}
}

// TestCoalescedSubsetOfHits: under heavy same-key contention every call is
// either the one miss, a coalesced hit, or a plain hit; coalesced never
// exceeds hits and the sum of classifications covers every call.
func TestCoalescedSubsetOfHits(t *testing.T) {
	c := New[string, int](Options{Shards: 4}, StringHash)
	var wg sync.WaitGroup
	const workers = 64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.DoWithInfo(context.Background(), "hot", func() (int, Fate) {
				time.Sleep(2 * time.Millisecond)
				return 1, Keep
			})
		}()
	}
	wg.Wait()
	s := c.Stats()
	if s.Misses != 1 || s.Hits != workers-1 {
		t.Fatalf("stats = %+v, want misses=1 hits=%d", s, workers-1)
	}
	if s.Coalesced < 1 || s.Coalesced > s.Hits {
		t.Fatalf("coalesced = %d, want within [1, %d]", s.Coalesced, s.Hits)
	}
}

// outcome is what one DoWithInfo call returned.
type outcome struct {
	v    int
	info Info
	err  error
}

// call runs DoWithInfo on its own goroutine and delivers the result.
func call(ctx context.Context, c *Cache[string, int], k string, compute func() (int, Fate)) <-chan outcome {
	out := make(chan outcome, 1)
	go func() {
		v, info, err := c.DoWithInfo(ctx, k, compute)
		out <- outcome{v, info, err}
	}()
	return out
}

// startLeader starts a caller on k whose compute waits for release and
// then returns v with fate; it returns once the compute is running.
func startLeader(c *Cache[string, int], k string, release <-chan struct{}, v int, fate Fate) <-chan outcome {
	started := make(chan struct{})
	out := call(context.Background(), c, k, func() (int, Fate) {
		close(started)
		<-release
		return v, fate
	})
	<-started
	return out
}

// waitJoined polls until n lookups have found a compute in flight.
func waitJoined(t *testing.T, c *Cache[string, int], n int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for c.Stats().Coalesced < n {
		if time.Now().After(deadline) {
			t.Fatalf("coalesced = %d after 5s, want %d", c.Stats().Coalesced, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestUnkeptValueNeverOutlivesItsCompute: a Share or Retry value reaches
// its leader, but a caller that arrives once the leader has it computes
// afresh and never sees it, and Get reports nothing in between.
func TestUnkeptValueNeverOutlivesItsCompute(t *testing.T) {
	for _, fate := range []Fate{Share, Retry} {
		c := New[string, int](Options{}, StringHash)
		for round := 1; round <= 100; round++ {
			v, info, err := c.DoWithInfo(context.Background(), "k", func() (int, Fate) { return -round, fate })
			if v != -round || !info.Created || err != nil {
				t.Fatalf("fate %d round %d: leader got %d %+v %v, want its own value", fate, round, v, info, err)
			}
			if got, ok := c.Get("k"); ok {
				t.Fatalf("fate %d round %d: Get returned unkept value %d", fate, round, got)
			}
		}
		if v := c.Do("k", func() int { return 1 }); v != 1 {
			t.Fatalf("fate %d: caller after the unkept computes got %d, want a fresh 1", fate, v)
		}
		if s := c.Stats(); s.Misses != 101 || s.Hits != 0 {
			t.Fatalf("fate %d: stats = %+v, want 101 misses and no hits", fate, s)
		}
	}
}

// TestShareServesWaitingCallersOnly: the callers already waiting on a
// Share compute get its value; the next caller computes afresh.
func TestShareServesWaitingCallersOnly(t *testing.T) {
	c := New[string, int](Options{}, StringHash)
	release := make(chan struct{})
	leader := startLeader(c, "k", release, 7, Share)
	const joiners = 4
	outs := make([]<-chan outcome, joiners)
	for i := range outs {
		outs[i] = call(context.Background(), c, "k", func() (int, Fate) { return -1, Keep })
	}
	waitJoined(t, c, joiners)
	close(release)
	if o := <-leader; o.v != 7 || !o.info.Created {
		t.Fatalf("leader got %+v, want 7 and Created", o)
	}
	for i, out := range outs {
		if o := <-out; o.v != 7 || !o.info.Joined || o.err != nil {
			t.Fatalf("joiner %d got %+v, want the shared 7", i, o)
		}
	}
	if v, info, _ := c.DoWithInfo(context.Background(), "k", func() (int, Fate) { return 8, Keep }); v != 8 || !info.Created {
		t.Fatalf("caller after the Share got %d %+v, want a fresh 8", v, info)
	}
}

// TestRetryHandsJoinersAFreshCompute: a Retry value reaches its leader
// alone; the waiting callers collapse onto one fresh compute, which one of
// them leads.
func TestRetryHandsJoinersAFreshCompute(t *testing.T) {
	c := New[string, int](Options{}, StringHash)
	release := make(chan struct{})
	leader := startLeader(c, "k", release, -1, Retry)
	const joiners = 6
	var runs atomic.Int64
	outs := make([]<-chan outcome, joiners)
	for i := range outs {
		outs[i] = call(context.Background(), c, "k", func() (int, Fate) {
			runs.Add(1)
			return 9, Keep
		})
	}
	waitJoined(t, c, joiners)
	close(release)
	if o := <-leader; o.v != -1 || !o.info.Created {
		t.Fatalf("leader got %+v, want its own -1", o)
	}
	created := 0
	for i, out := range outs {
		o := <-out
		if o.v != 9 || o.err != nil {
			t.Fatalf("joiner %d got %+v, want the fresh 9", i, o)
		}
		if o.info.Created {
			created++
		}
	}
	if n := runs.Load(); n != 1 || created != 1 {
		t.Fatalf("fresh computes = %d, callers reporting Created = %d; want 1 and 1", n, created)
	}
	if s := c.Stats(); s.Misses != 2 || s.Entries != 1 {
		t.Fatalf("stats = %+v, want misses=2 entries=1", s)
	}
}

// TestJoinerContextEndsWhileComputeRunsOn: a waiting caller whose context
// ends returns ctx.Err() at once; the compute runs on, and its kept value
// serves the leader and every later caller.
func TestJoinerContextEndsWhileComputeRunsOn(t *testing.T) {
	c := New[string, int](Options{}, StringHash)
	release := make(chan struct{})
	leader := startLeader(c, "k", release, 7, Keep)
	ctx, cancel := context.WithCancel(context.Background())
	joiner := call(ctx, c, "k", func() (int, Fate) { return -1, Keep })
	waitJoined(t, c, 1)
	cancel()
	if o := <-joiner; !errors.Is(o.err, context.Canceled) || o.v != 0 || !o.info.Joined {
		t.Fatalf("cancelled joiner got %+v, want context.Canceled, zero and Joined", o)
	}
	close(release)
	if o := <-leader; o.v != 7 || o.err != nil {
		t.Fatalf("leader got %+v, want 7", o)
	}
	if v, info, err := c.DoWithInfo(context.Background(), "k", func() (int, Fate) { return -1, Keep }); v != 7 || info.Created || info.Joined || err != nil {
		t.Fatalf("later caller got %d %+v %v, want the kept 7 as a plain hit", v, info, err)
	}
}

// TestKeptEntryIgnoresContext: a kept entry is a hit even for a caller
// whose context has already ended.
func TestKeptEntryIgnoresContext(t *testing.T) {
	c := New[string, int](Options{}, StringHash)
	c.Do("k", func() int { return 7 })
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	v, info, err := c.DoWithInfo(ctx, "k", func() (int, Fate) { return -1, Keep })
	if v != 7 || err != nil || info.Created || info.Joined {
		t.Fatalf("dead-context hit got %d %+v %v, want 7 and no error", v, info, err)
	}
}

// TestPanickingComputeReleasesJoiners: a compute that panics leaves no
// entry, its panic reaches its leader, and a caller waiting on it leads a
// fresh compute instead of hanging.
func TestPanickingComputeReleasesJoiners(t *testing.T) {
	c := New[string, int](Options{}, StringHash)
	started := make(chan struct{})
	release := make(chan struct{})
	recovered := make(chan any, 1)
	go func() {
		defer func() { recovered <- recover() }()
		c.DoWithInfo(context.Background(), "k", func() (int, Fate) {
			close(started)
			<-release
			panic("compute failed")
		})
	}()
	<-started
	joiner := call(context.Background(), c, "k", func() (int, Fate) { return 5, Keep })
	waitJoined(t, c, 1)
	close(release)
	if r := <-recovered; r != "compute failed" {
		t.Fatalf("leader recovered %v, want the compute's panic", r)
	}
	if o := <-joiner; o.v != 5 || !o.info.Created || o.err != nil {
		t.Fatalf("joiner got %+v, want to lead a fresh compute of 5", o)
	}

	func() {
		defer func() { recover() }()
		c.Do("p", func() int { panic("again") })
	}()
	if _, ok := c.Get("p"); ok || c.Len() != 1 {
		t.Fatalf("panicked compute left an entry: Get ok=%t, Len=%d (want false, 1)", ok, c.Len())
	}
	if v := c.Do("p", func() int { return 3 }); v != 3 {
		t.Fatalf("Do after a panicked compute = %d, want a fresh 3", v)
	}
}

// TestDroppedEntryIsNotAnEviction: removing a Share or Retry entry is
// not capacity pressure, so it leaves Evictions alone and Entries where it
// was before the compute.
func TestDroppedEntryIsNotAnEviction(t *testing.T) {
	c := New[string, int](Options{Shards: 1, MaxEntries: 8}, StringHash)
	c.Do("kept", func() int { return 1 })
	for _, fate := range []Fate{Share, Retry} {
		c.DoWithInfo(context.Background(), "dropped", func() (int, Fate) { return 2, fate })
		if s := c.Stats(); s.Evictions != 0 || s.Entries != 1 || c.Len() != 1 {
			t.Fatalf("after a fate-%d drop: stats = %+v, Len = %d; want 0 evictions and 1 entry", fate, s, c.Len())
		}
	}
}

// TestFatesUnderContention hammers a small bounded cache from many
// goroutines whose computes pick a fate at random and some of whose
// contexts have already ended. A caller reports Created exactly when it
// got its own value, a Retry value reaches only the caller that computed
// it, and every value left in the cache was kept.
func TestFatesUnderContention(t *testing.T) {
	c := New[string, int](Options{Shards: 1, MaxEntries: 2}, StringHash)
	var mu sync.Mutex
	fateOf := map[int]Fate{} // value -> the fate its compute returned
	var next atomic.Int64
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 300; i++ {
				k := fmt.Sprintf("k%d", rng.Intn(4))
				ctx := context.Background()
				if rng.Intn(4) == 0 {
					ctx = dead
				}
				fate, mine := Fate(rng.Intn(3)), -1
				v, info, err := c.DoWithInfo(ctx, k, func() (int, Fate) {
					mine = int(next.Add(1))
					mu.Lock()
					fateOf[mine] = fate
					mu.Unlock()
					runtime.Gosched()
					return mine, fate
				})
				if err != nil {
					continue
				}
				mu.Lock()
				f := fateOf[v]
				mu.Unlock()
				if info.Created != (v == mine) || (f == Retry && v != mine) {
					t.Errorf("caller got %d (fate %d) with %+v, its own compute %d", v, f, info, mine)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	kept := 0
	for i := 0; i < 4; i++ {
		if v, ok := c.Get(fmt.Sprintf("k%d", i)); ok {
			kept++
			if fateOf[v] != Keep {
				t.Fatalf("cache holds %d, whose compute returned fate %d", v, fateOf[v])
			}
		}
	}
	if s := c.Stats(); s.Entries != int64(kept) || s.Evictions == 0 {
		t.Fatalf("stats = %+v with %d kept values; want entries = kept and some evictions", s, kept)
	}
}

// sink keeps benchmarked results live.
var sink int

// BenchmarkCacheDo prices the singleflight's three paths: a hit on a kept
// entry; a miss that computes and keeps (a fresh key every iteration, in a
// bounded cache, so the steady state also evicts one entry per miss); and
// a compute that one waiting caller shares and that is then dropped, which
// pays for the entry's done channel and the waiter's wake-up.
func BenchmarkCacheDo(b *testing.B) {
	b.Run("hit", func(b *testing.B) {
		c := New[string, int](Options{}, StringHash)
		c.Do("k", func() int { return 1 })
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sink = c.Do("k", func() int { return 1 })
		}
	})
	b.Run("miss_keep", func(b *testing.B) {
		c := New[int, int](Options{MaxEntries: 1024}, func(k int) uint64 { return uint64(k) })
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sink = c.Do(i, func() int { return i })
		}
	})
	b.Run("share_drop", func(b *testing.B) {
		c := New[int, int](Options{}, func(k int) uint64 { return uint64(k) })
		ctx := context.Background()
		got := make(chan int)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.DoWithInfo(ctx, i, func() (int, Fate) {
				go func() {
					v, _, _ := c.DoWithInfo(ctx, i, func() (int, Fate) { return -1, Keep })
					got <- v
				}()
				for c.coalesced.Load() <= int64(i) {
					runtime.Gosched()
				}
				return i, Share
			})
			if v := <-got; v != i {
				b.Fatalf("waiting caller got %d, want the shared %d", v, i)
			}
		}
	})
}
