package queue

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"vliwq/internal/corpus"
	"vliwq/internal/ir"
	"vliwq/internal/sched"
)

// footprint is how much of a scratch a schedule's allocation uses: its
// dependences, its nc·nc file table and its II+1 difference array.
func footprint(s *sched.Schedule) int {
	nc := 0
	for _, c := range s.Cluster {
		nc = max(nc, c+1)
	}
	return len(s.Loop.Deps) + nc*nc + s.II
}

// bySizeInterleaved orders the inputs largest, smallest, second largest,
// second smallest and so on, so every call runs on a scratch the call
// before it sized for a very different schedule.
func bySizeInterleaved(ins []refInput) []refInput {
	sorted := slices.Clone(ins)
	slices.SortStableFunc(sorted, func(x, y refInput) int { return footprint(x.s) - footprint(y.s) })
	out := make([]refInput, 0, len(sorted))
	for lo, hi := 0, len(sorted)-1; lo <= hi; lo, hi = lo+1, hi-1 {
		out = append(out, sorted[hi])
		if lo < hi {
			out = append(out, sorted[lo])
		}
	}
	return out
}

// fill sets every element of s, up to its capacity, to v.
func fill[T any](s []T, v T) {
	s = s[:cap(s)]
	for i := range s {
		s[i] = v
	}
}

// poison overwrites every array of the scratch, to its capacity, with
// values no call leaves behind.
func (scr *scratch) poison() {
	fill(scr.lts, Lifetime{DepIndex: -1, Start: 9, End: -9})
	fill(scr.keys, lkey{start: -1, end: -2, lt: -3})
	fill(scr.radix, lkey{start: -4, end: -5, lt: -6})
	fill(scr.ph, phase{r: 5, l: -5})
	fill(scr.next, 7)
	fill(scr.queues, fifo{head: 3, next: 2})
	fill(scr.files, file{first: 1, last: 2, n: 3})
	fill(scr.diff, 11)
	fill(scr.cnt, 13)
	fill(scr.byQueue, 19)
	fill(scr.order, 17)
}

// checkScratch allocates s on scr and requires the reference allocator's
// allocation, then requires scr's Verify verdicts on it and on a
// corrupted copy to equal the reference's.
func checkScratch(t *testing.T, scr *scratch, label string, s *sched.Schedule, rng *rand.Rand) {
	t.Helper()
	got, err := scr.allocate(context.Background(), s)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if want := allocateRef(s); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Allocate on a reused scratch differs from the reference\n got %+v\nwant %+v", label, got, want)
	}
	for _, a := range []*Allocation{got, corrupt(got, rng)} {
		g, w := scr.verify(context.Background(), a), verifyRef(a)
		if fmt.Sprint(g) != fmt.Sprint(w) {
			t.Fatalf("%s: Verify on a reused scratch = %v, reference %v", label, g, w)
		}
	}
}

// TestAllocateReusedScratch: on one scratch, alternating the largest
// reference inputs (64-cluster, II-4096 scripts) with the smallest
// (kernels), every allocation equals the reference allocator's and every
// Verify verdict equals the reference's: nothing a call leaves in the
// scratch reaches the next one. Each input runs twice, once on what the
// call before left and once on a scratch poisoned to its capacity.
func TestAllocateReusedScratch(t *testing.T) {
	var scr scratch
	rng := rand.New(rand.NewSource(71))
	for _, in := range bySizeInterleaved(refInputs(t)) {
		checkScratch(t, &scr, in.label, in.s, rng)
		scr.poison()
		checkScratch(t, &scr, in.label+" (poisoned)", in.s, rng)
	}
}

// TestAllocateConcurrent: four goroutines allocate and verify every
// reference input through the pool, each in its own order, and every
// result equals the one a single goroutine computed. Under -race this
// checks that no two calls share a scratch.
func TestAllocateConcurrent(t *testing.T) {
	ins := bySizeInterleaved(refInputs(t))
	want := make([]*Allocation, len(ins))
	for i, in := range ins {
		want[i] = allocate(t, in.s)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, i := range rand.New(rand.NewSource(int64(g))).Perm(len(ins)) {
				got, err := Allocate(context.Background(), ins[i].s)
				if err == nil {
					err = got.Verify(context.Background())
				}
				if err != nil {
					t.Errorf("goroutine %d, %s: %v", g, ins[i].label, err)
					return
				}
				if !reflect.DeepEqual(got, want[i]) {
					t.Errorf("goroutine %d, %s: concurrent Allocate differs from the sequential one", g, ins[i].label)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// countdown is a context whose Err turns to context.Canceled on the call
// after the first `after` calls.
type countdown struct {
	context.Context
	calls, after int
}

func (c *countdown) Err() error {
	c.calls++
	if c.calls > c.after {
		return context.Canceled
	}
	return nil
}

// longChain is a one-cluster schedule of n adds in a dependence chain,
// each placed two cycles after the one before: n-1 lifetimes of length
// one whose start phases cycle through the II's odd phases, so first-fit
// fills each queue with II/2 of them.
func longChain(n, ii int) *sched.Schedule {
	l := ir.New("chain")
	s := &sched.Schedule{Loop: l, II: ii, Time: make([]int, n), Cluster: make([]int, n)}
	for i := 0; i < n; i++ {
		l.AddOp(ir.KAdd, "")
		s.Time[i] = 2 * i
		if i > 0 {
			l.AddDep(ir.Dep{From: i - 1, To: i, Kind: ir.Flow})
		}
	}
	return s
}

// TestAllocateCancels: Allocate reads its context before the first
// lifetime it places and every allocCheckEvery lifetimes after, Verify
// once per queue, and each returns the bare context error at the first
// read that reports cancellation. A cancelled call leaves its scratch in
// a state the next call on it does not notice.
func TestAllocateCancels(t *testing.T) {
	s := longChain(2*allocCheckEvery+400, 64)
	var scr scratch
	full := &countdown{Context: context.Background(), after: 1 << 30}
	a, err := scr.allocate(full, s)
	if err != nil {
		t.Fatal(err)
	}
	if want := 3; full.calls != want {
		t.Fatalf("Allocate read its context %d times over %d lifetimes, want %d", full.calls, len(a.Assignments), want)
	}
	for after := 0; after < full.calls; after++ {
		ctx := &countdown{Context: context.Background(), after: after}
		if got, err := scr.allocate(ctx, s); got != nil || err != context.Canceled || ctx.calls != after+1 {
			t.Fatalf("cancelled at read %d: Allocate returned (%v, %v) after %d reads; want (nil, context.Canceled) after %d",
				after+1, got != nil, err, ctx.calls, after+1)
		}
		checkScratch(t, &scr, fmt.Sprintf("after a cancel at read %d", after+1), longChain(300, 16), rand.New(rand.NewSource(int64(after))))
	}

	checkScratch(t, &scr, "long chain", s, rand.New(rand.NewSource(73)))

	queues := 0
	for _, f := range a.Files {
		queues += f.Queues
	}
	full = &countdown{Context: context.Background(), after: 1 << 30}
	if err := scr.verify(full, a); err != nil {
		t.Fatal(err)
	}
	if full.calls != queues {
		t.Fatalf("Verify read its context %d times over %d queues", full.calls, queues)
	}
	for after := 0; after < full.calls; after++ {
		ctx := &countdown{Context: context.Background(), after: after}
		if err := scr.verify(ctx, a); err != context.Canceled || ctx.calls != after+1 {
			t.Fatalf("cancelled at read %d: Verify returned %v after %d reads; want context.Canceled after %d",
				after+1, err, ctx.calls, after+1)
		}
	}
}

// TestAllocateAllocs pins the pooled scratch: once the pool has seen
// BenchmarkAllocate's schedules, Allocate allocates only what it returns
// (the Allocation, its Assignments, its Files and the array behind every
// MaxOccupancy) and Verify allocates nothing.
func TestAllocateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop entries at random")
	}
	rc := refConfigs()[1] // clustered:4 with unrolling, as BenchmarkAllocate
	var scheds []*sched.Schedule
	for _, l := range corpus.Generate(corpus.Params{Seed: corpus.DefaultSeed, N: 64}) {
		scheds = append(scheds, compileRef(t, l, rc))
	}
	for _, s := range scheds {
		allocate(t, s) // warm the pool to the largest schedule
	}
	for _, s := range scheds {
		a := allocate(t, s)
		if n := testing.AllocsPerRun(20, func() { allocate(t, s) }); n != 4 {
			t.Errorf("%s: Allocate allocates %v times, want 4", s.Loop.Name, n)
		}
		if n := testing.AllocsPerRun(20, func() {
			if err := a.Verify(context.Background()); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("%s: Verify allocates %v times, want 0", s.Loop.Name, n)
		}
	}
}
