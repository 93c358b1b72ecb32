package sim

import (
	"context"
	"fmt"
	"maps"
	"math/rand"
	"sync"
	"testing"
	"time"

	"vliwq/internal/corpus"
	"vliwq/internal/ir"
	"vliwq/internal/machine"
	"vliwq/internal/queue"
	"vliwq/internal/sched"
)

// fill sets every element of s, up to its capacity, to v.
func fill[T any](s []T, v T) {
	s = s[:cap(s)]
	for i := range s {
		s[i] = v
	}
}

// poison overwrites every array of the scratch, to its capacity, with
// values no run leaves behind. The operand index is left to ir's own
// poisoned-rebuild test, which owns its layout.
func (scr *scratch) poison() {
	fill(scr.args, -1)
	fill(scr.order, 5)
	fill(scr.want, 0x5a5a)
	fill(scr.fan, 13)
	fill(scr.asOf, 17)
	fill(scr.flows, 19)
	fill(scr.grouped, 29)
	fill(scr.cnt, 31)
	fill(scr.qOf, 37)
	fill(scr.qs, fifo{loc: queue.Location{Kind: queue.Ring, From: 3, To: 4}, q: 9, head: 1, tail: 5, limit: 1, wrote: 1, read: 1})
	fill(scr.buf, entry{prod: 2, iter: -7})
	fill(scr.got, 0x3c3c)
	junk := walkEvent{start: -5, win: 3, row: 1, idx: 2, aux: 1, write: true}
	fill(scr.unranked, junk)
	fill(scr.ev, junk)
	fill(scr.byStart, 1)
	fill(scr.radix, 2)
	fill(scr.live, ^uint64(0))
	fill(scr.written, 0)
	fill(scr.fuCap, 0)
	fill(scr.fuUsed, 99)
	fill(scr.fuStamp, 1)
}

// replayInput is one schedule and allocation the scratch tests replay,
// with the replay length TestPipelinedDifferential gives it.
type replayInput struct {
	label string
	s     *sched.Schedule
	a     *queue.Allocation
	n     int
}

// replayInputs is every loop of diffLoops under every differential
// configuration, clean and with each fault kind applied as
// TestPipelinedDifferential applies it.
func replayInputs(t *testing.T) []replayInput {
	t.Helper()
	var ins []replayInput
	for _, dc := range diffConfigs() {
		for li, l := range diffLoops() {
			s, a, err := compileFor(l, dc)
			if err != nil {
				continue
			}
			n := verifyIters(s)
			label := fmt.Sprintf("%s on %s", l.Name, dc.name)
			ins = append(ins, replayInput{label, s, a, n})
			for f := faultKind(0); f < numFaults; f++ {
				if fs, fa, ok := applyFault(s, a, f, li); ok {
					ins = append(ins, replayInput{fmt.Sprintf("%s/%v", label, f), fs, fa, n})
				}
			}
		}
	}
	if len(ins) == 0 {
		t.Fatal("no replay input compiled")
	}
	return ins
}

// replayOutcome is what one scratch makes of an input: VerifyPipeline's
// verdict and the pipelined run's result, store instances and verdict.
type replayOutcome struct {
	verify, pipe string
	res          PipeResult
	stores       map[StoreKey]int64
}

func replayOn(scr *scratch, in replayInput) replayOutcome {
	o := replayOutcome{verify: fmt.Sprint(scr.verifyPipeline(context.Background(), in.s, in.a, in.n))}
	vals, err := scr.pipelined(context.Background(), in.s, in.a, in.n, &o.res)
	o.pipe = fmt.Sprint(err)
	if err == nil {
		o.stores = denseStores(in.s.Loop, in.n, vals)
	}
	return o
}

func sameOutcome(t *testing.T, label string, got, want replayOutcome) {
	t.Helper()
	if got.verify != want.verify {
		t.Fatalf("%s: VerifyPipeline = %s, on a fresh scratch %s", label, got.verify, want.verify)
	}
	if got.pipe != want.pipe {
		t.Fatalf("%s: pipelined run = %s, on a fresh scratch %s", label, got.pipe, want.pipe)
	}
	g, w := got.res, want.res
	if g != w || !maps.Equal(got.stores, want.stores) {
		t.Fatalf("%s: cycles/issues/depth/stores %d/%d/%d/%d, on a fresh scratch %d/%d/%d/%d", label,
			g.Cycles, g.Issues, g.MaxDepth, len(got.stores), w.Cycles, w.Issues, w.MaxDepth, len(want.stores))
	}
}

// TestReplayPoisonedScratch: on one scratch poisoned to its capacity
// before every replay, every corpus input, clean and with each fault
// kind, reaches the verdict, error text and result it reaches on a fresh
// scratch, so nothing a replay reads is left from an earlier one.
func TestReplayPoisonedScratch(t *testing.T) {
	var scr scratch
	ok := 0
	for _, in := range replayInputs(t) {
		want := replayOn(new(scratch), in)
		scr.poison()
		sameOutcome(t, in.label, replayOn(&scr, in), want)
		if want.verify == "<nil>" {
			ok++
		}
	}
	if ok == 0 {
		t.Fatal("no input verified")
	}
}

// TestVerifyPipelineConcurrent: four goroutines replay every input
// through the pool, each in its own order, and reach the verdicts one
// goroutine reached. Under -race this checks that no two calls share a
// scratch.
func TestVerifyPipelineConcurrent(t *testing.T) {
	ins := replayInputs(t)
	want := make([]string, len(ins))
	for i, in := range ins {
		want[i] = fmt.Sprint(VerifyPipeline(context.Background(), in.s, in.a, in.n))
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, i := range rand.New(rand.NewSource(int64(g))).Perm(len(ins)) {
				if got := fmt.Sprint(VerifyPipeline(context.Background(), ins[i].s, ins[i].a, ins[i].n)); got != want[i] {
					t.Errorf("goroutine %d, %s: %s, sequentially %s", g, ins[i].label, got, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestVerifyPipelineAllocs pins the pooled scratch: once the pools have
// seen BenchmarkVerifyServed's replays, VerifyPipeline allocates nothing,
// its reference run's Loop.Validate and its Schedule.Verify and
// Allocation.Verify included.
func TestVerifyPipelineAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop entries at random")
	}
	dc := diffConfigs()[1] // clustered:4 with unrolling, as the benchmark
	var ins []replayInput
	for _, l := range corpus.Generate(corpus.Params{Seed: corpus.DefaultSeed, N: 64}) {
		s, a, err := compileFor(l, dc)
		if err != nil {
			t.Fatal(err)
		}
		ins = append(ins, replayInput{label: l.Name, s: s, a: a, n: min(s.Loop.TripCount(), 64, Horizon(s))})
	}
	verify := func(in replayInput) {
		if err := VerifyPipeline(context.Background(), in.s, in.a, in.n); err != nil {
			t.Fatalf("%s: %v", in.label, err)
		}
	}
	for _, in := range ins {
		verify(in) // warm the pools to the largest replay
	}
	for _, in := range ins {
		if n := testing.AllocsPerRun(20, func() { verify(in) }); n != 0 {
			t.Errorf("%s: VerifyPipeline allocates %v times, want 0", in.label, n)
		}
	}
}

// carriedAdds is m adds, each carrying its own value to itself across
// 64*i+1 iterations, trip 1000: on single:2 the first windows of the
// carried writes spread over ~64*m windows, while every event is live
// for only min(trip, 64) of them.
func carriedAdds(m int) *ir.Loop {
	l := ir.New("carried-adds")
	for i := 0; i < m; i++ {
		a := l.AddOp(ir.KAdd, "")
		l.AddCarried(a, a, 64*i+1)
	}
	l.Trip = 1000
	return l
}

// TestVerifyCostFollowsEvents: a replay's cost follows the events it
// simulates, not the windows times the rows in use. 2000 self-carried
// adds at II 2000 simulate 256,000 events over ~128,000 windows, and used
// to take seconds to verify by visiting every row of every window.
func TestVerifyCostFollowsEvents(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector slows the replay past the time bound")
	}
	s, a, err := compileFor(carriedAdds(2000), diffConfig{name: "single:2", cfg: machine.SingleCluster(2)})
	if err != nil {
		t.Fatal(err)
	}
	if s.II != 2000 {
		t.Fatalf("II = %d, want 2000", s.II)
	}
	n := min(s.Loop.TripCount(), 64, Horizon(s))
	start := time.Now()
	if err := VerifyPipeline(context.Background(), s, a, n); err != nil {
		t.Fatal(err)
	}
	took := time.Since(start)
	if took > time.Second {
		t.Fatalf("VerifyPipeline of %d iterations (horizon %d) took %v, want under 1s", n, Horizon(s), took)
	}
	t.Logf("VerifyPipeline of %d iterations (horizon %d) took %v", n, Horizon(s), took)
}
