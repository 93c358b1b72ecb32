package sim

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"vliwq/internal/corpus"
	"vliwq/internal/ir"
	"vliwq/internal/queue"
	"vliwq/internal/sched"
)

// replayClass is the verdict class of an n-iteration replay: VerifyPipeline,
// the engine's check, or with copies off (multi) Pipelined under
// AllowMultiWrite, since VerifyPipeline's fanout check rejects those
// schedules before they run.
func replayClass(s *sched.Schedule, a *queue.Allocation, n int, multi bool) string {
	if multi {
		_, err := Pipelined(s, a, PipeOptions{N: n, AllowMultiWrite: true})
		return errClass(err)
	}
	return errClass(VerifyPipeline(context.Background(), s, a, n))
}

// TestHorizonMatchesLongReplay holds the engine's replay length to the
// 64-iteration replay it replaced, which stays the verdict oracle. On every
// kernel plus every 8th standard and stressed loop, under the five
// differential configurations, clean and with each fault kind at three
// picks, a replay of min(trip, 64, Horizon) iterations must reach the
// verdict and error class of a min(trip, 64) replay, and so must one
// seeded count between those two and the trip count.
func TestHorizonMatchesLongReplay(t *testing.T) {
	loops := diffLoops()
	for ci, dc := range diffConfigs() {
		t.Run(dc.name, func(t *testing.T) {
			t.Parallel()
			seed := int64(ci + 1)
			rng := rand.New(rand.NewSource(seed))
			runs, mismatches := 0, 0
			classes := map[string]int{}
			check := func(label string, s *sched.Schedule, a *queue.Allocation) {
				trip, long := s.Loop.TripCount(), verifyIters(s)
				short := min(long, Horizon(s))
				want := replayClass(s, a, long, dc.multi)
				classes[want]++
				for _, n := range []int{short, short + rng.Intn(trip-short+1)} {
					runs++
					if got := replayClass(s, a, n, dc.multi); got != want {
						mismatches++
						t.Errorf("%s (seed %d): %d iterations (horizon %d) gives %s, %d gives %s",
							label, seed, n, Horizon(s), got, long, want)
					}
				}
			}
			for li, l := range loops {
				s, a, err := compileFor(l, dc)
				if err != nil {
					continue
				}
				check(l.Name, s, a)
				for f := faultKind(0); f < numFaults; f++ {
					for _, pick := range []int{li, 3*li + 1, 7*li + 2} {
						if fs, fa, ok := applyFault(s, a, f, pick); ok {
							check(fmt.Sprintf("%s/%v(%d)", l.Name, f, pick), fs, fa)
						}
					}
				}
				if t.Failed() {
					t.FailNow()
				}
			}
			t.Logf("%d short replays, %d mismatches; long verdicts: %s", runs, mismatches, tally(classes))
		})
	}
}

// TestHorizonBound: every schedule that passes Schedule.Verify, over every
// corpus under the five differential configurations, has
// 1 <= Horizon <= StageCount + the largest flow distance. Op windows lie in
// [0, StageCount), and a dependence's first window lies in [-Dist, its
// consumer's window] by the dependence constraint Verify checks.
func TestHorizonBound(t *testing.T) {
	loops := slices.Concat(corpus.Kernels(), corpus.Standard(), corpus.Stressed(), corpus.Traced())
	for _, dc := range diffConfigs() {
		t.Run(dc.name, func(t *testing.T) {
			t.Parallel()
			checked, most := 0, 0
			for _, l := range loops {
				s, _, err := compileFor(l, dc)
				if err != nil || s.Verify() != nil {
					continue
				}
				dmax := 0
				for _, d := range s.Loop.Deps {
					if d.Kind == ir.Flow {
						dmax = max(dmax, d.Dist)
					}
				}
				h := Horizon(s)
				if h < 1 || h > s.StageCount()+dmax {
					t.Fatalf("%s: Horizon %d outside [1, StageCount %d + d_max %d]", l.Name, h, s.StageCount(), dmax)
				}
				checked++
				most = max(most, h)
			}
			if checked == 0 {
				t.Fatal("no schedule checked")
			}
			t.Logf("%d schedules, largest horizon %d", checked, most)
		})
	}
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

// TestVerifyPipelineCancels: VerifyPipeline checks its context once per
// queue (in the allocation's Verify) and once per visited window, and
// stops at the first check that reports cancellation.
func TestVerifyPipelineCancels(t *testing.T) {
	s, a, err := compileFor(corpus.Daxpy(), diffConfigs()[1])
	if err != nil {
		t.Fatal(err)
	}
	n := verifyIters(s)
	full := &countdown{Context: context.Background(), after: math.MaxInt}
	if err := VerifyPipeline(full, s, a, n); err != nil {
		t.Fatal(err)
	}
	// With n >= Horizon the first windows leave no gap, so the run visits
	// every window from the first op's or dependence's to the last one's.
	queues := 0
	for _, f := range a.Files {
		queues += f.Queues
	}
	if want := queues + Horizon(s) - 1 + n; full.calls != want {
		t.Fatalf("%d context checks over %d queues and %d windows", full.calls, queues, Horizon(s)-1+n)
	}
	for after := 0; after < full.calls; after++ {
		ctx := &countdown{Context: context.Background(), after: after}
		if err := VerifyPipeline(ctx, s, a, n); !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled at check %d: err = %v, want context.Canceled", after+1, err)
		}
		if ctx.calls != after+1 {
			t.Fatalf("cancelled at check %d: the run went on to check %d", after+1, ctx.calls)
		}
	}
}
