package sched

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"vliwq/internal/corpus"
	"vliwq/internal/machine"
)

// TestRaceMemoHeightsConcurrent hammers heightsFor from 8 goroutines over
// an II range and checks every returned vector against a privately
// computed fixpoint. Under -race this doubles as the proof that the memo's
// compute-once-per-II locking publishes each height vector safely; CI's
// race job runs it at -cpu 1,4.
func TestRaceMemoHeightsConcurrent(t *testing.T) {
	cfg := machine.Clustered(4)
	for _, l := range corpus.Stressed()[:8] {
		m := newRaceMemo(l, &cfg)
		const goroutines, iiLo, iiHi = 8, 1, 24
		var wg sync.WaitGroup
		errs := make(chan string, goroutines)
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				var own []int
				for rep := 0; rep < 4; rep++ {
					for ii := iiLo; ii <= iiHi; ii++ {
						got := m.heightsFor(ii)
						own = heightsInto(own, m.lat, m.deps, ii, m.n)
						if !reflect.DeepEqual(got, own) {
							errs <- l.Name
							return
						}
					}
				}
			}(g)
		}
		wg.Wait()
		close(errs)
		for name := range errs {
			t.Fatalf("%s: heightsFor diverged from a private heightsInto under concurrency", name)
		}
		// The memo must have computed each II exactly once, not per caller.
		if m.used != iiHi-iiLo+1 {
			t.Fatalf("%s: memo holds %d height vectors, want %d (one per distinct II)", l.Name, m.used, iiHi-iiLo+1)
		}
		m.release()
	}
}

// TestPortfolioRaceWorkerCountInvariant races every exhaustive-tier
// strategy over the shared memo at a race width of 1 (pure sequential, no
// memo contention) and 8 (maximum contention) and demands identical
// schedules. Run under -race at -cpu 1,4 this exercises the memo table
// from genuinely concurrent attempts; in any mode it pins the documented
// contract that the race width affects wall-clock only, never the result.
func TestPortfolioRaceWorkerCountInvariant(t *testing.T) {
	cfgs := []machine.Config{machine.Clustered(4), machine.Clustered(6)}
	loops := corpus.Stressed()[:16]
	for _, cfg := range cfgs {
		for _, l := range loops {
			seq, seqErr := scheduleLoop(context.Background(), l, cfg, EffortExhaustive, limitsFor(l, 1))
			par, parErr := scheduleLoop(context.Background(), l, cfg, EffortExhaustive, limitsFor(l, 8))
			if (seqErr == nil) != (parErr == nil) {
				t.Fatalf("%s on %s: workers=1 err=%v, workers=8 err=%v", l.Name, cfg.Name, seqErr, parErr)
			}
			if seqErr != nil {
				continue
			}
			if seq.II != par.II || seq.Strategy != par.Strategy ||
				!reflect.DeepEqual(seq.Time, par.Time) || !reflect.DeepEqual(seq.Cluster, par.Cluster) {
				t.Fatalf("%s on %s: workers=1 II=%d/%v, workers=8 II=%d/%v — race outcome depends on worker count",
					l.Name, cfg.Name, seq.II, seq.Strategy, par.II, par.Strategy)
			}
		}
	}
}
