package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// load is the outcome of one measured phase.
type load struct {
	done      []opTime // the ops that succeeded
	attempted int
	failed    int
	start     time.Time
	wall      time.Duration
	err       error // the first failure
}

// opTime is when an op's answer was drained and how long the op took.
type opTime struct {
	end time.Time
	lat time.Duration
}

// drive runs w's ops in index order from a closed loop of `clients`
// clients, each sending its next op only once its previous one is
// answered, until the first n ops are done or d has passed; after d it
// stops at the next multiple of lap ops.
func drive(w workload, clients, n, lap int, d time.Duration) load {
	var (
		mu      sync.Mutex
		next    int
		stopped bool
		ld      load
		wg      sync.WaitGroup
		start   = time.Now()
	)
	deadline := start.Add(d)
	draw := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if !stopped && next%lap == 0 && time.Now().After(deadline) {
			stopped = true
		}
		if stopped || next >= n {
			return 0, false
		}
		next++
		return next - 1, true
	}
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []opTime
			failed := 0
			var first error
			for i, ok := draw(); ok; i, ok = draw() {
				lat, err := w.op(i)
				if err != nil {
					failed++
					if first == nil {
						first = err
					}
					continue
				}
				mine = append(mine, opTime{time.Now(), lat})
			}
			mu.Lock()
			ld.done = append(ld.done, mine...)
			ld.failed += failed
			if ld.err == nil {
				ld.err = first
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	ld.start = start
	ld.wall = time.Since(start)
	ld.attempted = next
	return ld
}

// quantile is the nearest-rank q-quantile of sorted values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	k := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(0, min(k, len(sorted)-1))]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// peakRSSMB is the process's peak resident set (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", v, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
