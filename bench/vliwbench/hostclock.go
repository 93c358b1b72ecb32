package main

import (
	"math"
	"math/rand"
	"sort"
	"strconv"
	"sync"
	"time"
)

// The benchmark runs on a few processors of a shared host whose speed
// swings: on a 2-processor VM one workload's throughput moved by up to 2x
// between half-second windows of a run and by up to a third (interquartile
// range) between runs, and CPU time per op moved as much as wall time, so
// no clock inside the process escapes it. A hostClock times a fixed
// reference task every probeEvery while the benchmark runs, and reads every
// duration the benchmark reports at nominal host speed: the wall time from
// one sample to the next counts refNominal/ref of its length, where ref is
// the reference task's time at the first of them. STABILITY.md has the
// measurements.
type hostClock struct {
	task       *refTask
	stop, done chan struct{}
	closeOnce  sync.Once

	// Only the sampler appends to these until close has waited for it.
	at  []time.Time     // when each sample was taken
	ref []time.Duration // the reference task's time then

	// Set by close: speed[k] is the host's speed from at[k] to at[k+1] as
	// a share of nominal, refNominal/ref[k], and cum[k] the nominal seconds
	// from at[0] to at[k].
	speed, cum []float64
}

const (
	probeEvery = 100 * time.Millisecond
	// refNominal is the reference task's time on a quiet host; it only
	// scales the reported values.
	refNominal = 150 * time.Microsecond
	// A sample times each part of the task refReps times and keeps the
	// fastest, so a run the scheduler interrupted does not count.
	refReps = 3
)

// startHostClock takes a first sample and starts sampling.
func startHostClock() *hostClock {
	c := &hostClock{task: newRefTask(), stop: make(chan struct{}), done: make(chan struct{})}
	c.sample()
	go func() {
		defer close(c.done)
		t := time.NewTicker(probeEvery)
		defer t.Stop()
		for {
			select {
			case <-c.stop:
				return
			case <-t.C:
				c.sample()
			}
		}
	}()
	return c
}

// sample times the reference task: the geometric mean of its two parts'
// fastest times.
func (c *hostClock) sample() {
	t0 := time.Now()
	ref := math.Sqrt(fastest(c.task.lookups) * fastest(c.task.sort))
	c.at = append(c.at, t0.Add(time.Since(t0)/2))
	c.ref = append(c.ref, time.Duration(ref))
}

// fastest is f's fastest time over refReps runs, in nanoseconds.
func fastest(f func()) float64 {
	best := time.Duration(math.MaxInt64)
	for r := 0; r < refReps; r++ {
		t0 := time.Now()
		f()
		best = min(best, time.Since(t0))
	}
	return float64(best)
}

// close stops the sampler, waits for it, takes a last sample and fixes the
// clock; elapsed may be called only after close, and a second close does
// nothing.
func (c *hostClock) close() {
	c.closeOnce.Do(func() {
		close(c.stop)
		<-c.done
		c.sample()
		c.integrate()
	})
}

// integrate sets speed and cum from the samples.
func (c *hostClock) integrate() {
	n := len(c.ref)
	c.speed = make([]float64, n)
	c.cum = make([]float64, n)
	for k, ref := range c.ref {
		c.speed[k] = float64(refNominal) / float64(ref)
		if k > 0 {
			c.cum[k] = c.cum[k-1] + c.at[k].Sub(c.at[k-1]).Seconds()*c.speed[k-1]
		}
	}
}

// read is the nominal time in seconds from the first sample to t; before
// the first sample and after the last the nearest speed holds.
func (c *hostClock) read(t time.Time) float64 {
	k := max(0, sort.Search(len(c.at), func(i int) bool { return c.at[i].After(t) })-1)
	return c.cum[k] + t.Sub(c.at[k]).Seconds()*c.speed[k]
}

// elapsed is the nominal length in seconds of the wall-time interval from
// from to to.
func (c *hostClock) elapsed(from, to time.Time) float64 {
	return c.read(to) - c.read(from)
}

// meanSpeed is the host's mean speed over the interval as a share of
// nominal.
func (c *hostClock) meanSpeed(from, to time.Time) float64 {
	return c.elapsed(from, to) / to.Sub(from).Seconds()
}

// refTask is the fixed work the clock times: hash-map lookups and a sort.
// Neither allocates, so the benchmarked program's garbage collector never
// assists in them, and both come from the standard library, so two commits
// time the same code. Each alone tracked the workloads' speed worse than
// the two together.
type refTask struct {
	keys     []string
	table    map[string]int
	src, buf []int
	sink     int // keeps the results live
}

func newRefTask() *refTask {
	rng := rand.New(rand.NewSource(1))
	r := &refTask{table: map[string]int{}, src: rng.Perm(4096), buf: make([]int, 4096)}
	for i := 0; i < 50000; i++ {
		k := "key" + strconv.Itoa(i)
		r.keys = append(r.keys, k)
		r.table[k] = i
	}
	rng.Shuffle(len(r.keys), func(i, j int) { r.keys[i], r.keys[j] = r.keys[j], r.keys[i] })
	return r
}

func (r *refTask) lookups() {
	s := 0
	for _, k := range r.keys[:4000] {
		s += r.table[k]
	}
	r.sink += s
}

func (r *refTask) sort() {
	copy(r.buf, r.src)
	sort.Ints(r.buf)
	r.sink += r.buf[0]
}
