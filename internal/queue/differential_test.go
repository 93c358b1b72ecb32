package queue

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"vliwq/internal/copyins"
	"vliwq/internal/corpus"
	"vliwq/internal/ir"
	"vliwq/internal/machine"
	"vliwq/internal/sched"
	"vliwq/internal/unroll"
)

// refConfig is one machine and pipeline setting the reference comparison
// compiles the corpus for.
type refConfig struct {
	name   string
	cfg    machine.Config
	unroll bool
	shape  copyins.Shape
}

// refConfigs are internal/sim's diffConfigs (the settings its
// differential test runs) plus the Chain and None copy shapes on
// clustered:4.
func refConfigs() []refConfig {
	comm := machine.Clustered(6)
	comm.CommLatency = 2
	moves := machine.Clustered(6)
	moves.AllowMoves = true
	return []refConfig{
		{name: "single:6", cfg: machine.SingleCluster(6)},
		{name: "clustered:4+unroll", cfg: machine.Clustered(4), unroll: true},
		{name: "clustered:6/comm2", cfg: comm},
		{name: "clustered:6+moves", cfg: moves},
		{name: "single:6/copies-off", cfg: machine.SingleCluster(6), shape: copyins.None},
		{name: "clustered:4/chain", cfg: machine.Clustered(4), shape: copyins.Chain},
		{name: "clustered:4/copies-off", cfg: machine.Clustered(4), shape: copyins.None},
	}
}

// refLoops is every kernel, every 8th standard and stressed loop, a
// value with hundreds of consumers and a loop whose carried distances
// put its lifetimes' ends beyond 32 bits.
func refLoops() []*ir.Loop {
	loops := corpus.Kernels()
	for _, set := range [][]*ir.Loop{corpus.Standard(), corpus.Stressed()} {
		for i := 0; i < len(set); i += 8 {
			loops = append(loops, set[i])
		}
	}
	return append(loops, fanoutLoop(300), farLoop())
}

// fanoutLoop is one load read by n adds. Without copy operations every
// add reads the load from a queue of its own, so the load's n lifetimes
// share one start: Allocate orders them by end within that start.
func fanoutLoop(n int) *ir.Loop {
	l := ir.New(fmt.Sprintf("fanout%d", n))
	ld := l.AddOp(ir.KLoad, "x")
	for i := 0; i < n; i++ {
		a := l.AddOp(ir.KAdd, "")
		l.AddFlow(ld, a)
		l.AddFlow(a, l.AddOp(ir.KStore, ""))
	}
	return l
}

// farLoop is a chain of adds, each fed by a load and by the add before it
// and carrying its value to every later add at distances of 2^33 and more,
// so its carried lifetimes end beyond 32 bits, several of them per start.
func farLoop() *ir.Loop {
	l := ir.New("far")
	var adds []*ir.Op
	for i := 0; i < 8; i++ {
		a := l.AddOp(ir.KAdd, "")
		l.AddFlow(l.AddOp(ir.KLoad, ""), a)
		if i > 0 {
			l.AddFlow(adds[i-1], a)
		}
		adds = append(adds, a)
	}
	for i, a := range adds {
		for j := i + 1; j < len(adds); j++ {
			l.AddCarried(a, adds[j], 1<<33+(j-i)*1_000_003)
		}
	}
	l.AddFlow(adds[len(adds)-1], l.AddOp(ir.KStore, ""))
	return l
}

// allocate runs Allocate with no deadline, where it cannot fail.
func allocate(t testing.TB, s *sched.Schedule) *Allocation {
	t.Helper()
	a, err := Allocate(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func compileRef(t testing.TB, l *ir.Loop, rc refConfig) *sched.Schedule {
	t.Helper()
	work := l
	if rc.unroll {
		u, err := unroll.Unroll(l, unroll.AutoFactor(l, rc.cfg))
		if err != nil {
			t.Fatal(err)
		}
		work = u
	}
	ins := copyins.Insert(work, rc.shape)
	s, err := sched.ScheduleLoop(context.Background(), ins.Loop, rc.cfg, sched.EffortFast)
	if err != nil {
		t.Fatalf("%s on %s: %v", l.Name, rc.name, err)
	}
	return s
}

// scriptSchedule builds a schedule from raw bytes, feasible or not: each
// 6-byte group adds one op (kind, issue cycle, cluster) and up to two
// dependences into it. Byte 0's low 3 bits pick the op kind, bits 3-4 the
// kind of the first dependence (mem for 1, order for 2, flow otherwise)
// and bits 5-7 its distance; bytes 1-2 are the issue cycle, signed, so it
// may be negative; byte 4 picks the first dependence's producer, and
// byte 5, when odd, adds a second flow dependence of distance 0 from op
// byte5/2.
func scriptSchedule(ii, nc, comm int, script []byte) *sched.Schedule {
	n := min(len(script)/6, 128)
	l := ir.New("script")
	s := &sched.Schedule{Loop: l, II: ii, Time: make([]int, n), Cluster: make([]int, n)}
	s.Machine.CommLatency = comm
	for i := 0; i < n; i++ {
		g := script[6*i : 6*i+6]
		l.AddOp(ir.KLoad+ir.OpKind(g[0]&7%7), "")
		s.Time[i] = int(int16(uint16(g[1])|uint16(g[2])<<8)) % (8*ii + 32)
		s.Cluster[i] = int(g[3]) % nc
	}
	for i := 0; i < n; i++ {
		g := script[6*i : 6*i+6]
		kind := ir.DepKind(g[0] >> 3 & 3 % 3)
		l.AddDep(ir.Dep{From: int(g[4]) % n, To: i, Dist: int(g[0] >> 5), Kind: kind})
		if g[5]&1 == 1 {
			l.AddDep(ir.Dep{From: int(g[5]>>1) % n, To: i, Kind: ir.Flow})
		}
	}
	return s
}

// randomSchedule draws a script schedule: 1-64 clusters, comm latency 0-2
// and an II that is small half the time and up to 4096 otherwise, so that
// both crowded files with many queues and long occupancy wrap-arounds
// occur.
func randomSchedule(rng *rand.Rand) *sched.Schedule {
	ii := 1 + rng.Intn(16)
	switch rng.Intn(4) {
	case 0:
		ii = 1 + rng.Intn(256)
	case 1:
		ii = 1 + rng.Intn(4096)
	}
	nc := 1 + rng.Intn(4)
	if rng.Intn(4) == 0 {
		nc = 1 + rng.Intn(machine.MaxClusters)
	}
	script := make([]byte, 6*(1+rng.Intn(96)))
	rng.Read(script)
	return scriptSchedule(ii, nc, rng.Intn(3), script)
}

// checkAllocate requires Allocate to equal the reference allocator, its
// allocation to pass Verify, and maxOccupancy to equal the reference count
// on the schedule's lifetimes.
func checkAllocate(t *testing.T, label string, s *sched.Schedule) *Allocation {
	t.Helper()
	got, want := allocate(t, s), allocateRef(s)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Allocate differs from the reference\n got %+v\nwant %+v", label, got, want)
	}
	if err := got.Verify(context.Background()); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	lts := buildLifetimes(s)
	if g, w := maxOccupancy(lts, s.II), maxOccupancyRef(lts, s.II); g != w {
		t.Fatalf("%s: maxOccupancy of all %d lifetimes = %d, reference %d", label, len(lts), g, w)
	}
	return got
}

// refInput is one schedule the reference comparison allocates.
type refInput struct {
	label string
	s     *sched.Schedule
}

var (
	refInputsOnce sync.Once
	refInputsList []refInput
)

// refInputs returns the corpus compiled under every reference
// configuration, then 1,500 seeded random schedules that need not be
// feasible. The list is built once per test binary and never modified.
func refInputs(t testing.TB) []refInput {
	refInputsOnce.Do(func() {
		for _, rc := range refConfigs() {
			for _, l := range refLoops() {
				refInputsList = append(refInputsList, refInput{rc.name + "/" + l.Name, compileRef(t, l, rc)})
			}
		}
		rng := rand.New(rand.NewSource(61))
		for trial := 0; trial < 1500; trial++ {
			refInputsList = append(refInputsList, refInput{"random", randomSchedule(rng)})
		}
	})
	return refInputsList
}

// TestAllocateMatchesReference: the dense allocator yields the reference
// first-fit's allocation, equal under reflect.DeepEqual (same assignments
// in the same order, same queue numbers, same files in the same order,
// same depths), on every reference input.
func TestAllocateMatchesReference(t *testing.T) {
	for _, in := range refInputs(t) {
		checkAllocate(t, in.label, in.s)
	}
}

// TestPlacementOrderMatchesComparatorSort: placementOrder gives the order
// a comparison sort on (start, end, dependence index) gives, on a scratch
// poisoned before each call. The inputs are every reference input's
// lifetimes, then random lifetimes whose starts span from one cycle to
// the whole int range (one to eight radix passes), fall into runs of one
// start as long as 20,000, and end anywhere in the int range.
func TestPlacementOrderMatchesComparatorSort(t *testing.T) {
	var scr scratch
	check := func(label string, lts []Lifetime) {
		t.Helper()
		want := make([]lkey, len(lts))
		for i, lt := range lts {
			want[i] = lkey{start: lt.Start, end: lt.End, lt: i}
		}
		slices.SortFunc(want, lkey.compare)
		scr.poison()
		if got := scr.placementOrder(lts); !slices.Equal(got, want) {
			t.Fatalf("%s: placementOrder = %v, comparison sort %v", label, got, want)
		}
	}
	for _, in := range refInputs(t) {
		if lts := buildLifetimes(in.s); len(lts) > 0 {
			check(in.label, lts)
		}
	}
	rng := rand.New(rand.NewSource(79))
	spans := []uint64{1, 2, 255, 256, 257, 1 << 16, 1 << 33, math.MaxUint64}
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.Intn(300)
		if trial == 0 {
			n = 20000
		}
		span := spans[rng.Intn(len(spans))]
		starts := 1 + rng.Intn(n) // distinct starts at most, so runs form
		if trial == 0 {
			starts = 1
		}
		base := int(rng.Uint64())
		picks := make([]int, starts)
		for i := range picks {
			picks[i] = base + int(rng.Uint64()%span)
		}
		lts := make([]Lifetime, n)
		for i := range lts {
			lts[i] = Lifetime{DepIndex: i, Start: picks[rng.Intn(starts)], End: int(rng.Uint64())}
			if rng.Intn(2) == 0 {
				lts[i].End = lts[i].Start + rng.Intn(8) // many equal ends
			}
		}
		check(fmt.Sprintf("trial %d (%d lifetimes, span %d)", trial, n, span), lts)
	}
}

// corrupt returns a copy of a with one assignment changed by a seeded
// fault: moved to another queue of its location, given another
// assignment's location, sent to a random queue, or dropped.
func corrupt(a *Allocation, rng *rand.Rand) *Allocation {
	b := *a
	as := slices.Clone(a.Assignments)
	b.Assignments = as
	if len(as) == 0 {
		return &b
	}
	i, j := rng.Intn(len(as)), rng.Intn(len(as))
	switch rng.Intn(4) {
	case 0:
		if as[i].Loc == as[j].Loc {
			as[i].Queue = as[j].Queue
		}
	case 1:
		as[i].Loc, as[j].Loc = as[j].Loc, as[i].Loc
	case 2:
		as[i].Queue = rng.Intn(4)
	default:
		b.Assignments = slices.Delete(as, i, i+1)
	}
	return &b
}

// TestVerifyMatchesReference: on corrupted allocations, Verify reports
// exactly what the comparison-sorted reference reports, naming the same
// first offending queue.
func TestVerifyMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	rejected := 0
	check := func(label string, a *Allocation) {
		for k := 0; k < 8; k++ {
			b := corrupt(a, rng)
			for f := rng.Intn(3); f > 0; f-- {
				b = corrupt(b, rng)
			}
			got, want := b.Verify(context.Background()), verifyRef(b)
			if (got == nil) != (want == nil) || got != nil && got.Error() != want.Error() {
				t.Fatalf("%s: Verify = %v, reference %v", label, got, want)
			}
			if got != nil {
				rejected++
			}
		}
	}
	for _, l := range corpus.Kernels() {
		check(l.Name, allocate(t, compileRef(t, l, refConfigs()[1])))
	}
	for trial := 0; trial < 300; trial++ {
		check("random", allocate(t, randomSchedule(rng)))
	}
	if rejected == 0 {
		t.Fatal("no corrupted allocation was rejected; the faults test nothing")
	}
}

// TestVerifyRejectsSpansBeyondAnyMachine: assignments naming clusters or
// queue indices no allocation can produce are an error, not a huge bucket
// array.
func TestVerifyRejectsSpansBeyondAnyMachine(t *testing.T) {
	lt := Lifetime{Start: 0, End: 1}
	for _, as := range [][]Assignment{
		{{Lifetime: lt, Loc: Location{Kind: Ring, From: 0, To: machine.MaxClusters}}, {Lifetime: lt}},
		{{Lifetime: lt, Loc: Location{Kind: Ring, From: -1 << 62, To: 1}}, {Lifetime: lt, Loc: Location{From: 1 << 62}}},
		{{Lifetime: lt, Queue: maxQueueSpan}, {Lifetime: lt}},
	} {
		if err := (&Allocation{II: 2, Assignments: as}).Verify(context.Background()); err == nil {
			t.Fatalf("Verify accepted %v", as)
		}
	}
}

// TestGroupByQueueMatchesStableSort: on random subsets of corrupted
// allocations' assignments, in random order, GroupByQueue gives the order
// a stable comparison sort on (kind, from, to, queue) gives, into a
// separate destination and in place.
func TestGroupByQueueMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for trial := 0; trial < 300; trial++ {
		a := corrupt(allocate(t, randomSchedule(rng)), rng)
		as := a.Assignments
		idx := make([]int32, 0, len(as))
		for _, i := range rng.Perm(len(as)) {
			if rng.Intn(3) != 0 {
				idx = append(idx, int32(i))
			}
		}
		want := slices.Clone(idx)
		slices.SortStableFunc(want, func(i, j int32) int { return compareQueues(&as[i], &as[j]) })
		dst := make([]int32, len(idx))
		if err := GroupByQueue(as, idx, dst); err != nil || !slices.Equal(dst, want) {
			t.Fatalf("trial %d: GroupByQueue = %v, %v; stable sort %v", trial, dst, err, want)
		}
		if err := GroupByQueue(as, idx, idx); err != nil || !slices.Equal(idx, want) {
			t.Fatalf("trial %d: in place, GroupByQueue = %v, %v; stable sort %v", trial, idx, err, want)
		}
	}
}

// FuzzAllocateDifferential runs checkAllocate on a script schedule
// (scriptSchedule) with an II of 1-4096, 1-64 clusters and a comm latency
// of 0-3, then requires Verify to agree with the reference on one
// corrupted copy. Nightly fuzz.yml runs this target; crashers land in
// testdata/fuzz and are committed as regression seeds.
func FuzzAllocateDifferential(f *testing.F) {
	f.Add(uint16(3), uint8(0), uint8(0), int64(1), []byte{0x01, 5, 0, 0, 0, 1, 0x03, 6, 0, 0, 0, 0, 0x22, 7, 0, 0, 1, 3})
	f.Add(uint16(199), uint8(3), uint8(1), int64(2), []byte{0x04, 200, 3, 1, 0, 0, 0x05, 10, 0, 2, 0, 1, 0x41, 90, 1, 3, 1, 5, 0x02, 0, 0, 0, 2, 7})
	f.Add(uint16(4095), uint8(63), uint8(2), int64(3), []byte{0x07, 255, 255, 63, 0, 1, 0xe1, 0, 0, 0, 0, 1, 0x01, 1, 0, 62, 1, 1})
	f.Fuzz(func(t *testing.T, iiRaw uint16, ncRaw, commRaw uint8, fault int64, script []byte) {
		ii := 1 + int(iiRaw)%4096
		nc := 1 + int(ncRaw)%machine.MaxClusters
		s := scriptSchedule(ii, nc, int(commRaw)%4, script)
		a := checkAllocate(t, "fuzz", s)
		b := corrupt(a, rand.New(rand.NewSource(fault)))
		got, want := b.Verify(context.Background()), verifyRef(b)
		if (got == nil) != (want == nil) || got != nil && got.Error() != want.Error() {
			t.Fatalf("Verify = %v, reference %v", got, want)
		}
	})
}
