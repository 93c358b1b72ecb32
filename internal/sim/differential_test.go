package sim

import (
	"context"
	"fmt"
	"maps"
	"math"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"vliwq/internal/copyins"
	"vliwq/internal/corpus"
	"vliwq/internal/ir"
	"vliwq/internal/machine"
	"vliwq/internal/queue"
	"vliwq/internal/sched"
	"vliwq/internal/unroll"
)

// diffConfig is one machine and pipeline setting the differential runs.
type diffConfig struct {
	name   string
	cfg    machine.Config
	unroll bool
	shape  copyins.Shape
	// multi marks copies off: a value with several consumers needs
	// simultaneous queue writes, which only the map oracle models (see
	// multiWriteClass). The dense simulator runs the paper's single-write
	// machine alone, so it rejects those values.
	multi bool
}

func diffConfigs() []diffConfig {
	comm := machine.Clustered(6)
	comm.CommLatency = 2
	moves := machine.Clustered(6)
	moves.AllowMoves = true
	return []diffConfig{
		{name: "single:6", cfg: machine.SingleCluster(6)},
		{name: "clustered:4+unroll", cfg: machine.Clustered(4), unroll: true},
		{name: "clustered:6/comm2", cfg: comm},
		{name: "clustered:6+moves", cfg: moves},
		{name: "single:6/copies-off", cfg: machine.SingleCluster(6), shape: copyins.None, multi: true},
	}
}

// compileFor runs the pipeline the engine runs: unroll (when asked),
// copies, schedule, allocate.
func compileFor(l *ir.Loop, dc diffConfig) (*sched.Schedule, *queue.Allocation, error) {
	work := l
	if dc.unroll {
		u, err := unroll.Unroll(l, unroll.AutoFactor(l, dc.cfg))
		if err != nil {
			return nil, nil, err
		}
		work = u
	}
	ins := copyins.Insert(work, dc.shape)
	s, err := sched.ScheduleLoop(context.Background(), ins.Loop, dc.cfg, sched.EffortFast)
	if err != nil {
		return nil, nil, err
	}
	return s, allocate(s), nil
}

// allocate runs queue.Allocate with no deadline, where it cannot fail.
func allocate(s *sched.Schedule) *queue.Allocation {
	a, err := queue.Allocate(context.Background(), s)
	if err != nil {
		panic(err)
	}
	return a
}

// diffLoops is every kernel plus every 8th standard and stressed loop.
func diffLoops() []*ir.Loop {
	loops := corpus.Kernels()
	for _, set := range [][]*ir.Loop{corpus.Standard(), corpus.Stressed()} {
		for i := 0; i < len(set); i += 8 {
			loops = append(loops, set[i])
		}
	}
	return loops
}

// verifyIters is the long replay's iteration count, the engine's before it
// stopped at the horizon: the trip count, capped at 64.
func verifyIters(s *sched.Schedule) int { return min(s.Loop.TripCount(), 64) }

// faultKind is one way to break a valid schedule or allocation.
type faultKind uint8

const (
	faultDepth1      faultKind = iota // every queue one position deep
	faultDepth2                       // every queue two positions deep
	faultSwapQueues                   // two assignments in one location trade queue indices
	faultMergeQueues                  // an assignment joins another's queue in its location
	faultSwapLocs                     // two assignments in different locations trade locations
	faultDrop                         // an assignment is removed
	faultShiftBack                    // an op issues II cycles earlier
	faultShiftAhead                   // an op issues II cycles later
	faultShiftOne                     // an op issues one cycle later
	faultStretch                      // a carried flow dependence's distance grows by 2^32
	numFaults
)

var faultNames = [numFaults]string{"depth1", "depth2", "swap-queues", "merge-queues", "swap-locs", "drop", "shift-II", "shift+II", "shift+1", "stretch"}

func (f faultKind) String() string { return faultNames[f%numFaults] }

// applyFault returns copies of s and a with the fault applied; pick chooses
// the assignment pair, assignment or op it hits. ok is false when the fault
// has no target (for example, no location holds two queues).
func applyFault(s *sched.Schedule, a *queue.Allocation, f faultKind, pick int) (*sched.Schedule, *queue.Allocation, bool) {
	s2 := *s
	s2.Time = slices.Clone(s.Time)
	s2.Machine.Clusters = slices.Clone(s.Machine.Clusters)
	a2 := *a
	a2.Assignments = slices.Clone(a.Assignments)
	as := a2.Assignments
	// pair picks the pick-th assignment pair (i < j) that ok accepts.
	pair := func(ok func(x, y *queue.Assignment) bool) (int, int, bool) {
		var pairs [][2]int
		for i := range as {
			for j := i + 1; j < len(as); j++ {
				if ok(&as[i], &as[j]) {
					pairs = append(pairs, [2]int{i, j})
				}
			}
		}
		if len(pairs) == 0 {
			return 0, 0, false
		}
		p := pairs[pick%len(pairs)]
		return p[0], p[1], true
	}
	sameLocOtherQueue := func(x, y *queue.Assignment) bool { return x.Loc == y.Loc && x.Queue != y.Queue }
	switch f % numFaults {
	case faultDepth1, faultDepth2:
		for i := range s2.Machine.Clusters {
			s2.Machine.Clusters[i].QueueDepth = int(f%numFaults-faultDepth1) + 1
		}
	case faultSwapQueues:
		i, j, ok := pair(sameLocOtherQueue)
		if !ok {
			return nil, nil, false
		}
		as[i].Queue, as[j].Queue = as[j].Queue, as[i].Queue
	case faultMergeQueues:
		i, j, ok := pair(sameLocOtherQueue)
		if !ok {
			return nil, nil, false
		}
		as[j].Queue = as[i].Queue
	case faultSwapLocs:
		i, j, ok := pair(func(x, y *queue.Assignment) bool { return x.Loc != y.Loc })
		if !ok {
			return nil, nil, false
		}
		as[i].Loc, as[j].Loc = as[j].Loc, as[i].Loc
	case faultDrop:
		if len(as) == 0 {
			return nil, nil, false
		}
		a2.Assignments = slices.Delete(as, pick%len(as), pick%len(as)+1)
	case faultShiftBack, faultShiftAhead, faultShiftOne:
		delta := map[faultKind]int{faultShiftBack: -s.II, faultShiftAhead: s.II, faultShiftOne: 1}[f%numFaults]
		s2.Time[pick%len(s2.Time)] += delta
	case faultStretch:
		// The schedule stays valid (the dependence only loosens), but the
		// allocation was made for the old distance, and the live-in writes
		// move 2^32*II cycles earlier.
		var carried []int
		for di, d := range s.Loop.Deps {
			if d.Kind == ir.Flow && d.Dist > 0 {
				carried = append(carried, di)
			}
		}
		if len(carried) == 0 {
			return nil, nil, false
		}
		s2.Loop = s.Loop.Clone()
		s2.Loop.Deps[carried[pick%len(carried)]].Dist += 1 << 32
	}
	return &s2, &a2, true
}

// errClasses maps an error to the check that raised it, by a fragment of
// its message. Order matters only where fragments could overlap.
var errClasses = []struct{ class, frag string }{
	{"fanout", "simultaneous writes"},
	{"no-queue", "has no queue assignment"},
	{"write-port", "write-port conflict"},
	{"before-compute", "before it was computed"},
	{"fu", "ops than units"},
	{"read-port", "read-port conflict"},
	{"empty-pop", "pops empty"},
	{"fifo-tag", "Q-compatibility violated"},
	{"depth", "exceeds depth"},
	{"drain", "after drain"},
	{"store", "sim: store"},
	{"alloc-verify", "holds incompatible lifetimes"},
	{"sched-verify", "sched: "},
}

func errClass(err error) string {
	if err == nil {
		return "ok"
	}
	for _, c := range errClasses {
		if strings.Contains(err.Error(), c.frag) {
			return c.class
		}
	}
	return "other: " + err.Error()
}

// tieBroken lists the classes whose map-based check names whichever
// offending queue or store the map yields first; for them only the class
// and (for depth) the cycle must match. Every other oracle message is
// deterministic and must match byte for byte.
var tieBroken = map[string]bool{"depth": true, "drain": true, "store": true, "alloc-verify": true}

// sameFailure reports a disagreement between the dense result got and the
// oracle's want, and returns the shared verdict class.
func sameFailure(t testing.TB, label string, got, want error) string {
	t.Helper()
	gc, wc := errClass(got), errClass(want)
	switch {
	case gc != wc:
		t.Errorf("%s: dense %q (%v), oracle %q (%v)", label, gc, got, wc, want)
		return "disagree"
	case got == nil:
	case !tieBroken[gc] && got.Error() != want.Error():
		t.Errorf("%s: messages differ:\n dense  %v\n oracle %v", label, got, want)
	case gc == "depth" && cyclePrefix(got) != cyclePrefix(want):
		t.Errorf("%s: depth limit broken in different cycles:\n dense  %v\n oracle %v", label, got, want)
	}
	return gc
}

// cyclePrefix is the "sim: cycle N:" head of a per-cycle error.
func cyclePrefix(err error) string {
	msg := err.Error()
	if i := strings.Index(msg[len("sim: "):], ":"); i >= 0 {
		return msg[:len("sim: ")+i]
	}
	return msg
}

// denseStores is every store instance of an n-iteration run, read from
// the values it left in [op*n+k] order and keyed as the oracles key them.
func denseStores(l *ir.Loop, n int, vals []int64) map[StoreKey]int64 {
	stores := map[StoreKey]int64{}
	for id, op := range l.Ops {
		if op.Kind != ir.KStore {
			continue
		}
		for k := 0; k < n; k++ {
			stores[StoreKey{op.EffID(), l.OrigIter(op, k)}] = vals[id*n+k]
		}
	}
	return stores
}

// diffRun runs the dense code and its oracles on one input and reports
// every disagreement: the two checks Pipelined starts with, the pipelined
// run itself (verdict, error class, and Cycles, Issues, MaxDepth and every
// store instance when both pass) and VerifyPipeline against the oracle
// reference's stores. It returns the pipelined run's verdict class.
func diffRun(t testing.TB, label string, s *sched.Schedule, a *queue.Allocation, n int) string {
	t.Helper()
	if got, want := s.Verify(), oracleScheduleVerify(s); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("%s: Schedule.Verify = %v, map version %v", label, got, want)
	}
	sameFailure(t, label+": Allocation.Verify", a.Verify(context.Background()), oracleAllocVerify(a))
	var got PipeResult
	vals, gerr := new(scratch).pipelined(context.Background(), s, a, n, &got)
	want, wantStores, werr := oraclePipelined(s, a, n, false)
	class := sameFailure(t, label+": Pipelined", gerr, werr)
	if gerr == nil && werr == nil {
		if got != *want {
			t.Errorf("%s: dense cycles/issues/depth %d/%d/%d, oracle %d/%d/%d", label,
				got.Cycles, got.Issues, got.MaxDepth, want.Cycles, want.Issues, want.MaxDepth)
		}
		if gotStores := denseStores(s.Loop, n, vals); !maps.Equal(gotStores, wantStores) {
			t.Errorf("%s: stores differ (%d dense, %d oracle)", label, len(gotStores), len(wantStores))
		}
	}
	// The map-based VerifyPipeline: reference, then the pipelined run
	// above, then CompareStores over both stores maps.
	ref, verr := oracleReference(s.Loop, n)
	if verr == nil {
		verr = werr
	}
	if verr == nil {
		verr = CompareStores(ref.Stores, wantStores, false)
	}
	sameFailure(t, label+": VerifyPipeline", VerifyPipeline(context.Background(), s, a, n), verr)
	return class
}

// multiWriteClass is the verdict class of an n-iteration replay with copies
// off: the map oracle, with simultaneous writes allowed, and then its
// stores against Reference's. The dense simulator models only the
// single-write machine, so this independent run is what executes the
// allocations Fig. 3's "without" rows count.
func multiWriteClass(s *sched.Schedule, a *queue.Allocation, n int) string {
	_, stores, err := oraclePipelined(s, a, n, true)
	if err == nil {
		var ref *Ref
		if ref, err = Reference(s.Loop, n); err == nil {
			err = CompareStores(ref.Stores, stores, false)
		}
	}
	return errClass(err)
}

// TestPipelinedDifferential pins the dense simulator and checks to their
// map-based oracles on every kernel plus every 8th standard and stressed
// loop, under five configurations, clean and with every fault kind. With
// copies off, a clean compile must also pass the multi-write oracle. The
// nightly FuzzPipelinedDifferential explores further.
func TestPipelinedDifferential(t *testing.T) {
	loops := diffLoops()
	for _, dc := range diffConfigs() {
		t.Run(dc.name, func(t *testing.T) {
			t.Parallel()
			classes := map[string]int{}
			for li, l := range loops {
				s, a, err := compileFor(l, dc)
				if err != nil {
					continue
				}
				n := verifyIters(s)
				if dc.multi {
					if c := multiWriteClass(s, a, n); c != "ok" {
						t.Errorf("%s: valid compile fails on the multi-write oracle: %s", l.Name, c)
					}
					// On the single-write machine, every value with two
					// consumers must fail the fanout check on both sides.
					classes[diffRun(t, l.Name+"/single-write", s, a, n)]++
				} else if c := diffRun(t, l.Name, s, a, n); c != "ok" {
					t.Errorf("%s: valid compile fails: %s", l.Name, c)
				}
				for f := faultKind(0); f < numFaults; f++ {
					fs, fa, ok := applyFault(s, a, f, li)
					if !ok {
						continue
					}
					classes[diffRun(t, fmt.Sprintf("%s/%v", l.Name, f), fs, fa, n)]++
				}
				if t.Failed() {
					t.FailNow()
				}
			}
			t.Logf("%d loops; verdicts of faulted and single-write runs: %s", len(loops), tally(classes))
		})
	}
}

// handBuilt is a one-cluster machine with four units per class, unbounded
// queues, and a schedule of the given loop at the given II and times.
func handBuilt(l *ir.Loop, ii int, times ...int) *sched.Schedule {
	cfg := machine.SingleCluster(6)
	cfg.Clusters[0].FUs = [machine.NumClasses]int{4, 4, 4, 4}
	return &sched.Schedule{Loop: l, Machine: cfg, II: ii, Time: times, Cluster: make([]int, len(times))}
}

// twoLongLifetimes is two independent load -> store chains whose values
// wait three cycles in two queues: with depth-1 queues both overflow in
// the same cycle.
func twoLongLifetimes() (*sched.Schedule, *queue.Allocation) {
	l := ir.New("two-long")
	a, b := l.AddOp(ir.KLoad, "a"), l.AddOp(ir.KLoad, "b")
	sa, sb := l.AddOp(ir.KStore, "sa"), l.AddOp(ir.KStore, "sb")
	l.AddFlow(a, sa)
	l.AddFlow(b, sb)
	l.Trip = 8
	s := handBuilt(l, 1, 0, 0, 5, 5)
	s.Machine.Clusters[0].QueueDepth = 1
	return s, allocate(s)
}

// TestFailureMessagesDeterministic: where several queues break a check at
// once, the dense checks name the same one on every run. Their map-based
// versions named whichever queue the map yielded first, so one input could
// fail with different text from run to run — and the compile cache stores
// errors on the assumption that compilation is deterministic.
func TestFailureMessagesDeterministic(t *testing.T) {
	once := func(t *testing.T, what string, run func() error) {
		t.Helper()
		seen := map[string]bool{}
		for i := 0; i < 50; i++ {
			err := run()
			if err == nil {
				t.Fatalf("%s: expected a failure", what)
			}
			seen[err.Error()] = true
		}
		if len(seen) != 1 {
			t.Fatalf("%s: %d different messages over 50 runs: %v", what, len(seen), seen)
		}
	}

	t.Run("depth", func(t *testing.T) {
		s, a := twoLongLifetimes()
		if len(a.Files) != 1 || a.Files[0].Queues != 2 {
			t.Fatalf("want two queues in one file, got %+v", a.Files)
		}
		once(t, "depth", func() error {
			_, err := Pipelined(s, a, PipeOptions{})
			return err
		})
		_, err := Pipelined(s, a, PipeOptions{})
		if want := "sim: cycle 3: qrf0 queue 0 exceeds depth 1"; err.Error() != want {
			t.Fatalf("got %q, want %q", err, want)
		}
	})

	t.Run("drain", func(t *testing.T) {
		// No input reaches the drain check through Pipelined (see
		// TestErrorClassesByHand), so this drives it on queue state
		// directly: two queues still holding values.
		qs := []fifo{
			{loc: queue.Location{Kind: queue.Private}, q: 0, head: 0, tail: 1},
			{loc: queue.Location{Kind: queue.Private}, q: 1, head: 4, tail: 6},
		}
		once(t, "drain", func() error { return drained(qs) })
		if err, want := drained(qs), "sim: qrf0 queue 0 still holds 1 values after drain"; err.Error() != want {
			t.Fatalf("got %q, want %q", err, want)
		}
	})

	t.Run("alloc-verify", func(t *testing.T) {
		// Two queues of one file each hold two lifetimes written in the
		// same cycle, which no FIFO can share.
		lt := func(di, start, end int) queue.Lifetime {
			return queue.Lifetime{DepIndex: di, Start: start, End: end}
		}
		loc := queue.Location{Kind: queue.Private}
		a := &queue.Allocation{II: 4, Assignments: []queue.Assignment{
			{Lifetime: lt(0, 1, 3), Loc: loc, Queue: 1},
			{Lifetime: lt(1, 1, 2), Loc: loc, Queue: 1},
			{Lifetime: lt(2, 2, 3), Loc: loc, Queue: 0},
			{Lifetime: lt(3, 2, 5), Loc: loc, Queue: 0},
		}}
		once(t, "Allocation.Verify", func() error { return a.Verify(context.Background()) })
		if err, want := a.Verify(context.Background()), "queue: qrf0 queue 0 holds incompatible lifetimes"; err.Error() != want {
			t.Fatalf("got %q, want %q", err, want)
		}
	})
}

// TestErrorClassesByHand covers the simulator errors fault injection never
// reaches, each on both simulators. Three cannot be reached at all once
// Pipelined's opening Schedule.Verify passes; the comments at the end give
// the reason instead of a case.
func TestErrorClassesByHand(t *testing.T) {
	both := func(t *testing.T, s *sched.Schedule, a *queue.Allocation, class string) {
		t.Helper()
		_, gerr := Pipelined(s, a, PipeOptions{N: 6})
		_, _, werr := oraclePipelined(s, a, 6, false)
		if got := sameFailure(t, class, gerr, werr); got != class {
			t.Fatalf("want class %s, got %s (%v)", class, got, gerr)
		}
	}

	t.Run("no-queue", func(t *testing.T) {
		s, a, err := compileFor(corpus.Daxpy(), diffConfigs()[0])
		if err != nil {
			t.Fatal(err)
		}
		s, a, _ = applyFault(s, a, faultDrop, 1)
		both(t, s, a, "no-queue")
	})

	t.Run("before-compute", func(t *testing.T) {
		// A negative distance (which Loop.Validate rejects, but the
		// simulators take as given) asks for a producer iteration beyond
		// the last one issued.
		l := ir.New("ahead")
		ld, st := l.AddOp(ir.KLoad, "ld"), l.AddOp(ir.KStore, "st")
		l.AddDep(ir.Dep{From: ld.ID, To: st.ID, Dist: -1, Kind: ir.Flow})
		s := handBuilt(l, 1, 0, 3)
		both(t, s, allocate(s), "before-compute")
	})

	// empty-pop: unreachable once Schedule.Verify passes. Let dependence
	// d's consumer instance k pop queue Q at cycle t. d wrote the value it
	// wants, tagged (from, k-Dist), into Q at
	// Time[from]+lat+comm+(k-Dist)*II <= t (d's dependence constraint;
	// writes run before issues within a cycle). Every earlier pop that took
	// a value with that tag passed its tag check, so it was made for a
	// dependence of Q with the same producer wanting that same iteration;
	// each such dependence pops the tag once, and wrote its own copy into Q
	// no later than it popped. So Q has received more copies of the tag
	// than it has given up, and is not empty.
	//
	// fu: unreachable once Schedule.Verify passes. An op issues at most one
	// instance per cycle, in the cycles congruent to its Time modulo II, so
	// the ops issuing on a cluster's class at cycle t are a subset of the
	// ops Schedule.Verify counted in row t mod II, which it bounds by the
	// same unit count.
	//
	// drain: unreachable always. Each flow dependence writes exactly n
	// values into its queue and its consumer pops exactly n, every write
	// and pop of the run happens unless an error stops it first, and a pop
	// either takes one value or fails. A queue's writes therefore equal
	// its pops at the end of any run that completes.
	// TestFailureMessagesDeterministic drives the check directly.
}

// TestDifferentialNegativeStart: a dependence of distance d writes its
// first d live-in values d*II cycles before the producer's first result, so
// here the run starts at cycle -1 and Cycles must count from there, as the
// oracle does.
func TestDifferentialNegativeStart(t *testing.T) {
	l := ir.New("early")
	ld := l.AddOp(ir.KLoad, "ld")
	add := l.AddOp(ir.KAdd, "acc")
	st := l.AddOp(ir.KStore, "st")
	cp := l.AddOp(ir.KCopy, "cp")
	l.AddFlow(ld, add)
	l.AddFlow(add, cp)
	l.AddFlow(cp, st)
	l.AddCarried(cp, add, 3) // cp finishes at 5, minus 3*II = -1
	s := handBuilt(l, 2, 0, 2, 5, 4)
	a := allocate(s)
	got, err := Pipelined(s, a, PipeOptions{N: 7})
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := oraclePipelined(s, a, 7, false)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cycles != want.Cycles {
		t.Fatalf("Cycles = %d, oracle %d", got.Cycles, want.Cycles)
	}
	// Events span cycle -1 (the first live-in write) to the last store
	// issue at 5+6*2 = 17.
	if want.Cycles != 19 {
		t.Fatalf("oracle Cycles = %d, want 19", want.Cycles)
	}
}

// TestDifferentialLongCarry: a carried distance d puts a dependence's
// live-in writes d*II cycles before the loop body, with no event in
// between, and a request may name any distance. The run must not step
// through that span, and must tag producer iterations far below the int32
// range exactly, so both simulators and the reference still agree.
func TestDifferentialLongCarry(t *testing.T) {
	carry := func(dist int) *ir.Loop {
		l := ir.New(fmt.Sprintf("carry%d", dist))
		ld := l.AddOp(ir.KLoad, "ld")
		acc := l.AddOp(ir.KAdd, "acc")
		st := l.AddOp(ir.KStore, "st")
		l.AddFlow(ld, acc)
		l.AddFlow(acc, st)
		l.AddCarried(acc, acc, dist)
		return l
	}
	for _, dist := range []int{3_000_000_007, 1 << 40} {
		for _, dc := range diffConfigs()[:3] {
			label := fmt.Sprintf("dist %d on %s", dist, dc.name)
			s, a, err := compileFor(carry(dist), dc)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			n := verifyIters(s)
			// Walking every cycle of the span would take minutes at the
			// smaller distance and days at the larger one.
			type outcome struct {
				res *PipeResult
				err error
			}
			done := make(chan outcome, 1)
			go func() {
				res, err := Pipelined(s, a, PipeOptions{N: n})
				done <- outcome{res, err}
			}()
			select {
			case o := <-done:
				if o.err != nil {
					t.Fatalf("%s: %v", label, o.err)
				}
				if o.res.Cycles <= dist {
					t.Fatalf("%s: Cycles = %d, want more than the distance", label, o.res.Cycles)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("%s: Pipelined still running after 10s", label)
			}
			if c := diffRun(t, label, s, a, n); c != "ok" {
				t.Fatalf("%s: valid compile fails: %s", label, c)
			}
		}
	}

	// Past maxCarry the cycles of the run no longer fit an int, where the
	// map simulator wraps them around, so the dense one refuses the input
	// and Horizon saturates.
	s, a, err := compileFor(carry(math.MaxInt), diffConfigs()[0])
	if err != nil {
		t.Fatal(err)
	}
	_, err = Pipelined(s, a, PipeOptions{N: verifyIters(s)})
	if err == nil || !strings.Contains(err.Error(), "beyond the simulated cycle range") {
		t.Fatalf("distance MaxInt: got %v, want a cycle range error", err)
	}
	if h := Horizon(s); h != math.MaxInt {
		t.Fatalf("distance MaxInt: Horizon = %d, want math.MaxInt", h)
	}
}

// tally renders verdict counts in class order.
func tally(classes map[string]int) string {
	names := make([]string, 0, len(classes))
	for c := range classes {
		names = append(names, c)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, c := range names {
		fmt.Fprintf(&b, "%s=%d ", c, classes[c])
	}
	return strings.TrimSpace(b.String())
}
