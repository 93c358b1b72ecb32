package vliwq_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"vliwq"
	"vliwq/internal/copyins"
	"vliwq/internal/corpus"
	"vliwq/internal/ir"
)

const testLoop = `
loop fir2
trip 100
op c0 load
op x0 load
op c1 load
op x1 load
op m0 mul c0 x0
op m1 mul c1 x1
op s  add m0 m1
op st store s
`

func TestCompileQuickstart(t *testing.T) {
	loop, err := vliwq.ParseLoop(testLoop)
	if err != nil {
		t.Fatal(err)
	}
	res, err := vliwq.Compile(loop, vliwq.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.II < res.Sched.ResMII {
		t.Fatalf("II=%d below ResMII=%d", res.II, res.Sched.ResMII)
	}
	if res.IPCStatic <= 0 || res.IPCDynamic <= 0 {
		t.Fatal("nonpositive IPC")
	}
	if res.Queues < 1 {
		t.Fatal("no queues allocated")
	}
	rep := res.Report()
	for _, frag := range []string{"fir2", "II=", "IPC"} {
		if !strings.Contains(rep, frag) {
			t.Fatalf("report missing %q:\n%s", frag, rep)
		}
	}
	if res.KernelSchedule() == "" {
		t.Fatal("empty kernel schedule")
	}
}

func TestCompileClusteredVerified(t *testing.T) {
	// Compile runs the cycle-accurate verification by default; a passing
	// compile is a machine-checked end-to-end run.
	for _, k := range []string{"hydro", "complexmul", "wave2"} {
		loop := corpus.KernelByName(k)
		res, err := vliwq.Compile(loop, vliwq.Options{Machine: vliwq.Clustered(4), Unroll: true})
		if err != nil {
			t.Fatalf("%s: %v", k, err)
		}
		if res.RingQueues < 0 {
			t.Fatalf("%s: bad ring usage", k)
		}
	}
}

// TestCompileWidestRing compiles every hand-written kernel on the widest
// ring ParseMachine accepts, where the scheduler's packed cluster masks
// use bit 63 and an all-ones cluster mask, at every effort with the
// simulator verification on.
func TestCompileWidestRing(t *testing.T) {
	m, err := vliwq.ParseMachine("clustered:64")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []vliwq.Effort{vliwq.EffortFast, vliwq.EffortBalanced, vliwq.EffortExhaustive, vliwq.EffortOptimal} {
		for _, k := range corpus.Kernels() {
			if _, err := vliwq.Compile(k, vliwq.Options{Machine: m, Effort: e}); err != nil {
				t.Errorf("%s at effort %s on %s: %v", k.Name, e, m.Name, err)
			}
		}
	}
}

func TestCompileOptionsValidation(t *testing.T) {
	if _, err := vliwq.Compile(nil, vliwq.Options{}); err == nil {
		t.Fatal("nil loop accepted")
	}
	bad, err := vliwq.ParseLoop("loop x\nop a add\nop st store a")
	if err != nil {
		t.Fatal(err)
	}
	// Forced factor 1 is invalid (must be >= 2 or use Unroll).
	if _, err := vliwq.Compile(bad, vliwq.Options{UnrollFactor: 1}); err != nil {
		t.Fatalf("factor 1 should be treated as no unrolling: %v", err)
	}
}

// TestCompileRejectsInvalidLoops: the engine's entry check is the one
// validation a hand-built loop gets before unrolling, copy insertion and
// scheduling, so every ir validation error must surface from Compile,
// with and without unrolling.
func TestCompileRejectsInvalidLoops(t *testing.T) {
	chain := func() *ir.Loop {
		l := ir.New("chain")
		a := l.AddOp(ir.KLoad, "a")
		b := l.AddOp(ir.KMul, "b")
		l.AddFlow(a, b)
		l.AddFlow(l.AddOp(ir.KLoad, "x"), b)
		l.AddFlow(b, l.AddOp(ir.KStore, "c"))
		return l
	}
	cases := []struct {
		name string
		mut  func(*ir.Loop)
		want error
	}{
		{"empty", func(l *ir.Loop) { l.Ops, l.Deps = nil, nil }, ir.ErrEmptyLoop},
		{"misnumbered", func(l *ir.Loop) { l.Ops[1] = &ir.Op{ID: 7, Kind: ir.KMul} }, ir.ErrMisnumberedOps},
		{"bad-kind", func(l *ir.Loop) { l.Ops[0] = &ir.Op{ID: 0, Kind: ir.KInvalid} }, ir.ErrBadKind},
		{"bad-dep-target", func(l *ir.Loop) { l.Deps[0].To = 99 }, ir.ErrBadOpID},
		{"negative-dist", func(l *ir.Loop) { l.Deps[0].Dist = -1 }, ir.ErrNegativeDist},
		{"self-dep", func(l *ir.Loop) { l.AddDep(ir.Dep{From: 1, To: 1, Kind: ir.Flow}) }, ir.ErrSelfDep},
		{"store-produces", func(l *ir.Loop) { l.AddDep(ir.Dep{From: 3, To: 1, Dist: 1, Kind: ir.Flow}) }, ir.ErrStoreProduces},
		{"too-many-inputs", func(l *ir.Loop) { l.AddFlow(l.AddOp(ir.KLoad, "y"), l.Ops[1]) }, ir.ErrTooManyInputs},
		{"zero-dist-cycle", func(l *ir.Loop) { l.AddDep(ir.Dep{From: 1, To: 0, Kind: ir.Order}) }, ir.ErrZeroDistCycle},
	}
	for _, c := range cases {
		for _, opts := range []vliwq.Options{{}, {Machine: vliwq.Clustered(4), UnrollFactor: 4}} {
			l := chain()
			c.mut(l)
			if _, err := vliwq.Compile(l, opts); !errors.Is(err, c.want) {
				t.Errorf("%s (unroll factor %d): Compile error %v, want %v", c.name, opts.UnrollFactor, err, c.want)
			}
		}
	}
}

func TestCompileUnrollFactorApplied(t *testing.T) {
	loop := corpus.KernelByName("stencil3")
	res, err := vliwq.Compile(loop, vliwq.Options{Machine: vliwq.SingleCluster(6), UnrollFactor: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Unrolled != 2 {
		t.Fatalf("unroll factor %d, want 2", res.Unrolled)
	}
	if len(res.Sched.Loop.Ops) < 2*len(loop.Ops) {
		t.Fatal("unrolled body too small")
	}
}

func TestCompileSkipVerify(t *testing.T) {
	loop := corpus.KernelByName("daxpy")
	res, err := vliwq.Compile(loop, vliwq.Options{SkipVerify: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.II < 1 {
		t.Fatal("bad II")
	}
}

// TestCompileLongCarriedDistance: the loop text lets a value be carried any
// number of iterations. A distance past the int32 range compiles and
// verifies like a short one, well inside a time bound: no stage, the
// simulator included, may step through the d*II cycles its live-in values
// wait.
func TestCompileLongCarriedDistance(t *testing.T) {
	for _, dist := range []int{3, 3_000_000_007} {
		loop, err := vliwq.ParseLoop(fmt.Sprintf("loop far\ntrip 100\nop ld load\nop acc add ld\nop st store acc\ncarried acc acc %d\n", dist))
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() {
			_, err := vliwq.Compile(loop, vliwq.Options{Machine: vliwq.Clustered(4), Unroll: true})
			done <- err
		}()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("distance %d: %v", dist, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("distance %d: compile still running after 10s", dist)
		}
	}
}

// TestCopyShapeNone: the copies-off shape the experiment sweeps use
// compiles a multi-consumer loop with no copy operation, through the
// engine's schedule and allocation checks (the simulator would reject the
// simultaneous writes, so verification is skipped), and stays off the wire.
func TestCopyShapeNone(t *testing.T) {
	loop, err := vliwq.ParseLoop("loop fan\ntrip 32\nop a load\nop b load\nop m mul a b\nop s add a m\nop u add b m\nop st store s\nop su store u")
	if err != nil {
		t.Fatal(err)
	}
	copies := func(shape copyins.Shape) int {
		t.Helper()
		res, err := vliwq.Compile(loop, vliwq.Options{Machine: vliwq.Clustered(2), CopyShape: shape, SkipVerify: true})
		if err != nil {
			t.Fatalf("%v: %v", shape, err)
		}
		if err := res.Sched.Verify(); err != nil {
			t.Fatalf("%v: %v", shape, err)
		}
		if err := res.Alloc.Verify(context.Background()); err != nil {
			t.Fatalf("%v: %v", shape, err)
		}
		n := 0
		for _, op := range res.Sched.Loop.Ops {
			if op.Kind == ir.KCopy {
				n++
			}
		}
		return n
	}
	if n := copies(copyins.Tree); n == 0 {
		t.Fatal("tree shape inserted no copies: the loop has no multi-consumer value")
	}
	if n := copies(copyins.None); n != 0 {
		t.Fatalf("copies-off compile carries %d copy ops", n)
	}
	req := vliwq.Request{Loop: testLoop, CopyShape: "none"}
	if err := req.Normalize(); err == nil {
		t.Fatal(`Normalize accepted copy_shape "none"`)
	}
}

func TestReadLoop(t *testing.T) {
	l, err := vliwq.ReadLoop(strings.NewReader(testLoop))
	if err != nil {
		t.Fatal(err)
	}
	if l.Name != "fir2" || len(l.Ops) != 8 {
		t.Fatalf("parsed %s with %d ops", l.Name, len(l.Ops))
	}
}

func TestParseMachine(t *testing.T) {
	tests := []struct {
		spec     string
		clusters int
		wantErr  bool
	}{
		{"single:6", 1, false},
		{"clustered:4", 4, false},
		{"single:0", 0, true},
		{"single:x", 0, true},
		{"torus:4", 0, true},
		{"single", 0, true},
		// Sizes are bounded so a hostile spec cannot size allocations.
		{"clustered:500000000", 0, true},
		{"single:513", 0, true},
		{"single:512", 1, false},
		// A ring is capped at machine.MaxClusters, below the FU cap.
		{"clustered:64", 64, false},
		{"clustered:65", 0, true},
		{"clustered:512", 0, true},
	}
	for _, tt := range tests {
		m, err := vliwq.ParseMachine(tt.spec)
		if (err != nil) != tt.wantErr {
			t.Errorf("ParseMachine(%q) err = %v, wantErr %t", tt.spec, err, tt.wantErr)
			continue
		}
		if err == nil && m.NumClusters() != tt.clusters {
			t.Errorf("ParseMachine(%q) = %d clusters, want %d", tt.spec, m.NumClusters(), tt.clusters)
		}
	}
}

func TestFormatLoopRoundTrips(t *testing.T) {
	loop := corpus.KernelByName("daxpy")
	back, err := vliwq.ParseLoop(vliwq.FormatLoop(loop))
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != loop.Name || len(back.Ops) != len(loop.Ops) {
		t.Fatalf("round trip changed the loop: %s/%d ops vs %s/%d ops",
			back.Name, len(back.Ops), loop.Name, len(loop.Ops))
	}
}

// TestRunBatchMatchesRun is the batch API's ordering and fidelity
// contract: results arrive at the index of their request and are identical
// to one-at-a-time Run calls.
func TestRunBatchMatchesRun(t *testing.T) {
	loops := corpus.Generate(corpus.Params{Seed: 5, N: 12})
	opts := vliwq.Options{Machine: vliwq.Clustered(4), Unroll: true, SkipVerify: true}
	reqs := make([]vliwq.Request, len(loops))
	for i, l := range loops {
		reqs[i] = vliwq.NewRequest(l, opts)
	}
	got := vliwq.NewCompiler(vliwq.CompilerConfig{Workers: 4}).RunBatch(context.Background(), reqs)
	if len(got) != len(reqs) {
		t.Fatalf("batch returned %d results for %d requests", len(got), len(reqs))
	}
	single := vliwq.NewCompiler(vliwq.CompilerConfig{})
	for i, l := range loops {
		want, wantErr := single.Run(context.Background(), reqs[i])
		if (got[i].Err != nil) != (wantErr != nil) {
			t.Fatalf("request %d: batch err %v, direct err %v", i, got[i].Err, wantErr)
		}
		if wantErr != nil {
			continue
		}
		if got[i].Result.Input.Name != l.Name {
			t.Fatalf("request %d: result is for loop %s, want %s", i, got[i].Result.Input.Name, l.Name)
		}
		if got[i].Result.Report() != want.Report() || got[i].Result.KernelSchedule() != want.KernelSchedule() {
			t.Fatalf("request %d: batch output differs from a direct run:\n%s\nvs\n%s",
				i, got[i].Result.Report(), want.Report())
		}
	}
}

func TestRunBatchEmptyAndWorkerClamp(t *testing.T) {
	if out := vliwq.NewCompiler(vliwq.CompilerConfig{Workers: 4}).RunBatch(context.Background(), nil); len(out) != 0 {
		t.Fatalf("empty batch returned %d results", len(out))
	}
	// More workers than requests must not deadlock or drop results.
	req := vliwq.NewRequest(corpus.KernelByName("daxpy"), vliwq.Options{SkipVerify: true})
	out := vliwq.NewCompiler(vliwq.CompilerConfig{Workers: 64}).RunBatch(context.Background(), []vliwq.Request{req})
	if len(out) != 1 || out[0].Err != nil || out[0].Result == nil {
		t.Fatalf("single-request batch: %+v", out)
	}
}

func TestCompileContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := vliwq.CompileContext(ctx, corpus.KernelByName("daxpy"), vliwq.Options{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// countingCtx counts Err calls and reports context.Canceled from the call
// after the first `after`.
type countingCtx struct {
	context.Context
	calls atomic.Int64
	after int64
}

func (c *countingCtx) Err() error {
	if c.calls.Add(1) > c.after {
		return context.Canceled
	}
	return nil
}

// TestCompileCancelledDuringVerification: the engine passes its context
// into verification, which checks it once per simulated window, and a
// compile cancelled mid-replay returns the context's error itself, not a
// verification failure.
func TestCompileCancelledDuringVerification(t *testing.T) {
	loop := corpus.KernelByName("daxpy")
	calls := func(opts vliwq.Options) int64 {
		ctx := &countingCtx{Context: context.Background(), after: 1 << 62}
		if _, err := vliwq.CompileContext(ctx, loop, opts); err != nil {
			t.Fatal(err)
		}
		return ctx.calls.Load()
	}
	opts := vliwq.Options{Machine: vliwq.Clustered(4)}
	before := calls(vliwq.Options{Machine: opts.Machine, SkipVerify: true})
	total := calls(opts)
	if total <= before {
		t.Fatalf("verification read the context %d times", total-before)
	}
	for after := before; after < total; after++ {
		ctx := &countingCtx{Context: context.Background(), after: after}
		res, err := vliwq.CompileContext(ctx, loop, opts)
		if res != nil || err != context.Canceled {
			t.Fatalf("cancelled at check %d of %d: res %v, err %v; want the bare context.Canceled", after+1, total, res, err)
		}
	}
}

// TestCompileCancelledDuringAllocation: the engine passes its context into
// queue allocation, which reads it before it places the first lifetime
// and once per queue it verifies, and a compile cancelled there returns
// the context's error itself, not an internal error.
func TestCompileCancelledDuringAllocation(t *testing.T) {
	req := vliwq.NewRequest(corpus.KernelByName("daxpy"), vliwq.Options{Machine: vliwq.Clustered(4)})
	compiler := vliwq.NewCompiler(vliwq.CompilerConfig{})
	calls := func(until vliwq.Stage) int64 {
		ctx := &countingCtx{Context: context.Background(), after: 1 << 62}
		if _, err := compiler.RunUntil(ctx, req, until); err != nil {
			t.Fatal(err)
		}
		return ctx.calls.Load()
	}
	// The engine reads the context once more before it allocates.
	before, total := calls(vliwq.StageSchedule), calls(vliwq.StageAlloc)
	if total <= before+1 {
		t.Fatalf("allocation read the context %d times", total-before-1)
	}
	for after := before; after < total; after++ {
		ctx := &countingCtx{Context: context.Background(), after: after}
		res, err := compiler.RunUntil(ctx, req, vliwq.StageAlloc)
		if res != nil || err != context.Canceled {
			t.Fatalf("cancelled at check %d of %d: res %v, err %v; want the bare context.Canceled", after+1, total, res, err)
		}
	}
}

// TestOptimalEffortCancellation: at Effort optimal the deadline bounds the
// proof, never the compilation. An already-expired context still produces a
// complete result — simulator-verified, since the verify stage runs — with
// the certificate flagged unproved and deadline-cut. This is the end-to-end
// half of internal/sched's TestOptimalCancellation.
func TestOptimalEffortCancellation(t *testing.T) {
	// Copy insertion raises ResMII enough that zero-latency rings leave no
	// II gap on this corpus; inter-cluster latency restores the population
	// the optimal tier exists for.
	cfg := vliwq.Clustered(6)
	cfg.CommLatency = 2
	p := corpus.StressedParams()
	p.N = 48
	exOpts := vliwq.Options{Machine: cfg, SkipVerify: true, Effort: vliwq.EffortExhaustive}
	var loop *vliwq.Loop
	for _, l := range corpus.Generate(p) {
		res, err := vliwq.Compile(l, exOpts)
		if err != nil {
			continue
		}
		if res.II > res.MII {
			loop = l
			break
		}
	}
	if loop == nil {
		t.Fatal("no exhaustive-gapped loop in the stressed slice")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := vliwq.CompileContext(ctx, loop, vliwq.Options{Machine: cfg, Effort: vliwq.EffortOptimal})
	if err != nil {
		t.Fatalf("cancelled optimal compile failed: %v", err)
	}
	if res.Bound.Optimal {
		t.Fatalf("cancelled proof claims optimality: %+v", res.Bound)
	}
	if !res.Bound.DeadlineCut {
		t.Fatalf("cancelled proof not flagged deadline-cut: %+v", res.Bound)
	}
	if res.Bound.Lower != res.MII {
		t.Fatalf("cancelled proof raised the bound: Lower=%d, MII=%d", res.Bound.Lower, res.MII)
	}
	verified := false
	for _, st := range res.Stages {
		if st.Stage == vliwq.StageVerify {
			verified = true
		}
	}
	if !verified {
		t.Fatal("verify stage did not run on the cancelled-proof incumbent")
	}
	if !strings.Contains(res.Report(), "optimal: lower-bound=") {
		t.Fatalf("report missing the certificate line:\n%s", res.Report())
	}
}
