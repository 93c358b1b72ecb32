package vliwq_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
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
		if err := res.Alloc.Verify(); err != nil {
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
		{"clustered:512", 512, false},
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
	got := vliwq.NewCompiler(vliwq.CompilerConfig{CacheEntries: -1, Workers: 4}).RunBatch(context.Background(), reqs)
	if len(got) != len(reqs) {
		t.Fatalf("batch returned %d results for %d requests", len(got), len(reqs))
	}
	single := vliwq.NewCompiler(vliwq.CompilerConfig{CacheEntries: -1})
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
	exOpts := vliwq.Options{Machine: cfg, SkipVerify: true}
	exOpts.Sched.Effort = vliwq.EffortExhaustive
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
	opts := vliwq.Options{Machine: cfg}
	opts.Sched.Effort = vliwq.EffortOptimal
	res, err := vliwq.CompileContext(ctx, loop, opts)
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
