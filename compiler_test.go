package vliwq_test

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"vliwq"
	"vliwq/internal/corpus"
)

// TestCompilerRunMatchesCompile is the acceptance contract of the
// request-centric redesign, checked at both boundaries. Byte identity: a
// request's Run output must equal Compile fed the same request text (the
// historical service path — parse the wire loop, compile it), down to the
// kernel table. Semantic identity: against Compile on the original
// in-memory loop, every schedule number must agree (display names may
// differ there: FormatLoop has to name anonymous ops to reference their
// dependences, which is invisible to the schedule itself).
func TestCompilerRunMatchesCompile(t *testing.T) {
	loops := corpus.Generate(corpus.Params{Seed: corpus.DefaultSeed, N: 24})
	compiler := vliwq.NewCompiler(vliwq.CompilerConfig{})
	opts := vliwq.Options{Machine: vliwq.Clustered(4), Unroll: true, SkipVerify: true}
	for _, l := range loops {
		direct, derr := vliwq.Compile(l, opts)
		req := vliwq.NewRequest(l, opts)
		res, rerr := compiler.Run(context.Background(), req)
		if (derr == nil) != (rerr == nil) {
			t.Fatalf("%s: Compile err %v, Compiler.Run err %v", l.Name, derr, rerr)
		}
		if derr != nil {
			if derr.Error() != rerr.Error() {
				t.Fatalf("%s: errors differ: %q vs %q", l.Name, derr, rerr)
			}
			continue
		}
		if res.II != direct.II || res.MII != direct.MII || res.Unrolled != direct.Unrolled ||
			res.StageCount != direct.StageCount ||
			res.Queues != direct.Queues || res.RingQueues != direct.RingQueues ||
			res.IPCStatic != direct.IPCStatic || res.IPCDynamic != direct.IPCDynamic ||
			res.Strategy != direct.Strategy {
			t.Fatalf("%s: metrics differ: Run %+v vs Compile %+v", l.Name, res, direct)
		}
		if res.Report() != direct.Report() {
			t.Fatalf("%s: reports differ:\n--- Run ---\n%s--- Compile ---\n%s", l.Name, res.Report(), direct.Report())
		}

		wireLoop, err := vliwq.ParseLoop(req.Loop)
		if err != nil {
			t.Fatalf("%s: %v", l.Name, err)
		}
		wireOpts, err := req.Options()
		if err != nil {
			t.Fatalf("%s: %v", l.Name, err)
		}
		wire, werr := vliwq.Compile(wireLoop, wireOpts)
		if werr != nil {
			t.Fatalf("%s: wire-path Compile failed: %v", l.Name, werr)
		}
		if res.Report() != wire.Report() || res.KernelSchedule() != wire.KernelSchedule() {
			t.Fatalf("%s: Run output is not byte-identical to Compile on the same request text", l.Name)
		}
	}
}

// TestRunUntilStagedArtifacts walks the cutoffs in order and checks each
// partial Result exposes exactly the artifacts and timings of the stages
// that ran.
func TestRunUntilStagedArtifacts(t *testing.T) {
	compiler := vliwq.NewCompiler(vliwq.CompilerConfig{})
	req := vliwq.Request{Loop: testLoop, Machine: "clustered:4", Unroll: true}
	ctx := context.Background()

	stagesOf := func(r *vliwq.Result) string {
		names := make([]string, len(r.Stages))
		for i, st := range r.Stages {
			names[i] = st.Stage.String()
			if st.Duration < 0 {
				t.Fatalf("stage %s has negative duration %v", st.Stage, st.Duration)
			}
		}
		return strings.Join(names, ",")
	}

	r, err := compiler.RunUntil(ctx, req, vliwq.StageUnroll)
	if err != nil {
		t.Fatal(err)
	}
	if r.AfterUnroll == nil || r.Sched != nil || r.Alloc != nil {
		t.Fatalf("after unroll: %+v", r)
	}
	if r.Unrolled < 2 {
		t.Fatalf("automatic unrolling did not replicate (factor %d)", r.Unrolled)
	}
	if len(r.AfterUnroll.Ops) != r.Unrolled*len(r.Input.Ops) {
		t.Fatalf("unrolled body has %d ops for factor %d over %d", len(r.AfterUnroll.Ops), r.Unrolled, len(r.Input.Ops))
	}
	if got := stagesOf(r); got != "unroll" {
		t.Fatalf("stages %q after unroll cutoff", got)
	}

	r, err = compiler.RunUntil(ctx, req, vliwq.StageCopies)
	if err != nil {
		t.Fatal(err)
	}
	if r.AfterCopies == nil || r.Sched != nil {
		t.Fatalf("after copies: %+v", r)
	}
	if len(r.AfterCopies.Ops) < len(r.AfterUnroll.Ops) {
		t.Fatal("copy insertion shrank the body")
	}
	if got := stagesOf(r); got != "unroll,copies" {
		t.Fatalf("stages %q after copies cutoff", got)
	}

	r, err = compiler.RunUntil(ctx, req, vliwq.StageSchedule)
	if err != nil {
		t.Fatal(err)
	}
	if r.Sched == nil || r.Alloc != nil || r.II == 0 {
		t.Fatalf("after schedule: %+v", r)
	}
	if got := stagesOf(r); got != "unroll,copies,schedule" {
		t.Fatalf("stages %q after schedule cutoff", got)
	}

	r, err = compiler.RunUntil(ctx, req, vliwq.StageAlloc)
	if err != nil {
		t.Fatal(err)
	}
	if r.Alloc == nil || r.Queues == 0 || r.IPCStatic == 0 {
		t.Fatalf("after alloc: %+v", r)
	}
	if got := stagesOf(r); got != "unroll,copies,schedule,alloc" {
		t.Fatalf("stages %q after alloc cutoff", got)
	}

	// A full verified run records all five stages; SkipVerify drops the
	// last one.
	r, err = compiler.Run(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if got := stagesOf(r); got != "unroll,copies,schedule,alloc,verify" {
		t.Fatalf("stages %q after a full run", got)
	}
	skip := req
	skip.SkipVerify = true
	r, err = compiler.Run(ctx, skip)
	if err != nil {
		t.Fatal(err)
	}
	if got := stagesOf(r); got != "unroll,copies,schedule,alloc" {
		t.Fatalf("stages %q with SkipVerify", got)
	}

	if _, err := compiler.RunUntil(ctx, req, vliwq.NumStages); err == nil {
		t.Fatal("RunUntil accepted an out-of-range stage")
	}
}

// TestDefaultSessionHonoursContext: a zero-config session compiles under
// its caller's context, so an already-cancelled context ends the compile
// before it starts, with no Result.
func TestDefaultSessionHonoursContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := vliwq.NewCompiler(vliwq.CompilerConfig{}).Run(ctx, vliwq.Request{Loop: testLoop})
	if res != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("Run under a cancelled context: result %v, err %v; want no result and context.Canceled", res, err)
	}
}

// budgetCtx is a poll-only context whose Err starts reporting
// context.Canceled after a fixed number of calls — a deterministic way to
// cancel "mid-batch": the pipeline polls Err at its stage boundaries (3
// calls per compile) and the worker-pool feeder polls once per dispatched
// item, so a budget of ~100 calls lands the cancellation a predictable
// 16–25 items into a 40-item batch, far from both ends.
type budgetCtx struct {
	context.Context
	calls  atomic.Int64
	budget int64
}

func (c *budgetCtx) Err() error {
	if c.calls.Add(1) > c.budget {
		return context.Canceled
	}
	return nil
}

// Done returns nil: pool.Run's feeder also polls Err before every
// dispatch, so channel-based cancellation is not needed for this test.
func (c *budgetCtx) Done() <-chan struct{} { return nil }

// TestRunBatchCancellationMidBatch: cancel mid-batch and assert the
// returned slice keeps len(reqs) entries, every entry is exactly one of
// result/error, completed requests keep their results (a prefix, since
// workers=1), and every unstarted request reports ctx.Err().
func TestRunBatchCancellationMidBatch(t *testing.T) {
	const n = 40
	reqs := make([]vliwq.Request, n)
	for i := range reqs {
		reqs[i] = vliwq.Request{Loop: testLoop, SkipVerify: true}
	}
	compiler := vliwq.NewCompiler(vliwq.CompilerConfig{Workers: 1})
	ctx := &budgetCtx{Context: context.Background(), budget: 100}
	out := compiler.RunBatch(ctx, reqs)
	if len(out) != n {
		t.Fatalf("batch returned %d entries for %d requests", len(out), n)
	}
	completed, cancelled := 0, 0
	for i, r := range out {
		if (r.Result != nil) == (r.Err != nil) {
			t.Fatalf("entry %d: want exactly one of result/error (%+v)", i, r)
		}
		if r.Err != nil && !errors.Is(r.Err, context.Canceled) {
			t.Fatalf("entry %d: error %v, want ctx.Err()", i, r.Err)
		}
		if r.Result == nil {
			cancelled++
			continue
		}
		if cancelled > 0 {
			t.Fatalf("entry %d completed after entry %d was cancelled (workers=1)", i, i-1)
		}
		completed++
	}
	if completed == 0 || cancelled == 0 {
		t.Fatalf("cancellation not mid-batch: %d completed, %d cancelled of %d", completed, cancelled, n)
	}
}

// TestBatchCancelledBeforeStart: an already-cancelled context yields a
// full-length slice where every entry reports ctx.Err().
func TestBatchCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rout := vliwq.NewCompiler(vliwq.CompilerConfig{}).RunBatch(ctx, []vliwq.Request{{Loop: testLoop}, {Loop: testLoop}})
	if len(rout) != 2 {
		t.Fatalf("got %d entries", len(rout))
	}
	for i, r := range rout {
		if r.Result != nil || !errors.Is(r.Err, context.Canceled) {
			t.Fatalf("request entry %d: %+v", i, r)
		}
	}
}
