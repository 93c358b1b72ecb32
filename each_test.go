package vliwq_test

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"vliwq"
	"vliwq/internal/copyins"
	"vliwq/internal/corpus"
	"vliwq/internal/ir"
	"vliwq/internal/machine"
)

// sweepOptions are the option sets the paper's evaluation compiles every
// loop under (internal/exp's RunAll bindings: single-cluster machines with
// and without copy operations, every machine of Figs. 8 and 9 unrolled,
// the chain shape, moves on and comm latency), then a few that run more of
// the engine: verification on, effort optimal on a latency ring and moves
// with verification.
func sweepOptions() []vliwq.Options {
	var out []vliwq.Options
	add := func(m machine.Config, unroll bool, shape copyins.Shape) {
		out = append(out, vliwq.Options{Machine: m, Unroll: unroll, CopyShape: shape, SkipVerify: true})
	}
	for _, nfu := range machine.PaperSingleClusterFUs {
		add(machine.SingleCluster(nfu), false, copyins.None)
		add(machine.SingleCluster(nfu), false, copyins.Tree)
	}
	for nfu := 4; nfu <= 18; nfu++ {
		add(machine.SingleCluster(nfu), true, copyins.Tree)
	}
	for nc := 2; nc <= 6; nc++ {
		add(machine.Clustered(nc), true, copyins.Tree)
	}
	add(machine.SingleCluster(6), false, copyins.Chain)
	for _, nc := range machine.PaperClusterCounts {
		m := machine.Clustered(nc)
		m.AllowMoves = true
		add(m, true, copyins.Tree)
	}
	for _, lat := range []int{1, 2} {
		m := machine.Clustered(4)
		m.CommLatency = lat
		add(m, true, copyins.Tree)
	}
	ring := machine.Clustered(4)
	ring.CommLatency = 2
	moves := machine.Clustered(6)
	moves.AllowMoves = true
	return append(out,
		vliwq.Options{Machine: machine.Clustered(4), Unroll: true},
		vliwq.Options{Machine: machine.SingleCluster(6), UnrollFactor: 3, CopyShape: copyins.Chain},
		vliwq.Options{Machine: ring, Effort: vliwq.EffortOptimal},
		vliwq.Options{Machine: moves, Unroll: true},
	)
}

// sameResult requires got, one CompileEach outcome, to be what want, a
// separate CompileContext call under the same options, returned: the same
// error text, or the same schedule, allocation, reports and certificate.
func sameResult(t *testing.T, label string, got, want vliwq.BatchResult) {
	t.Helper()
	if (got.Err == nil) != (want.Err == nil) || got.Err != nil && got.Err.Error() != want.Err.Error() {
		t.Fatalf("%s: CompileEach error %v, CompileContext error %v", label, got.Err, want.Err)
	}
	if got.Err != nil {
		return
	}
	g, w := got.Result, want.Result
	stages := func(r *vliwq.Result) (out []vliwq.Stage) {
		for _, st := range r.Stages {
			out = append(out, st.Stage)
		}
		return out
	}
	switch {
	case g.II != w.II || g.MII != w.MII || g.StageCount != w.StageCount || g.Unrolled != w.Unrolled:
		t.Fatalf("%s: II %d MII %d stages %d unrolled %d, want %d %d %d %d",
			label, g.II, g.MII, g.StageCount, g.Unrolled, w.II, w.MII, w.StageCount, w.Unrolled)
	case !slices.Equal(g.Sched.Time, w.Sched.Time) || !slices.Equal(g.Sched.Cluster, w.Sched.Cluster):
		t.Fatalf("%s: schedule times %v clusters %v, want %v %v", label, g.Sched.Time, g.Sched.Cluster, w.Sched.Time, w.Sched.Cluster)
	case !reflect.DeepEqual(g.Alloc.Assignments, w.Alloc.Assignments) || !reflect.DeepEqual(g.Alloc.Files, w.Alloc.Files):
		t.Fatalf("%s: allocation %+v, want %+v", label, g.Alloc, w.Alloc)
	case g.Report() != w.Report():
		t.Fatalf("%s: report\n%s\nwant\n%s", label, g.Report(), w.Report())
	case g.KernelSchedule() != w.KernelSchedule():
		t.Fatalf("%s: kernel\n%s\nwant\n%s", label, g.KernelSchedule(), w.KernelSchedule())
	case g.Bound != w.Bound || g.Strategy != w.Strategy:
		t.Fatalf("%s: bound %+v strategy %s, want %+v %s", label, g.Bound, g.Strategy, w.Bound, w.Strategy)
	case ir.FormatString(g.Sched.Loop) != ir.FormatString(w.Sched.Loop):
		t.Fatalf("%s: scheduled body differs", label)
	case ir.FormatString(g.AfterCopies) != ir.FormatString(w.AfterCopies):
		t.Fatalf("%s: body after copy insertion differs", label)
	case !slices.Equal(stages(g), stages(w)):
		t.Fatalf("%s: stages %v, want %v", label, stages(g), stages(w))
	}
}

// TestCompileEachMatchesCompileContext: over a corpus slice, the kernels
// and a loop that fails validation, every CompileEach outcome under
// sweepOptions equals a separate CompileContext call's, and options that
// apply the same unroll factor and copy shape share one body.
func TestCompileEachMatchesCompileContext(t *testing.T) {
	loops := append(corpus.Generate(corpus.Params{Seed: 5, N: 12}), corpus.Kernels()...)
	bad := ir.New("cycle")
	a, b := bad.AddOp(ir.KAdd, "a"), bad.AddOp(ir.KAdd, "b")
	bad.AddFlow(a, b)
	bad.AddFlow(b, a)
	loops = append(loops, bad)
	opts := sweepOptions()
	shared := 0
	for _, l := range loops {
		got := vliwq.CompileEach(context.Background(), l, opts)
		if len(got) != len(opts) {
			t.Fatalf("%s: %d results for %d options", l.Name, len(got), len(opts))
		}
		type bodyKey struct {
			factor int
			shape  copyins.Shape
		}
		bodies := map[bodyKey]*ir.Loop{}
		for i, o := range opts {
			want, err := vliwq.CompileContext(context.Background(), l, o)
			label := fmt.Sprintf("%s under option %d (%s)", l.Name, i, o.Machine.Name)
			sameResult(t, label, got[i], vliwq.BatchResult{Result: want, Err: err})
			if got[i].Err != nil {
				continue
			}
			k := bodyKey{got[i].Result.Unrolled, o.CopyShape}
			if body, ok := bodies[k]; ok {
				if got[i].Result.AfterCopies != body {
					t.Fatalf("%s: built a second body for unroll factor %d, shape %v", label, k.factor, k.shape)
				}
				shared++
			}
			bodies[k] = got[i].Result.AfterCopies
		}
	}
	if shared == 0 {
		t.Fatal("no two options shared a body")
	}
}

// TestCompileEachMovesKeepSharedBody: the move-op extension rewrites the
// body it schedules, so a moves-on compile between two moves-off compiles
// of one body must leave that body as copy insertion built it; every
// outcome still equals a separate compile's.
func TestCompileEachMovesKeepSharedBody(t *testing.T) {
	on := machine.Clustered(6)
	on.AllowMoves = true
	opts := []vliwq.Options{
		{Machine: machine.Clustered(6), Unroll: true},
		{Machine: on, Unroll: true},
		{Machine: machine.Clustered(6), Unroll: true},
	}
	moved := 0
	for _, l := range corpus.Generate(corpus.Params{Seed: 3, N: 48}) {
		got := vliwq.CompileEach(context.Background(), l, opts)
		for i, o := range opts {
			want, err := vliwq.CompileContext(context.Background(), l, o)
			sameResult(t, fmt.Sprintf("%s under option %d", l.Name, i), got[i], vliwq.BatchResult{Result: want, Err: err})
		}
		if got[0].Err != nil || got[1].Err != nil {
			continue
		}
		body := got[0].Result.AfterCopies
		if got[1].Result.AfterCopies != body || got[2].Result.AfterCopies != body {
			t.Fatalf("%s: the three compiles did not share one body", l.Name)
		}
		for _, op := range got[1].Result.Sched.Loop.Ops {
			if op.Kind == ir.KMove {
				moved++
			}
		}
		fresh, err := vliwq.CompileContext(context.Background(), l, opts[0])
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(body.Ops, fresh.AfterCopies.Ops) || !reflect.DeepEqual(body.Deps, fresh.AfterCopies.Deps) {
			t.Fatalf("%s: the moves-on compile changed the shared body", l.Name)
		}
	}
	if moved == 0 {
		t.Fatal("no compile inserted a move operation")
	}
}

// TestCompileEachCancelled: a context that turns cancelled at its k-th
// read stops CompileEach's compiles exactly where the same reads stop a
// run of CompileContext calls, one per option: sharing a body adds and
// removes no context check. EffortOptimal compiles, which finish whatever
// their context says, are among the options.
func TestCompileEachCancelled(t *testing.T) {
	l := corpus.KernelByName("fir5")
	ring := machine.Clustered(4)
	ring.CommLatency = 2
	opts := []vliwq.Options{
		{Machine: machine.Clustered(4), Unroll: true},
		{Machine: ring, Effort: vliwq.EffortOptimal},
		{Machine: machine.SingleCluster(12), Unroll: true},
		{Machine: machine.Clustered(4), Unroll: true, SkipVerify: true},
	}
	total := &countingCtx{Context: context.Background(), after: 1 << 62}
	vliwq.CompileEach(total, l, opts)
	for after := int64(0); after <= total.calls.Load(); after++ {
		got := vliwq.CompileEach(&countingCtx{Context: context.Background(), after: after}, l, opts)
		ctx := &countingCtx{Context: context.Background(), after: after}
		for i, o := range opts {
			want, err := vliwq.CompileContext(ctx, l, o)
			sameResult(t, fmt.Sprintf("cancelled after %d reads, option %d", after, i), got[i], vliwq.BatchResult{Result: want, Err: err})
		}
	}
}
