package copyins

import (
	"fmt"
	"reflect"
	"testing"

	"vliwq/internal/corpus"
	"vliwq/internal/ir"
	"vliwq/internal/machine"
	"vliwq/internal/unroll"
)

// This file keeps copy insertion as it was before the consumer lists were
// gathered in one CSR pass, as the test oracle of Insert. Production has no
// hook into it.

// TestInsertMatchesReference: Insert returns what the reference returns,
// equal under reflect.DeepEqual (same ops, names, lineage and dependences
// in the same order, same counts), for every shape on the kernels and on
// every 4th standard and stressed loop, raw and unrolled for clustered:4.
func TestInsertMatchesReference(t *testing.T) {
	loops := corpus.Kernels()
	for _, set := range [][]*ir.Loop{corpus.Standard(), corpus.Stressed()} {
		for i := 0; i < len(set); i += 4 {
			loops = append(loops, set[i])
		}
	}
	cfg := machine.Clustered(4)
	for _, l := range loops {
		u, err := unroll.Unroll(l, unroll.AutoFactor(l, cfg))
		if err != nil {
			t.Fatal(err)
		}
		for _, in := range []*ir.Loop{l, u} {
			for _, shape := range []Shape{Tree, Chain, None} {
				got := Insert(in, shape)
				want, err := insertRef(in, shape)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s (%v): Insert differs from the reference", in.Name, shape)
				}
			}
		}
	}
}

// insertRef scans every dependence for every producer.
func insertRef(l *ir.Loop, shape Shape) (*Result, error) {
	if err := l.Validate(); err != nil {
		return nil, err
	}
	out := l.Clone()
	res := &Result{Loop: out}
	if shape == None {
		return res, nil
	}

	// Iterate over the original producer IDs; newly added copies always
	// have exactly two consumers by construction... except the tree
	// interior, which we build directly with fanout 2, so one pass
	// suffices.
	numOrig := len(out.Ops)
	for id := 0; id < numOrig; id++ {
		op := out.Ops[id]
		if !op.Kind.HasResult() {
			continue
		}
		// Collect this value's flow consumers (dep list indices).
		var consumers []int
		for di, d := range out.Deps {
			if d.Kind == ir.Flow && d.From == id {
				consumers = append(consumers, di)
			}
		}
		n := len(consumers)
		if n > res.MaxFanoutSeen {
			res.MaxFanoutSeen = n
		}
		// Copy units write two queues, so an existing copy with two
		// consumers is already in hardware-legal form.
		limit := 1
		if op.Kind == ir.KCopy {
			limit = 2
		}
		if n <= limit {
			continue
		}
		res.ValuesFanned++
		buildFanoutRef(out, id, consumers, shape, res)
	}
	if err := out.Validate(); err != nil {
		return nil, fmt.Errorf("copyins: internal error: %w", err)
	}
	return res, nil
}

// buildFanoutRef adds copies one AddOp at a time.
func buildFanoutRef(l *ir.Loop, src int, consumerDeps []int, shape Shape, res *Result) {
	// Copies forward the source value unchanged, so they inherit the
	// source's lineage: a copy's synthetic pre-loop live-in (read by
	// loop-carried consumers in the first iterations) must equal the
	// original producer's, or the rewrite would change program semantics.
	srcOp := l.Ops[src]
	newCopy := func(from int) int {
		c := l.AddOp(ir.KCopy, "")
		c.Orig = srcOp.EffID()
		c.Phase = srcOp.Phase
		l.AddDep(ir.Dep{From: from, To: c.ID, Kind: ir.Flow})
		res.CopiesAdded++
		return c.ID
	}
	// connect re-points the original dependence at its feeding copy; the
	// slot, consumer and distance stay put.
	connect := func(from int, depIdx int) {
		l.Deps[depIdx].From = from
	}

	switch shape {
	case Chain:
		// src -> c1 -> c2 ... each copy feeds one consumer and the next
		// copy; the last copy feeds the final two consumers.
		cur := newCopy(src)
		i := 0
		for ; i < len(consumerDeps)-2; i++ {
			connect(cur, consumerDeps[i])
			cur = newCopy(cur)
		}
		connect(cur, consumerDeps[i])
		connect(cur, consumerDeps[i+1])
	default: // Tree
		// A work queue of (feeding op, consumer dependences to serve).
		// Each copy serves two subtrees of near-equal size.
		type job struct {
			from int
			ds   []int
		}
		jobs := []job{{newCopy(src), consumerDeps}}
		for len(jobs) > 0 {
			j := jobs[len(jobs)-1]
			jobs = jobs[:len(jobs)-1]
			switch len(j.ds) {
			case 1:
				connect(j.from, j.ds[0])
			case 2:
				connect(j.from, j.ds[0])
				connect(j.from, j.ds[1])
			default:
				half := (len(j.ds) + 1) / 2
				left, right := j.ds[:half], j.ds[half:]
				// Each side larger than one target needs its own copy.
				if len(left) == 1 {
					connect(j.from, left[0])
				} else {
					jobs = append(jobs, job{newCopy(j.from), left})
				}
				if len(right) == 1 {
					connect(j.from, right[0])
				} else {
					jobs = append(jobs, job{newCopy(j.from), right})
				}
			}
		}
	}
}
