// Package copyins implements the paper's copy-operation insertion (§2).
//
// In a queue register file a value is destroyed by the read that consumes
// it, so a value consumed n > 1 times would need n simultaneous writes to n
// distinct queues (paper Fig. 1c). Instead, a dedicated copy functional
// unit reads a value from one queue and writes it to two queues (Fig. 2).
// This pass rewrites every multi-consumer value into a fanout tree of copy
// operations so that, afterwards, every value has exactly one consumer.
package copyins

import "vliwq/internal/ir"

// Shape selects the fanout tree topology.
type Shape uint8

const (
	// Tree builds a balanced binary tree: minimal added depth
	// (ceil(log2 n) copy latencies on the critical path).
	Tree Shape = iota
	// Chain builds a linear chain: each copy feeds one consumer and the
	// next copy. Used by the ablation benchmark; adds O(n) depth.
	Chain
	// None inserts no copies: multi-consumer values stay as they are, the
	// simultaneous-writes model of paper Fig. 1(c) that the copy-cost
	// experiments compare against. It has no request spelling.
	None
)

func (s Shape) String() string {
	switch s {
	case Chain:
		return "chain"
	case None:
		return "none"
	}
	return "tree"
}

// Result reports what Insert did.
type Result struct {
	Loop          *ir.Loop
	CopiesAdded   int
	ValuesFanned  int // number of multi-consumer values rewritten
	MaxFanoutSeen int
}

// Insert returns a copy of the loop in which every value with more than one
// flow consumer is routed through a fanout tree of copy operations. The
// input loop is not modified. Loops already satisfying the single-consumer
// property, and every loop under shape None, are returned as an unmodified
// clone with CopiesAdded == 0.
//
// l must be valid (ir.(*Loop).Validate); the compile engine checks it once
// at its entry. The rewritten loop of a valid loop is valid:
// TestPassesKeepLoopsValid checks it over every corpus and shape.
func Insert(l *ir.Loop, shape Shape) *Result {
	if shape == None {
		return &Result{Loop: l.Clone()}
	}

	// Every producer's flow consumers (dependence indices, in Deps order),
	// gathered in one CSR pass.
	numOrig := len(l.Ops)
	off := make([]int32, numOrig+1)
	for _, d := range l.Deps {
		if d.Kind == ir.Flow {
			off[d.From+1]++
		}
	}
	for i := 1; i <= numOrig; i++ {
		off[i] += off[i-1]
	}
	cons := make([]int32, off[numOrig])
	for di, d := range l.Deps {
		if d.Kind == ir.Flow {
			cons[off[d.From]] = int32(di)
			off[d.From]++
		}
	}
	copy(off[1:], off[:numOrig])
	off[0] = 0
	consumers := func(id int) []int32 { return cons[off[id]:off[id+1]] }

	// A value with n consumers gets n-1 copies under both shapes, each fed
	// by one new dependence: reserve room for all of them at once.
	extra := 0
	for id, op := range l.Ops {
		if n := len(consumers(id)); op.Kind.HasResult() && n > fanoutLimit(op.Kind) {
			extra += n - 1
		}
	}
	out, spare := l.CloneWithRoom(extra, extra)
	res := &Result{Loop: out}
	f := fanout{l: out, spare: spare, res: res}

	// One pass over the original producers, reading the lists gathered
	// above, is exact. Rewriting value id's fanout re-points only id's own
	// flow dependences, at new copies, and adds dependences out of id and
	// out of the new copies, so no producer still to come gains or loses a
	// consumer. The copies need no pass of their own: each is built with
	// exactly two consumers, the most a copy unit serves.
	for id := 0; id < numOrig; id++ {
		op := out.Ops[id]
		if !op.Kind.HasResult() {
			continue
		}
		cs := consumers(id)
		res.MaxFanoutSeen = max(res.MaxFanoutSeen, len(cs))
		if len(cs) <= fanoutLimit(op.Kind) {
			continue
		}
		res.ValuesFanned++
		f.build(id, cs, shape)
	}
	return res
}

// fanoutLimit is the number of consumers a value of the kind may feed
// directly. Copy units write two queues, so an existing copy with two
// consumers is already in hardware-legal form.
func fanoutLimit(k ir.OpKind) int {
	if k == ir.KCopy {
		return 2
	}
	return 1
}

// fanout rewires multi-consumer values of one loop through copies drawn
// from ops Insert reserved up front.
type fanout struct {
	l     *ir.Loop
	spare []ir.Op // reserved copy ops not yet used
	res   *Result
	jobs  []job // Tree's work stack, reused across values
}

// job is a Tree work item: a feeding op and the consumer dependences it
// must serve.
type job struct {
	from int
	ds   []int32
}

// newCopy adds a copy of value src fed by from and returns its ID. Copies
// forward the source value unchanged, so they inherit the source's
// lineage: a copy's synthetic pre-loop live-in (read by loop-carried
// consumers in the first iterations) must equal the original producer's,
// or the rewrite would change program semantics.
func (f *fanout) newCopy(src *ir.Op, from int) int {
	c := &f.spare[0]
	f.spare = f.spare[1:]
	*c = ir.Op{ID: len(f.l.Ops), Kind: ir.KCopy, Orig: src.EffID(), Phase: src.Phase}
	f.l.Ops = append(f.l.Ops, c)
	f.l.AddDep(ir.Dep{From: from, To: c.ID, Kind: ir.Flow})
	f.res.CopiesAdded++
	return c.ID
}

// build rewires the consumers of value `src` through copy operations.
// Each consumer dependence keeps its original iteration distance and — by
// patching the dependence slot in place — its position in the consumer's
// operand list, so operand-order-sensitive semantics are preserved. The
// internal tree edges have distance zero, and the producer feeds the root
// copy with distance zero.
func (f *fanout) build(src int, consumerDeps []int32, shape Shape) {
	srcOp := f.l.Ops[src]
	// connect re-points the original dependence at its feeding copy; the
	// slot, consumer and distance stay put.
	connect := func(from int, depIdx int32) {
		f.l.Deps[depIdx].From = from
	}

	switch shape {
	case Chain:
		// src -> c1 -> c2 ... each copy feeds one consumer and the next
		// copy; the last copy feeds the final two consumers.
		cur := f.newCopy(srcOp, src)
		i := 0
		for ; i < len(consumerDeps)-2; i++ {
			connect(cur, consumerDeps[i])
			cur = f.newCopy(srcOp, cur)
		}
		connect(cur, consumerDeps[i])
		connect(cur, consumerDeps[i+1])
	default: // Tree
		// A work stack of (feeding op, consumer dependences to serve).
		// Each copy serves two subtrees of near-equal size.
		jobs := append(f.jobs[:0], job{f.newCopy(srcOp, src), consumerDeps})
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
					jobs = append(jobs, job{f.newCopy(srcOp, j.from), left})
				}
				if len(right) == 1 {
					connect(j.from, right[0])
				} else {
					jobs = append(jobs, job{f.newCopy(srcOp, j.from), right})
				}
			}
		}
		f.jobs = jobs
	}
}
