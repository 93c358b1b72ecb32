// Package corpus provides the loop workloads for the experiments.
//
// The paper evaluates on 1258 innermost loops extracted from the Perfect
// Club benchmark with the authors' Fortran front-end — an artifact we do
// not have. As a substitution (DESIGN.md §4) this package generates a
// deterministic, seeded synthetic corpus whose distributions follow the
// published characterizations of scientific loop suites: body sizes
// clustered between 4 and 20 operations with a tail to ~80, an operation
// mix of roughly 45% ALU / 38% memory / 17% multiply-divide, recurrence
// circuits in a bit under half of the loops, and small loop-carried
// distances. Hand-written scientific kernels (daxpy, dot product, FIR,
// stencils, Livermore-style recurrences) live in kernels.go.
package corpus

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"

	"vliwq/internal/ir"
)

// Params controls the synthetic generator. The zero value of every knob
// selects the default documented next to it.
type Params struct {
	Seed int64 // stream seed; same seed, same corpus
	N    int   // number of loops; default PaperCorpusSize

	// MeanLogOps/SigmaLogOps parameterize the log-normal body-size
	// distribution; defaults 2.3/0.75 give a median of ~10 ops.
	MeanLogOps  float64
	SigmaLogOps float64
	MinOps      int // default 3
	MaxOps      int // default 80

	// RecurrenceProb is the probability a loop receives at least one
	// recurrence circuit; default 0.45.
	RecurrenceProb float64
	// CarriedProb is the probability of an extra non-circuit loop-carried
	// flow dependence; default 0.3.
	CarriedProb float64
	// MemDepProb is the probability of a store->load memory ordering
	// dependence; default 0.25.
	MemDepProb float64
	// ReuseProb is the probability an operand deliberately reuses an
	// already-consumed value instead of a fresh one; default 0.12. Raising
	// it widens fanout (more multi-consumer values, so more copy trees and
	// more cross-cluster pressure once partitioned).
	ReuseProb float64
}

// PaperCorpusSize is the loop count of the paper's benchmark set.
const PaperCorpusSize = 1258

// DefaultSeed seeds the standard corpus. Fixed so every experiment run and
// every test sees the same 1258 loops.
const DefaultSeed = 19980330 // IPPS/SPDP 1998, Orlando

func (p Params) withDefaults() Params {
	if p.N == 0 {
		p.N = PaperCorpusSize
	}
	if p.MeanLogOps == 0 {
		p.MeanLogOps = 2.3
	}
	if p.SigmaLogOps == 0 {
		p.SigmaLogOps = 0.75
	}
	if p.MinOps == 0 {
		p.MinOps = 3
	}
	if p.MaxOps == 0 {
		p.MaxOps = 80
	}
	if p.RecurrenceProb == 0 {
		p.RecurrenceProb = 0.45
	}
	if p.CarriedProb == 0 {
		p.CarriedProb = 0.3
	}
	if p.MemDepProb == 0 {
		p.MemDepProb = 0.25
	}
	if p.ReuseProb == 0 {
		p.ReuseProb = 0.12
	}
	return p
}

var (
	standardOnce sync.Once
	standard     []*ir.Loop
	stressedOnce sync.Once
	stressed     []*ir.Loop
)

// Standard returns the 1258-loop corpus used by all experiments. The corpus
// is generated once and shared: generation is deterministic, every consumer
// treats loops as read-only, and the shared identity is what lets the
// experiment pipeline cache compilations across figures. Callers that need
// a private mutable corpus must use Generate.
func Standard() []*ir.Loop {
	standardOnce.Do(func() { standard = Generate(Params{Seed: DefaultSeed}) })
	return standard
}

// StressedSize is the loop count of the stressed corpus preset: big enough
// for stable fractions, small enough that a portfolio sweep over it stays
// interactive.
const StressedSize = 256

// StressedSeed seeds the stressed corpus; fixed so every run sees the same
// loops, and distinct from DefaultSeed so the presets never alias.
const StressedSeed = 19980331

// StressedParams parameterizes the stressed corpus preset: bigger bodies,
// heavy deliberate value reuse (wide fanout, so copy trees and
// multi-consumer values everywhere) and dense cross-iteration flow. These
// are the loops whose partition quality decides whether the modulo
// schedule reaches MII — exactly the regime where trying several
// partition heuristics pays (see internal/sched's portfolio and the exp
// portfolio sweep).
func StressedParams() Params {
	return Params{
		Seed:           StressedSeed,
		N:              StressedSize,
		MeanLogOps:     3.0,
		SigmaLogOps:    0.5,
		MinOps:         12,
		MaxOps:         80,
		RecurrenceProb: 0.65,
		CarriedProb:    0.55,
		MemDepProb:     0.3,
		ReuseProb:      0.35,
	}
}

// Stressed returns the memoized stressed corpus (StressedParams applied to
// Generate). Like Standard, the slice is shared and read-only; callers
// needing a private copy must use Generate.
func Stressed() []*ir.Loop {
	stressedOnce.Do(func() { stressed = Generate(StressedParams()) })
	return stressed
}

// Generate produces a deterministic synthetic corpus.
func Generate(p Params) []*ir.Loop {
	p = p.withDefaults()
	rng := rand.New(rand.NewSource(p.Seed))
	loops := make([]*ir.Loop, 0, p.N)
	for i := 0; i < p.N; i++ {
		l := genLoop(rng, p, i)
		if err := l.Validate(); err != nil {
			// The generator is constructed to always emit valid loops; a
			// failure here is a bug worth crashing on.
			panic(fmt.Sprintf("corpus: generated invalid loop %d: %v", i, err))
		}
		loops = append(loops, l)
	}
	return loops
}

// genLoop builds one synthetic innermost loop.
func genLoop(rng *rand.Rand, p Params, idx int) *ir.Loop {
	l := ir.New(fmt.Sprintf("synth%04d", idx))
	l.Trip = 16 + rng.Intn(497) // 16..512

	n := int(math.Exp(p.MeanLogOps + p.SigmaLogOps*rng.NormFloat64()))
	if n < p.MinOps {
		n = p.MinOps
	}
	if n > p.MaxOps {
		n = p.MaxOps
	}

	// Emit ops front to back; each op draws operands from earlier ops with
	// a recency bias, mimicking expression trees over loaded array values.
	// Most values are consumed exactly once (array expression code);
	// occasional reuse (common subexpressions, shared index arithmetic)
	// creates the multi-consumer values that need copy operations.
	reuseProb := p.ReuseProb
	var producers []*ir.Op // ops with results, candidates as operands
	uses := map[int]int{}
	anyFresh := func() bool {
		for _, p := range producers {
			if uses[p.ID] == 0 {
				return true
			}
		}
		return false
	}
	pick := func() *ir.Op {
		if len(producers) == 0 {
			return nil
		}
		if rng.Float64() < reuseProb {
			// Deliberate reuse: any earlier value, recency-biased.
			k := len(producers) - 1 - min(geometric(rng, 0.45), len(producers)-1)
			uses[producers[k].ID]++
			return producers[k]
		}
		// Prefer the most recent value not yet consumed.
		for k := len(producers) - 1; k >= 0; k-- {
			if uses[producers[k].ID] == 0 {
				uses[producers[k].ID]++
				return producers[k]
			}
		}
		// Everything is consumed: reuse one of the least-used values so
		// fanout spreads instead of piling onto one op.
		minUses := uses[producers[0].ID]
		var least []*ir.Op
		for _, p := range producers {
			switch {
			case uses[p.ID] < minUses:
				minUses = uses[p.ID]
				least = least[:0]
				least = append(least, p)
			case uses[p.ID] == minUses:
				least = append(least, p)
			}
		}
		p := least[rng.Intn(len(least))]
		uses[p.ID]++
		return p
	}
	for len(l.Ops) < n {
		r := rng.Float64()
		switch {
		case r < 0.25: // load
			ld := l.AddOp(ir.KLoad, "")
			if len(producers) > 0 && rng.Float64() < 0.3 {
				l.AddFlow(pick(), ld) // indexed through a computed address
			}
			producers = append(producers, ld)
		case r < 0.38: // store
			if len(producers) == 0 {
				producers = append(producers, l.AddOp(ir.KLoad, ""))
				continue
			}
			st := l.AddOp(ir.KStore, "")
			l.AddFlow(pick(), st)
			if rng.Float64() < 0.3 && len(producers) > 1 {
				l.AddFlow(pick(), st) // computed address
			}
		case r < 0.83: // ALU
			op := l.AddOp(ir.KAdd, "")
			attachOperands(l, rng, op, producers, pick, anyFresh)
			producers = append(producers, op)
		case r < 0.97: // multiply
			op := l.AddOp(ir.KMul, "")
			attachOperands(l, rng, op, producers, pick, anyFresh)
			producers = append(producers, op)
		default: // divide
			op := l.AddOp(ir.KDiv, "")
			attachOperands(l, rng, op, producers, pick, anyFresh)
			producers = append(producers, op)
		}
	}

	if rng.Float64() < p.RecurrenceProb {
		addRecurrence(l, rng)
		if rng.Float64() < 0.3 {
			addRecurrence(l, rng)
		}
	}
	if rng.Float64() < p.CarriedProb {
		addCarried(l, rng)
	}
	if rng.Float64() < p.MemDepProb {
		addMemDep(l, rng)
	}
	sinkDeadValues(l)
	return l
}

// attachOperands gives a compute op one or two operands when values are
// available. The second operand is taken only when an unconsumed value
// exists (or through deliberate reuse), keeping value production and
// consumption balanced: like real array expression code, most values are
// consumed exactly once, and multi-consumer values come from explicit
// common-subexpression reuse rather than from operand starvation.
func attachOperands(l *ir.Loop, rng *rand.Rand, op *ir.Op, producers []*ir.Op, pick func() *ir.Op, anyFresh func() bool) {
	if len(producers) == 0 {
		return // leaf compute (loop-invariant or induction-derived)
	}
	l.AddFlow(pick(), op)
	if rng.Float64() < 0.7 && (anyFresh() || rng.Float64() < 0.15) {
		l.AddFlow(pick(), op)
	}
}

// addRecurrence closes a circuit: it finds an op v with a zero-distance
// ancestor u that still has a free input slot and adds a carried flow
// dependence v -> u, creating the circuit u -> ... -> v -> u. Distances are
// biased toward 1, the dominant case in real loops. Values not yet
// consumed are preferred as the circuit closer — the accumulator pattern —
// so recurrences do not force fanout (and hence copy operations) onto
// their own critical circuit, matching how reductions look in real code.
func addRecurrence(l *ir.Loop, rng *rand.Rand) {
	flowIn := make([]int, len(l.Ops))
	fanout := make([]int, len(l.Ops))
	preds := make([][]int, len(l.Ops))
	for _, d := range l.Deps {
		if d.Kind == ir.Flow {
			flowIn[d.To]++
			fanout[d.From]++
			if d.Dist == 0 {
				preds[d.To] = append(preds[d.To], d.From)
			}
		}
	}
	var fresh []*ir.Op
	for _, op := range l.Ops {
		if op.Kind.HasResult() && fanout[op.ID] == 0 {
			fresh = append(fresh, op)
		}
	}
	// First choice: a tight copy-free accumulator circuit — an unconsumed
	// v whose direct predecessor u feeds nothing but v and has a free
	// input slot. This is the dominant recurrence shape in real loops.
	rng.Shuffle(len(fresh), func(i, j int) { fresh[i], fresh[j] = fresh[j], fresh[i] })
	for _, v := range fresh {
		for _, a := range preds[v.ID] {
			u := l.Ops[a]
			if fanout[a] == 1 && flowIn[a] < u.Kind.MaxInputs() {
				dist := 1 + geometric(rng, 0.7)
				if dist > 4 {
					dist = 4
				}
				l.AddCarried(v, u, dist)
				return
			}
		}
	}
	// Otherwise: general circuits, occasionally producing the
	// stored-and-carried pattern that genuinely costs a copy.
	for attempt := 0; attempt < 8; attempt++ {
		var v *ir.Op
		if len(fresh) > 0 {
			v = fresh[rng.Intn(len(fresh))]
		} else {
			v = l.Ops[rng.Intn(len(l.Ops))]
		}
		if !v.Kind.HasResult() {
			continue
		}
		// Collect ancestors of v in the zero-distance flow graph.
		seen := make([]bool, len(l.Ops))
		stack := []int{v.ID}
		var ancestors []int
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, a := range preds[x] {
				if !seen[a] {
					seen[a] = true
					ancestors = append(ancestors, a)
					stack = append(stack, a)
				}
			}
		}
		// Real reductions are tight: the dominant pattern is a 2-op
		// circuit whose nodes feed nothing else, so the circuit stays
		// copy-free under a QRF. Prefer a direct predecessor of v whose
		// value is consumed only by v; fall back to arbitrary ancestors
		// (those occasionally produce the stored-and-carried pattern the
		// paper pays a copy for — its ~5% residue).
		rng.Shuffle(len(ancestors), func(i, j int) { ancestors[i], ancestors[j] = ancestors[j], ancestors[i] })
		isDirect := map[int]bool{}
		for _, a := range preds[v.ID] {
			isDirect[a] = true
		}
		rank := func(a int) int {
			switch {
			case isDirect[a] && fanout[a] == 1:
				return 0
			case isDirect[a]:
				return 1
			default:
				return 2
			}
		}
		sort.SliceStable(ancestors, func(i, j int) bool { return rank(ancestors[i]) < rank(ancestors[j]) })
		for _, a := range ancestors {
			u := l.Ops[a]
			if flowIn[a] >= u.Kind.MaxInputs() {
				continue
			}
			dist := 1 + geometric(rng, 0.7)
			if dist > 4 {
				dist = 4
			}
			l.AddCarried(v, u, dist)
			return
		}
	}
	// Fall back to a self-recurrence on any op with a free input.
	for _, op := range l.Ops {
		if op.Kind.HasResult() && flowIn[op.ID] < op.Kind.MaxInputs() {
			l.AddCarried(op, op, 1)
			return
		}
	}
}

// addCarried adds a loop-carried flow dependence between two ops where the
// consumer has a free input slot. It models cross-iteration value flow
// without recurrence intent (b[i] uses a[i-1] patterns), so edges that
// would close a circuit are rejected — circuits are addRecurrence's job,
// where their copy-freedom is controlled deliberately.
func addCarried(l *ir.Loop, rng *rand.Rand) {
	flowIn := make([]int, len(l.Ops))
	succs := make([][]int, len(l.Ops))
	for _, d := range l.Deps {
		if d.Kind == ir.Flow {
			flowIn[d.To]++
			succs[d.From] = append(succs[d.From], d.To)
		}
	}
	reaches := func(from, to int) bool {
		seen := make([]bool, len(l.Ops))
		stack := []int{from}
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if x == to {
				return true
			}
			for _, s := range succs[x] {
				if !seen[s] {
					seen[s] = true
					stack = append(stack, s)
				}
			}
		}
		return false
	}
	for attempt := 0; attempt < 8; attempt++ {
		from := l.Ops[rng.Intn(len(l.Ops))]
		to := l.Ops[rng.Intn(len(l.Ops))]
		if !from.Kind.HasResult() || flowIn[to.ID] >= to.Kind.MaxInputs() {
			continue
		}
		if from.ID == to.ID || reaches(to.ID, from.ID) {
			continue // would close a circuit
		}
		dist := 1 + geometric(rng, 0.6)
		if dist > 4 {
			dist = 4
		}
		l.AddCarried(from, to, dist)
		return
	}
}

// addMemDep adds a store->load ordering dependence with a small distance,
// modeling cross-iteration aliasing the compiler could not disprove.
func addMemDep(l *ir.Loop, rng *rand.Rand) {
	var stores, loads []*ir.Op
	for _, op := range l.Ops {
		switch op.Kind {
		case ir.KStore:
			stores = append(stores, op)
		case ir.KLoad:
			loads = append(loads, op)
		}
	}
	if len(stores) == 0 || len(loads) == 0 {
		return
	}
	st := stores[rng.Intn(len(stores))]
	ld := loads[rng.Intn(len(loads))]
	dist := 1 + rng.Intn(2)
	if st.ID == ld.ID && dist == 0 {
		return
	}
	l.AddDep(ir.Dep{From: st.ID, To: ld.ID, Dist: dist, Kind: ir.Mem})
}

// sinkDeadValues appends a store for every produced value that has no
// consumer, so that queues never accumulate unread values (real codes write
// their results to memory; the paper's model has no notion of discarding a
// queued value).
func sinkDeadValues(l *ir.Loop) {
	consumed := make([]bool, len(l.Ops))
	for _, d := range l.Deps {
		if d.Kind == ir.Flow {
			consumed[d.From] = true
		}
	}
	n := len(l.Ops)
	for id := 0; id < n; id++ {
		op := l.Ops[id]
		if op.Kind.HasResult() && !consumed[id] {
			st := l.AddOp(ir.KStore, "")
			l.AddFlow(op, st)
		}
	}
}

// geometric samples a geometric distribution with success probability p
// (support 0, 1, 2, ...).
func geometric(rng *rand.Rand, p float64) int {
	n := 0
	for rng.Float64() > p && n < 32 {
		n++
	}
	return n
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
