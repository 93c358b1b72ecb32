package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"time"

	"vliwq"
	"vliwq/internal/corpus"
	"vliwq/internal/exp"
	"vliwq/internal/ir"
	"vliwq/internal/service"
)

const (
	// servedMachine is the target of cold and warm: the paper's 4-cluster
	// machine.
	servedMachine = "clustered:4"
	// certified compiles for the 6-cluster ring with a 2-cycle hop, where
	// copy insertion leaves gaps the optimal tier can close or prove.
	certMachine = "clustered:6"
	certCommLat = 2

	// Every recheckEvery-th cold and certified answer is recompiled in
	// process after the measured phase and compared byte for byte.
	recheckEvery = 16
	// output_digest covers the answers of this prefix of ops, which every
	// run completes, so two runs of one commit print the same digest.
	digestOps = 512
)

// request is one prepared /compile call.
type request struct {
	body []byte
	loop string // the loop name the answer must carry
	base int    // warm: index of the base loop this spelling derives from
}

// answer is the part of a served CompileResponse the checks read.
type answer struct {
	Loop       string             `json:"loop"`
	II         int                `json:"ii"`
	Queues     int                `json:"queues"`
	RingQueues int                `json:"ring_queues"`
	Bound      *service.BoundInfo `json:"bound"`
}

// A workload is one traffic mix, ready to run: op runs and checks its i-th
// operation and returns the latency the caller saw; finish runs the checks
// too heavy for the measured phase and returns the output digest. A run
// does at most ops() ops and stops only after a multiple of lap() ops.
type workload interface {
	ops() int
	lap() int
	op(i int) (time.Duration, error)
	finish(done int) (uint64, error)
	close()
}

// newWorkload sets up cfg's workload: its inputs and, for the served
// workloads, a healthy fleet that has compiled the warm set.
func newWorkload(ctx context.Context, cfg config) (workload, error) {
	sz := cfg.sizes
	n := sz.ops[cfg.workload]
	switch cfg.workload {
	case "cold":
		l, err := newLaps(cfg.seed, corpus.Generate(corpus.Params{Seed: corpus.DefaultSeed, N: sz.cold}),
			service.CompileRequest{Machine: servedMachine, Unroll: true})
		if err != nil {
			return nil, err
		}
		return newServed(ctx, cfg, n, l, nil)
	case "certified":
		p := corpus.StressedParams()
		p.N = sz.certified
		l, err := newLaps(cfg.seed, corpus.Generate(p),
			service.CompileRequest{Machine: certMachine, CommLatency: certCommLat, Effort: "optimal"})
		if err != nil {
			return nil, err
		}
		return newServed(ctx, cfg, n, l, checkBound)
	case "warm":
		w, err := newWarm(cfg.seed, sz.warmBase)
		if err != nil {
			return nil, err
		}
		f, err := startFleet(ctx, cfg.wrap)
		if err != nil {
			return nil, err
		}
		s := &served{f: f, n: n, lapLen: 1, request: w.request, check: w.check, kept: map[int][]byte{}}
		if err := w.compileBases(s); err != nil {
			f.close()
			return nil, err
		}
		return s, nil
	case "sweep":
		loops := corpus.Generate(corpus.Params{Seed: corpus.DefaultSeed, N: sz.sweep})
		rand.New(rand.NewSource(cfg.seed)).Shuffle(len(loops), func(i, j int) { loops[i], loops[j] = loops[j], loops[i] })
		return &sweep{n: n, loops: loops}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", cfg.workload)
}

func marshal(r service.CompileRequest) []byte {
	b, err := json.Marshal(r)
	if err != nil {
		panic(err) // a CompileRequest holds only strings, ints and bools
	}
	return b
}

// served is a workload whose ops are /compile calls through the fleet.
type served struct {
	f       *fleet
	n       int
	lapLen  int
	request func(i int) request
	check   func(rq request, a answer) error // workload-specific answer check
	recheck bool                             // recompile every recheckEvery-th answer in process
	warmed  []request                        // requests set-up sent, in order

	mu   sync.Mutex
	kept map[int][]byte // answers kept for the digest and the rechecks
}

func newServed(ctx context.Context, cfg config, n int, l *laps, check func(request, answer) error) (*served, error) {
	f, err := startFleet(ctx, cfg.wrap)
	if err != nil {
		return nil, err
	}
	return &served{f: f, n: n, lapLen: len(l.set), request: l.request,
		check: check, recheck: true, kept: map[int][]byte{}}, nil
}

// rechecked reports whether op i's answer is recompiled in process: every
// recheckEvery-th op, shifted by one each lap so the laps cover different
// loops.
func (s *served) rechecked(i int) bool {
	return s.recheck && (i-i/s.lapLen)%recheckEvery == 0
}

func (s *served) ops() int { return s.n }
func (s *served) lap() int { return s.lapLen }
func (s *served) close()   { s.f.close() }

func (s *served) op(i int) (time.Duration, error) {
	rq := s.request(i)
	_, body, lat, err := s.call(rq)
	if err != nil {
		return 0, fmt.Errorf("op %d (%s): %w", i, rq.loop, err)
	}
	if i < digestOps || s.rechecked(i) {
		s.mu.Lock()
		s.kept[i] = body
		s.mu.Unlock()
	}
	return lat, nil
}

// call sends one request through the gateway and checks the answer.
func (s *served) call(rq request) (answer, []byte, time.Duration, error) {
	status, body, lat, err := post(s.f.client, s.f.gwSrv.URL+"/compile", rq.body)
	if err != nil {
		return answer{}, nil, 0, err
	}
	a, err := s.verify(rq, status, body)
	return a, body, lat, err
}

// verify is the check every answer gets: status 200, the requested loop's
// name, and the workload's own check.
func (s *served) verify(rq request, status int, body []byte) (answer, error) {
	if status != 200 {
		return answer{}, errStatus(status, body)
	}
	var a answer
	if err := json.Unmarshal(body, &a); err != nil {
		return answer{}, fmt.Errorf("decoding answer: %w", err)
	}
	if a.Loop != rq.loop {
		return a, fmt.Errorf("answer names loop %q, want %q", a.Loop, rq.loop)
	}
	if s.check != nil {
		return a, s.check(rq, a)
	}
	return a, nil
}

func (s *served) finish(done int) (uint64, error) {
	for i := 0; i < done; i++ {
		if body, ok := s.kept[i]; ok && s.rechecked(i) {
			if err := recompile(s.request(i).body, body); err != nil {
				return 0, fmt.Errorf("recheck of op %d: %w", i, err)
			}
		}
	}
	h := fnv.New64a()
	for i := 0; i < done && i < digestOps; i++ {
		h.Write(s.kept[i])
	}
	return h.Sum64(), nil
}

// recompile compiles a request in process with vliwq.Compile, whose
// verification replays the schedule on the simulator against sequential
// execution, and checks that the served answer is the response built from
// that Result, field for field.
func recompile(reqBody, served []byte) error {
	var req service.CompileRequest
	if err := json.Unmarshal(reqBody, &req); err != nil {
		return err
	}
	if err := req.Normalize(); err != nil {
		return err
	}
	loop, err := vliwq.ParseLoop(req.Loop)
	if err != nil {
		return err
	}
	opts, err := req.Options()
	if err != nil {
		return err
	}
	res, err := vliwq.Compile(loop, opts)
	if err != nil {
		return err
	}
	if want := encode(render(res, req.Effort)); !bytes.Equal(want, served) {
		return fmt.Errorf("served answer differs from the in-process compile:\nserved: %s\nwant:   %s", served, want)
	}
	return nil
}

// render builds the response the service documents for a compiled Result
// (service.CompileResponse); no SLO is configured, so nothing is degraded.
func render(res *vliwq.Result, effort string) *service.CompileResponse {
	resp := &service.CompileResponse{
		Loop:       res.Input.Name,
		Machine:    res.Sched.Machine.Name,
		Unrolled:   res.Unrolled,
		II:         res.II,
		MII:        res.MII,
		Stages:     res.StageCount,
		IPCStatic:  res.IPCStatic,
		IPCDynamic: res.IPCDynamic,
		Queues:     res.Queues,
		RingQueues: res.RingQueues,
		Effort:     effort,
		Strategy:   res.Strategy,
		Report:     res.Report(),
		Kernel:     res.KernelSchedule(),
	}
	if res.Bound.Lower > 0 {
		resp.Bound = &service.BoundInfo{
			Lower:       res.Bound.Lower,
			Optimal:     res.Bound.Optimal,
			DeadlineCut: res.Bound.DeadlineCut,
		}
	}
	return resp
}

// encode frames a response the way every endpoint does: unescaped HTML
// and a trailing newline.
func encode(v any) []byte {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		panic(err) // a CompileResponse always encodes
	}
	return b.Bytes()
}

// checkBound checks a certified answer's certificate: a lower bound no
// greater than the achieved II, equal to it when proved optimal, and no
// deadline cut when no deadline was sent.
func checkBound(_ request, a answer) error {
	b := a.Bound
	switch {
	case b == nil:
		return fmt.Errorf("optimal-effort answer without a bound")
	case b.DeadlineCut:
		return fmt.Errorf("deadline-cut certificate on a request without a deadline")
	case b.Lower > a.II:
		return fmt.Errorf("bound.lower %d exceeds ii %d", b.Lower, a.II)
	case b.Optimal && b.Lower != a.II:
		return fmt.Errorf("bound.optimal with lower %d != ii %d", b.Lower, a.II)
	}
	return nil
}

// laps is a fixed loop set sent over and over in an order drawn from the
// seed. Each lap re-spells every loop with fresh names and its trip count
// plus the lap number, so every request misses both caches, while the
// unroll factor and the scheduler's work, which do not depend on the trip
// count, repeat in every lap. Runs stop at a lap boundary, so every seed
// does the same work: per-loop cost is heavy-tailed, and a time-cut sample
// of fresh loops varied with the seed by more than any bound.
type laps struct {
	knobs service.CompileRequest
	set   []spelling
	trips []int
	names []string
	order []int
}

func newLaps(seed int64, loops []*ir.Loop, knobs service.CompileRequest) (*laps, error) {
	l := &laps{knobs: knobs, order: rand.New(rand.NewSource(seed)).Perm(len(loops))}
	for _, loop := range loops {
		text := vliwq.FormatLoop(loop)
		// Without its trip line a re-spelled loop would hit the structural
		// cache instead of compiling.
		if !strings.Contains(text, "\ntrip "+strconv.Itoa(loop.Trip)+"\n") {
			return nil, fmt.Errorf("loop %s has no trip line to re-spell", loop.Name)
		}
		l.set = append(l.set, cut(text))
		l.trips = append(l.trips, loop.Trip)
		l.names = append(l.names, loop.Name)
	}
	return l, nil
}

func (l *laps) request(i int) request {
	lap, k := i/len(l.set), l.order[i%len(l.set)]
	prefix := "l" + strconv.Itoa(lap) + "_"
	trip := strconv.Itoa(l.trips[k])
	req := l.knobs
	req.Loop = strings.Replace(l.set[k].render(prefix), "\ntrip "+trip+"\n",
		"\ntrip "+strconv.Itoa(l.trips[k]+lap)+"\n", 1)
	return request{body: marshal(req), loop: prefix + l.names[k], base: -1}
}

// warm is the cache-hit workload: base loops compiled in set-up, then a
// seeded mix of byte-identical repeats (exact hits), fresh renames
// (structural hits) and fresh renames of permuted spellings (reordered
// hits).
type warm struct {
	seed  int64
	bases []warmBase
}

type warmBase struct {
	name     string
	body     []byte   // the base spelling's request
	renamed  spelling // the base text, cut at its names
	permuted []spelling
	ans      answer // what the fleet answered for the base
}

// permsPerBase is how many random statement orders are tried per warm base
// loop.
const permsPerBase = 4

func newWarm(seed int64, n int) (*warm, error) {
	w := &warm{seed: seed}
	rng := rand.New(rand.NewSource(seed + 1))
	for _, l := range corpus.Generate(corpus.Params{Seed: seed + 1, N: n}) {
		req := service.CompileRequest{Loop: vliwq.FormatLoop(l), Machine: servedMachine, Unroll: true}
		b := warmBase{name: l.Name, body: marshal(req), renamed: cut(req.Loop)}
		parsed, err := vliwq.ParseLoop(req.Loop)
		if err != nil {
			return nil, err
		}
		// Keep only permutations that stay in the base's structural class;
		// the rest would be fresh compiles, not reordered hits.
		key := req.StructuralKey()
		for k := 0; k < permsPerBase; k++ {
			p := req
			p.Loop = vliwq.FormatLoop(permute(parsed, rng))
			if p.Loop != req.Loop && p.StructuralKey() == key {
				b.permuted = append(b.permuted, cut(p.Loop))
			}
		}
		w.bases = append(w.bases, b)
	}
	return w, nil
}

// compileBases sends every base loop through s once, one at a time, so
// each one's class leader is fixed before the measured phase.
func (w *warm) compileBases(s *served) error {
	for i := range w.bases {
		b := &w.bases[i]
		rq := request{body: b.body, loop: b.name, base: -1}
		a, _, _, err := s.call(rq)
		if err != nil {
			return fmt.Errorf("warming %s: %w", b.name, err)
		}
		b.ans = a
		s.warmed = append(s.warmed, rq)
	}
	return nil
}

// request draws op i: 50% byte-identical repeats, 30% fresh renames and
// 20% fresh renames of a permuted spelling. Each op draws from its own
// stream, so the mix does not depend on how the clients interleave.
func (w *warm) request(i int) request {
	r := opRand(uint64(w.seed)*0x9e3779b97f4a7c15 ^ uint64(i))
	base := r.intn(len(w.bases))
	b := &w.bases[base]
	mix := r.intn(10)
	if mix < 5 {
		return request{body: b.body, loop: b.name, base: base}
	}
	sp := b.renamed
	if mix >= 8 && len(b.permuted) > 0 {
		sp = b.permuted[r.intn(len(b.permuted))]
	}
	prefix := "w" + strconv.Itoa(i) + "_"
	req := service.CompileRequest{Loop: sp.render(prefix), Machine: servedMachine, Unroll: true}
	return request{body: marshal(req), loop: prefix + b.name, base: base}
}

// check: a renamed or permuted spelling is served its base's schedule.
func (w *warm) check(rq request, a answer) error {
	if rq.base < 0 {
		return nil
	}
	want := w.bases[rq.base].ans
	if a.II != want.II || a.Queues != want.Queues || a.RingQueues != want.RingQueues {
		return fmt.Errorf("ii/queues/ring_queues %d/%d/%d, base %s answered %d/%d/%d",
			a.II, a.Queues, a.RingQueues, w.bases[rq.base].name, want.II, want.Queues, want.RingQueues)
	}
	return nil
}

// opRand is a splitmix64 stream.
type opRand uint64

func (r *opRand) intn(n int) int {
	*r += 0x9e3779b97f4a7c15
	z := uint64(*r)
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	z ^= z >> 31
	return int(z % uint64(n))
}

// permute returns a spelling of l with its statements in a random
// topological order of the distance-0 dependences. The dependence list
// keeps its sequence, so every consumer's operand order is preserved.
func permute(l *vliwq.Loop, rng *rand.Rand) *vliwq.Loop {
	n := len(l.Ops)
	indeg := make([]int, n)
	succ := make([][]int, n)
	for _, d := range l.Deps {
		if d.Dist == 0 {
			succ[d.From] = append(succ[d.From], d.To)
			indeg[d.To]++
		}
	}
	var ready []int
	for i, deg := range indeg {
		if deg == 0 {
			ready = append(ready, i)
		}
	}
	perm := make([]int, n)
	for next := 0; len(ready) > 0; next++ {
		k := rng.Intn(len(ready))
		v := ready[k]
		ready[k] = ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		perm[v] = next
		for _, s := range succ[v] {
			if indeg[s]--; indeg[s] == 0 {
				ready = append(ready, s)
			}
		}
	}
	cl := l.Clone()
	for i, op := range l.Ops {
		cp := *op
		cp.ID = perm[i]
		cl.Ops[perm[i]] = &cp
	}
	for j := range cl.Deps {
		cl.Deps[j].From = perm[l.Deps[j].From]
		cl.Deps[j].To = perm[l.Deps[j].To]
	}
	return cl
}

// spelling is a loop text in vliwq.FormatLoop's single-spaced layout, cut
// at its names, so a renamed copy costs one concatenation and no call into
// the code under test.
type spelling struct {
	lits  []string // lits[k] precedes names[k]
	names []string
	tail  string
}

func cut(src string) spelling {
	var sp spelling
	var lit strings.Builder
	for _, line := range strings.SplitAfter(src, "\n") {
		f := strings.Fields(line)
		for k, tok := range f {
			if k > 0 {
				lit.WriteByte(' ')
			}
			if isName(f[0], k) {
				sp.lits = append(sp.lits, lit.String())
				sp.names = append(sp.names, tok)
				lit.Reset()
				continue
			}
			lit.WriteString(tok)
		}
		if strings.HasSuffix(line, "\n") {
			lit.WriteByte('\n')
		}
	}
	sp.tail = lit.String()
	return sp
}

// isName reports whether field k of a line opening with directive is a
// loop or op name in the text format (internal/ir).
func isName(directive string, k int) bool {
	switch directive {
	case "loop":
		return k == 1
	case "op":
		return k == 1 || k >= 3
	case "carried", "mem", "order":
		return k == 1 || k == 2
	}
	return false
}

func (s spelling) render(prefix string) string {
	var b strings.Builder
	for k, name := range s.names {
		b.WriteString(s.lits[k])
		b.WriteString(prefix)
		b.WriteString(name)
	}
	b.WriteString(s.tail)
	return b.String()
}

// sweep is the researcher's reproduction path: exp.RunAll over the paper's
// corpus in an order drawn from the seed, each pass with a fresh pipeline,
// no HTTP and no verification.
type sweep struct {
	n     int
	loops []*ir.Loop

	mu  sync.Mutex
	ref []byte // the first pass's output
}

func (s *sweep) ops() int { return s.n }
func (s *sweep) lap() int { return 1 }
func (s *sweep) close()   {}

func (s *sweep) op(i int) (time.Duration, error) {
	var buf bytes.Buffer
	t0 := time.Now()
	exp.RunAll(&buf, exp.Options{Loops: s.loops})
	lat := time.Since(t0)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ref == nil {
		s.ref = buf.Bytes()
	} else if !bytes.Equal(buf.Bytes(), s.ref) {
		return 0, fmt.Errorf("pass %d: RunAll output differs from the first pass", i)
	}
	return lat, nil
}

func (s *sweep) finish(int) (uint64, error) {
	h := fnv.New64a()
	h.Write(s.ref)
	return h.Sum64(), nil
}
