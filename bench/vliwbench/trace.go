package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"time"

	"vliwq"
	"vliwq/internal/exp"
	"vliwq/internal/gateway"
	"vliwq/internal/ir"
	"vliwq/internal/service"
	"vliwq/internal/sim"
)

// The traced run replays a prefix of the workload one op at a time. Each
// op is sent to a twin backend — a service.New with the owner's
// configuration, warmed identically but outside the fleet — and through the
// gateway, so both calls see the same cache state, and the service's work
// for the op is replayed in process through the public function of each
// layer, each call in its own span. Replayed calls run out of line, so a
// span's self time is its duration minus its children's durations, not its
// interval minus theirs. The sweep is traced one figure function at a time
// instead, with the pipeline's stage times as children.

// layers are the repository's modules the ledger attributes time to. A
// span's layer is its name up to the first dot.
var layers = []string{"gateway", "service", "vliwq", "ir", "unroll", "copyins", "sched", "queue", "sim", "exp"}

// stageSpans names the span of each pipeline stage (vliwq.Stage) after the
// layer that implements it.
var stageSpans = map[string]string{
	"unroll": "unroll", "copies": "copyins", "schedule": "sched", "alloc": "queue", "verify": "sim",
}

// figures are the figure functions exp.RunAll calls, in its order.
var figures = []struct {
	name string
	fn   func(exp.Options) *exp.Table
}{
	{"fig3", exp.Fig3}, {"copycost", exp.CopyCost}, {"fig4", exp.Fig4},
	{"unrollqueues", exp.UnrollQueues}, {"fig6", exp.Fig6}, {"clusterres", exp.ClusterResources},
	{"fig8", exp.Fig8}, {"fig9", exp.Fig9}, {"ablation_copyshape", exp.AblationCopyShape},
	{"ablation_moves", exp.AblationMoveOps}, {"ablation_commlat", exp.AblationCommLatency},
	{"ablation_invariants", exp.AblationInvariants},
}

// layerMetrics are the per-layer metrics a traced run prints, every one on
// every workload; a layer that does not run on a workload reads 0 there.
// Timings are means per op; counts are totals over the traced ops.
var layerMetrics = func() []metricDef {
	defs := []metricDef{
		{"gateway.route_us", "us"}, {"gateway.hop_us", "us"},
		{"gateway.failovers", "count"}, {"gateway.coalesced", "count"},
		{"service.self_us", "us"}, {"service.decode_us", "us"},
		{"service.render_us", "us"}, {"service.encode_us", "us"},
		{"service.exact_hit_ratio", "ratio"}, {"service.structural_hit_ratio", "ratio"},
		{"service.reordered", "count"}, {"service.renumbered", "count"},
		{"service.compiles_per_op", "ratio"},
		{"vliwq.normalize_us", "us"}, {"vliwq.structural_key_us", "us"},
		{"vliwq.remap_us", "us"}, {"vliwq.compile_self_ms", "ms"},
		{"ir.parse_us", "us"}, {"ir.fingerprint_us", "us"},
		{"ir.skeleton_us", "us"}, {"ir.alignlike_us", "us"},
		{"unroll.us", "us"}, {"unroll.ops_out", "count"},
		{"copyins.us", "us"}, {"copyins.copies", "count"},
		{"sched.ms", "ms"}, {"sched.attempts", "count"}, {"sched.placements", "count"},
		{"sched.evictions", "count"}, {"sched.pruned_nodes", "count"},
		{"sched.ii_gap", "cycles"}, {"sched.sum_ii", "cycles"}, {"sched.proved_frac", "ratio"},
		{"queue.alloc_us", "us"}, {"queue.count", "count"}, {"queue.sum_queues", "queues"},
		{"sim.verify_ms", "ms"}, {"sim.issues", "count"}, {"sim.ns_per_issue", "ns"},
	}
	for _, f := range figures {
		defs = append(defs, metricDef{"exp." + f.name + "_ms", "ms"})
	}
	for _, l := range layers {
		defs = append(defs, metricDef{"ledger." + l, "ratio"})
	}
	return append(defs, metricDef{"trace.overhead_frac", "ratio"}, metricDef{"trace.stage_err_frac", "ratio"})
}()

type metricDef struct{ name, unit string }

// span is one timed call. Start is relative to the start of the trace.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for an op's root span
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	Dur    int64  `json:"dur_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer runs the
// timed functions without recording them.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) add(op, parent int, name string, start time.Time, dur time.Duration) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Op: op, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), Dur: dur.Nanoseconds()})
	return len(t.spans) - 1
}

// set fills in the start and duration of a span added before its call ran.
func (t *tracer) set(id int, start time.Time, dur time.Duration) {
	if t != nil {
		t.spans[id].Start, t.spans[id].Dur = start.Sub(t.t0).Nanoseconds(), dur.Nanoseconds()
	}
}

// time runs fn in a span and returns the span's ID.
func (t *tracer) time(op, parent int, name string, fn func()) int {
	start := time.Now()
	fn()
	return t.add(op, parent, name, start, time.Since(start))
}

// selfTimes returns each span's duration minus its children's durations.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.Dur
		if s.Parent >= 0 {
			self[s.Parent] -= s.Dur
		}
	}
	return self
}

func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// replayer re-runs the service's handling of a /compile body in process,
// mirroring service.compileOne and computeRouted under vliwd's default
// configuration: the exact cache, then the structural cache, then the
// pipeline. Its encoded answer must equal the served one byte for byte, but
// a renamed structural hit renders the same bytes as a fresh compile, so
// that does not show which path ran: the paths it counts must also equal
// the fleet's /stats delta for the same ops.
type replayer struct {
	compiler *vliwq.Compiler
	exact    map[string]*service.CompileResponse // canonical key -> rendered answer
	classes  map[string]class                    // structural key -> class leader
	paths    paths
	tally    tally
}

// paths counts the ways the replay answered, as the service's /stats does.
type paths struct {
	hits, structHits, reordered, renumbered, compiles int64
}

type class struct {
	res  *vliwq.Result
	skel string
}

// tally counts the work of the replay's traced compiles.
type tally struct {
	opsOut, copies, attempts, placements, evictions int
	pruned                                          int64
	iiGap, queueCount, issues                       int
}

func newReplayer() *replayer {
	return &replayer{
		compiler: vliwq.NewCompiler(vliwq.CompilerConfig{CacheEntries: -1}),
		exact:    map[string]*service.CompileResponse{},
		classes:  map[string]class{},
	}
}

// serve replays one /compile body under parent and returns the encoded
// answer.
func (r *replayer) serve(t *tracer, op, parent int, body []byte) ([]byte, error) {
	var req service.CompileRequest
	var err error
	t.time(op, parent, "service.decode", func() {
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		err = dec.Decode(&req)
	})
	if err != nil {
		return nil, err
	}
	var key string
	t.time(op, parent, "vliwq.normalize", func() {
		if err = req.Normalize(); err == nil {
			key = req.Canonical()
		}
	})
	if err != nil {
		return nil, err
	}
	resp, hit := r.exact[key]
	if hit {
		r.paths.hits++
	} else {
		res, err := r.structural(t, op, parent, req)
		if err != nil {
			return nil, err
		}
		t.time(op, parent, "service.render", func() { resp = render(res, req.Effort) })
		r.exact[key] = resp
	}
	var out []byte
	t.time(op, parent, "service.encode", func() { out = encode(resp) })
	return out, nil
}

// structural is the exact-miss path: reuse the request's isomorphism class
// when it has a leader, compile otherwise.
func (r *replayer) structural(t *tracer, op, parent int, req service.CompileRequest) (*vliwq.Result, error) {
	var loop *vliwq.Loop
	var err error
	t.time(op, parent, "ir.parse", func() { loop, err = vliwq.ParseLoop(req.Loop) })
	if err != nil {
		return nil, err
	}
	var skey string
	id := t.time(op, parent, "vliwq.structural_key", func() { skey = req.StructuralKey() })
	if t != nil {
		var l *ir.Loop
		t.time(op, id, "ir.parse", func() { l, _ = ir.ParseString(req.Loop) })
		t.time(op, id, "ir.fingerprint", func() { ir.Fingerprint(l) })
	}
	leader, seen := r.classes[skey]
	if !seen {
		res, err := r.compile(t, op, parent, req)
		if err != nil {
			return nil, err
		}
		var skel string
		t.time(op, parent, "ir.skeleton", func() { skel = ir.Skeleton(loop) })
		r.classes[skey] = class{res: res, skel: skel}
		return res, nil
	}
	var skel string
	t.time(op, parent, "ir.skeleton", func() { skel = ir.Skeleton(loop) })
	if skel != leader.skel {
		var aligned *ir.Loop
		ok := false
		t.time(op, parent, "ir.alignlike", func() { aligned, ok = ir.AlignLike(loop, leader.res.Input) })
		if ok {
			t.time(op, parent, "ir.skeleton", func() { ok = ir.Skeleton(aligned) == leader.skel })
		}
		if !ok {
			r.paths.renumbered++
			return r.compile(t, op, parent, req)
		}
		loop = aligned
		r.paths.reordered++
	}
	var res *vliwq.Result
	t.time(op, parent, "vliwq.remap", func() { res, err = vliwq.RemapResult(leader.res, loop) })
	r.paths.structHits++
	return res, err
}

// compile runs Compiler.Run with the stage timings it reports as child
// spans, plus the parse Run does internally, replayed out of line.
func (r *replayer) compile(t *tracer, op, parent int, req service.CompileRequest) (*vliwq.Result, error) {
	r.paths.compiles++
	start := time.Now()
	res, err := r.compiler.Run(context.Background(), req)
	if err != nil || t == nil {
		return res, err
	}
	id := t.add(op, parent, "vliwq.compile", start, time.Since(start))
	at := start
	for _, st := range res.Stages {
		t.add(op, id, stageSpans[st.Stage.String()], at, st.Duration)
		at = at.Add(st.Duration)
	}
	t.time(op, id, "ir.parse", func() { _, _ = vliwq.ParseLoop(req.Loop) })

	c := &r.tally
	c.opsOut += len(res.AfterUnroll.Ops)
	c.copies += len(res.AfterCopies.Ops) - len(res.AfterUnroll.Ops)
	c.attempts += res.Sched.Stats.Attempts
	c.placements += res.Sched.Stats.Placements
	c.evictions += res.Sched.Stats.Evictions
	c.pruned += res.Sched.Stats.PrunedNodes
	c.iiGap += res.II - res.MII
	c.queueCount += len(res.Alloc.Assignments)
	// The issue count of the verification run, re-simulated outside any span.
	if p, err := sim.Pipelined(res.Sched, res.Alloc, sim.PipeOptions{N: min(res.Sched.Loop.TripCount(), 64)}); err == nil {
		c.issues += p.Issues
	}
	return res, nil
}

// traceRun is what a traced run measured.
type traceRun struct {
	ops, failed          int
	err                  error
	spans                []span
	untraced, tracedWall time.Duration
	tally                tally
	sumII, sumQueues     int
	proved               int
	delta                fleetDelta
}

// fleetDelta is the change in the fleet's /stats over the traced ops.
type fleetDelta struct {
	paths                paths
	coalesced, failovers int64
	stages               map[string]int64
}

func diffStats(a, b gateway.StatsResponse) fleetDelta {
	d := fleetDelta{
		paths: paths{
			hits:       b.TotalCache.Hits - a.TotalCache.Hits,
			structHits: b.TotalStructural.Hits - a.TotalStructural.Hits,
			reordered:  b.TotalStructural.Reordered - a.TotalStructural.Reordered,
			renumbered: b.TotalStructural.Renumbered - a.TotalStructural.Renumbered,
			compiles:   b.TotalSched.Compiles - a.TotalSched.Compiles,
		},
		coalesced: b.Coalesced - a.Coalesced,
		stages:    map[string]int64{},
	}
	for i := range b.Backends {
		d.failovers += b.Backends[i].Failovers - a.Backends[i].Failovers
	}
	for name, n := range b.TotalSched.StageNanos {
		d.stages[name] = n - a.TotalSched.StageNanos[name]
	}
	return d
}

// traced is the -trace 1 run: it prints the per-layer metrics and writes
// every span to trace-<workload>.json.
func traced(ctx context.Context, cfg config, info io.Writer) (result, error) {
	n := cfg.sizes.trace[cfg.workload]
	var (
		tr  *traceRun
		err error
	)
	if cfg.workload == "sweep" {
		tr, err = traceSweep(ctx, cfg, n)
	} else {
		tr, err = traceServed(ctx, cfg, n)
	}
	if err != nil {
		return result{}, err
	}
	values := tr.values()
	res := result{Correct: tr.err == nil, Attempted: max(tr.ops, 1), Failed: tr.failed, Metrics: map[string]metric{}}
	for _, d := range layerMetrics {
		res.Metrics[d.name] = metric{values[d.name], d.unit}
	}
	if err := writeTrace(cfg, tr, res.Metrics); err != nil {
		return result{}, err
	}
	fmt.Fprintf(info, "workload %s seed %d: traced %d ops, %d failed, overhead %.2f\n",
		cfg.workload, cfg.seed, tr.ops, tr.failed, values["trace.overhead_frac"])
	for _, l := range layers {
		fmt.Fprintf(info, "ledger %-8s %6.2f%%\n", l, 100*values["ledger."+l])
	}
	total := tr.totals()
	for _, st := range vliwq.StageNames() {
		if served := tr.delta.stages[st]; served > 0 {
			fmt.Fprintf(info, "stage %-8s replayed %9.1fms, fleet /stats %9.1fms\n",
				st, float64(total[stageSpans[st]])/1e6, float64(served)/1e6)
		}
	}
	if tr.err != nil {
		fmt.Fprintln(info, "check failed:", tr.err)
	}
	return res, nil
}

func writeTrace(cfg config, tr *traceRun, metrics map[string]metric) error {
	if err := os.MkdirAll(cfg.traceDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(cfg.traceDir, "trace-"+cfg.workload+".json"))
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(struct {
		Workload string            `json:"workload"`
		Seed     int64             `json:"seed"`
		Ops      int               `json:"ops"`
		Metrics  map[string]metric `json:"metrics"`
		Spans    []span            `json:"spans"`
	}{cfg.workload, cfg.seed, tr.ops, metrics, tr.spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// traceServed traces the first n ops of a served workload.
func traceServed(ctx context.Context, cfg config, n int) (*traceRun, error) {
	tr := &traceRun{}
	// The same ops untraced, one at a time, on a fresh fleet: the base of
	// trace.overhead_frac.
	w, err := newWorkload(ctx, cfg)
	if err != nil {
		return nil, err
	}
	n = min(n, w.ops())
	ld := drive(w, 1, n, 1, time.Hour)
	w.close()
	if ld.err != nil {
		return nil, ld.err
	}
	tr.untraced = ld.wall

	w, err = newWorkload(ctx, cfg)
	if err != nil {
		return nil, err
	}
	s := w.(*served)
	defer s.close()
	var twins []*httptest.Server
	for range s.f.backends {
		ts := httptest.NewServer(service.New(backendConfig()).Handler())
		defer ts.Close()
		twins = append(twins, ts)
	}
	client := newClient()
	defer client.CloseIdleConnections()
	rep := newReplayer()
	// Warm the twins and the replayer with the set-up's warm set, exactly
	// as the fleet was warmed.
	for _, rq := range s.warmed {
		if _, err := tr.call(s, twins, client, rep, nil, -1, rq); err != nil {
			return nil, fmt.Errorf("warming twins: %w", err)
		}
	}
	rep.paths = paths{}

	before, err := s.f.stats(ctx)
	if err != nil {
		return nil, err
	}
	t := newTracer()
	start := time.Now()
	for i := 0; i < n; i++ {
		a, err := tr.call(s, twins, client, rep, t, i, s.request(i))
		if err != nil {
			tr.failed++
			if tr.err == nil {
				tr.err = fmt.Errorf("op %d: %w", i, err)
			}
			continue
		}
		tr.sumII += a.II
		tr.sumQueues += a.Queues + a.RingQueues
		if a.Bound != nil && a.Bound.Optimal {
			tr.proved++
		}
	}
	tr.tracedWall = time.Since(start)
	after, err := s.f.stats(ctx)
	if err != nil {
		return nil, err
	}
	tr.ops, tr.spans, tr.tally, tr.delta = n, t.spans, rep.tally, diffStats(before, after)
	// The ops ran one at a time, so the fleet neither coalesced nor failed
	// over, and the replay must have taken the fleet's paths.
	if rep.paths != tr.delta.paths || tr.delta.failovers != 0 || tr.delta.coalesced != 0 {
		tr.err = errors.Join(tr.err, fmt.Errorf("replay paths %+v, fleet /stats %+v with %d failovers and %d coalesced",
			rep.paths, tr.delta.paths, tr.delta.failovers, tr.delta.coalesced))
	}
	return tr, nil
}

// orders cycles the twin call, the gateway call and the replay through
// every order: whichever compiles a loop first runs with cold processor
// caches, and whichever follows the replay inherits its garbage.
var orders = [][3]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}

// call sends one request to the owner's twin and through the gateway, and
// replays it, in the op's place in orders; all three answers must agree.
// With a nil tracer it only warms the twin and the replayer.
func (tr *traceRun) call(s *served, twins []*httptest.Server, client *http.Client, rep *replayer, t *tracer, op int, rq request) (answer, error) {
	var req service.CompileRequest
	if err := json.Unmarshal(rq.body, &req); err != nil {
		return answer{}, err
	}
	root := t.add(op, -1, "gateway", time.Now(), 0)
	routeStart := time.Now()
	owner := s.f.gw.Route(&req)
	t.add(op, root, "gateway.route", routeStart, time.Since(routeStart))
	svc := t.add(op, root, "service", time.Now(), 0)

	var (
		a                          answer
		twStatus                   int
		twBody, gwBody, replayBody []byte
	)
	steps := []func() error{
		func() error {
			start := time.Now()
			status, body, lat, err := post(client, twins[owner].URL+"/compile", rq.body)
			if err != nil {
				return fmt.Errorf("twin: %w", err)
			}
			twStatus, twBody = status, body
			t.set(svc, start, lat)
			return nil
		},
		func() error {
			if t == nil {
				return nil // the fleet was warmed in set-up
			}
			start := time.Now()
			var lat time.Duration
			var err error
			a, gwBody, lat, err = s.call(rq)
			t.set(root, start, lat)
			return err
		},
		func() error {
			var err error
			if replayBody, err = rep.serve(t, op, svc, rq.body); err != nil {
				return fmt.Errorf("replay: %w", err)
			}
			return nil
		},
	}
	for _, k := range orders[max(op, 0)%len(orders)] {
		if err := steps[k](); err != nil {
			return answer{}, err
		}
	}
	switch {
	case twStatus != 200:
		return answer{}, fmt.Errorf("twin: %w", errStatus(twStatus, twBody))
	case t != nil && !bytes.Equal(twBody, gwBody):
		return answer{}, fmt.Errorf("twin answered %q, the fleet %q", twBody, gwBody)
	case !bytes.Equal(replayBody, twBody):
		return answer{}, fmt.Errorf("replay answered %q, the twin %q", replayBody, twBody)
	}
	return a, nil
}

// traceSweep traces n RunAll passes one figure function at a time, on one
// worker so the stage times nest inside the figure that ran them.
func traceSweep(ctx context.Context, cfg config, n int) (*traceRun, error) {
	w, err := newWorkload(ctx, cfg)
	if err != nil {
		return nil, err
	}
	opts := exp.Options{Loops: w.(*sweep).loops, Workers: 1}
	tr := &traceRun{ops: n}
	var want bytes.Buffer
	start := time.Now()
	for k := 0; k < n; k++ {
		want.Reset()
		exp.RunAll(&want, opts)
	}
	tr.untraced = time.Since(start)

	t := newTracer()
	start = time.Now()
	for k := 0; k < n; k++ {
		o := opts
		o.Pipeline = exp.NewPipeline()
		var got bytes.Buffer
		passStart := time.Now()
		root := t.add(k, -1, "exp", passStart, 0)
		for _, f := range figures {
			before := o.Pipeline.StageNanos()
			figStart := time.Now()
			f.fn(o).Fprint(&got)
			id := t.add(k, root, "exp."+f.name, figStart, time.Since(figStart))
			after := o.Pipeline.StageNanos()
			at := figStart
			for _, st := range vliwq.StageNames() {
				if d := time.Duration(after[st] - before[st]); d > 0 {
					t.add(k, id, stageSpans[st], at, d)
					at = at.Add(d)
				}
			}
		}
		t.set(root, passStart, time.Since(passStart))
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			tr.failed++
			tr.err = fmt.Errorf("pass %d: figure-by-figure output differs from RunAll", k)
		}
	}
	tr.tracedWall = time.Since(start)
	tr.spans = t.spans
	return tr, nil
}

// values computes every per-layer metric of the run.
func (tr *traceRun) values() map[string]float64 {
	ops := float64(max(tr.ops, 1))
	total := tr.totals()
	selfOf := map[string]int64{}
	layerSelf := map[string]int64{}
	var rootSum int64
	for i, self := range selfTimes(tr.spans) {
		s := tr.spans[i]
		selfOf[s.Name] += self
		layerSelf[layerOf(s.Name)] += self
		if s.Parent < 0 {
			rootSum += s.Dur
		}
	}
	per := func(ns int64, unit float64) float64 { return float64(ns) / unit / ops }
	const us, msec = 1e3, 1e6
	c, d := tr.tally, tr.delta
	v := map[string]float64{
		"gateway.route_us":             per(total["gateway.route"], us),
		"gateway.hop_us":               per(total["gateway"]-total["service"], us),
		"gateway.failovers":            float64(d.failovers),
		"gateway.coalesced":            float64(d.coalesced),
		"service.self_us":              per(selfOf["service"], us),
		"service.decode_us":            per(total["service.decode"], us),
		"service.render_us":            per(total["service.render"], us),
		"service.encode_us":            per(total["service.encode"], us),
		"service.exact_hit_ratio":      float64(d.paths.hits) / ops,
		"service.structural_hit_ratio": float64(d.paths.structHits) / ops,
		"service.reordered":            float64(d.paths.reordered),
		"service.renumbered":           float64(d.paths.renumbered),
		"service.compiles_per_op":      float64(d.paths.compiles) / ops,
		"vliwq.normalize_us":           per(total["vliwq.normalize"], us),
		"vliwq.structural_key_us":      per(total["vliwq.structural_key"], us),
		"vliwq.remap_us":               per(total["vliwq.remap"], us),
		"vliwq.compile_self_ms":        per(selfOf["vliwq.compile"], msec),
		"ir.parse_us":                  per(total["ir.parse"], us),
		"ir.fingerprint_us":            per(total["ir.fingerprint"], us),
		"ir.skeleton_us":               per(total["ir.skeleton"], us),
		"ir.alignlike_us":              per(total["ir.alignlike"], us),
		"unroll.us":                    per(total["unroll"], us),
		"unroll.ops_out":               float64(c.opsOut),
		"copyins.us":                   per(total["copyins"], us),
		"copyins.copies":               float64(c.copies),
		"sched.ms":                     per(total["sched"], msec),
		"sched.attempts":               float64(c.attempts),
		"sched.placements":             float64(c.placements),
		"sched.evictions":              float64(c.evictions),
		"sched.pruned_nodes":           float64(c.pruned),
		"sched.ii_gap":                 float64(c.iiGap),
		"sched.sum_ii":                 float64(tr.sumII),
		"sched.proved_frac":            float64(tr.proved) / ops,
		"queue.alloc_us":               per(total["queue"], us),
		"queue.count":                  float64(c.queueCount),
		"queue.sum_queues":             float64(tr.sumQueues),
		"sim.verify_ms":                per(total["sim"], msec),
		"sim.issues":                   float64(c.issues),
		"trace.overhead_frac":          tr.tracedWall.Seconds()/tr.untraced.Seconds() - 1,
		"trace.stage_err_frac":         tr.stageErr(total),
	}
	if c.issues > 0 {
		v["sim.ns_per_issue"] = float64(total["sim"]) / float64(c.issues)
	}
	for _, f := range figures {
		v["exp."+f.name+"_ms"] = per(total["exp."+f.name], msec)
	}
	for _, l := range layers {
		if rootSum > 0 {
			v["ledger."+l] = float64(layerSelf[l]) / float64(rootSum)
		}
	}
	return v
}

// totals sums span durations by span name.
func (tr *traceRun) totals() map[string]int64 {
	total := map[string]int64{}
	for _, s := range tr.spans {
		total[s.Name] += s.Dur
	}
	return total
}

// stageErr is the gap between the replayed stage spans and the fleet's
// /stats stage_nanos delta for the same ops, summed over stages as a share
// of the fleet's stage time. Weighting by stage time keeps stages under a
// percent of it, where one GC pause decides the total, from swamping the
// measure. When the fleet ran no stage it is 0 if the replay ran none
// either (warm) and 1 if it did; sweep has no fleet and reads 0.
func (tr *traceRun) stageErr(total map[string]int64) float64 {
	if tr.delta.stages == nil {
		return 0
	}
	var gap, served int64
	for _, stage := range vliwq.StageNames() {
		ns := tr.delta.stages[stage]
		d := total[stageSpans[stage]] - ns
		gap += max(d, -d)
		served += ns
	}
	switch {
	case served > 0:
		return float64(gap) / float64(served)
	case gap > 0:
		return 1
	}
	return 0
}
