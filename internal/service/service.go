// Package service implements the vliwd compilation service: a long-running
// HTTP/JSON front end over the vliwq pipeline, backed by the shared
// internal/cache compile cache.
//
// Endpoints:
//
//	POST /compile  one loop (text format in the JSON body) -> schedule + metrics
//	POST /batch    a request set, compiled on a worker pool, results in input order
//	GET  /healthz  liveness probe
//	GET  /stats    request, scheduler and cache counters
//
// Compilation is deterministic, so responses are cacheable: the cache key
// is vliwq.Request.Canonical() — the one canonical request encoding the
// library, this service and the gateway share — and each distinct request
// compiles exactly once per cache lifetime; concurrent identical requests
// share one compute through the cache's singleflight.
//
// Beneath the exact cache sits a structural cache keyed by
// vliwq.Request.StructuralKey() — the knobs plus the loop's dependence-graph
// fingerprint — so a request whose loop is a renamed spelling of one already
// compiled reuses that compile via a name remap instead of running the
// pipeline (DESIGN.md §12). Both levels coalesce concurrent misses into a
// single compute; /stats surfaces the structural layer's hit, coalesced and
// renumbered counters.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"vliwq"
	"vliwq/internal/cache"
	"vliwq/internal/ir"
	"vliwq/internal/metrics"
	"vliwq/internal/pool"
	"vliwq/internal/sched"
)

// DeadlineHeader carries a request's remaining time budget end to end: a Go
// duration string ("750ms", "2s") set by the client, tightened by the
// gateway at every hop to the time actually left, and applied here as the
// request context's deadline — so a client deadline cancels backend work at
// the next pipeline stage boundary instead of letting an abandoned compile
// run to completion. An absent header means the caller accepts the server's
// own bounds.
const DeadlineHeader = "X-Vliw-Deadline"

// minDeadline floors the budget DeadlineHeader may impose: a microsecond
// budget would cancel every request before the handler even decodes it,
// turning a misconfigured client into a self-inflicted outage.
const minDeadline = time.Millisecond

// ParseDeadline extracts the DeadlineHeader budget: the duration, whether
// the header was present, and a parse error a handler should answer 400.
func ParseDeadline(h http.Header) (time.Duration, bool, error) {
	v := h.Get(DeadlineHeader)
	if v == "" {
		return 0, false, nil
	}
	d, err := time.ParseDuration(v)
	if err != nil {
		return 0, false, fmt.Errorf("bad %s header %q: %w", DeadlineHeader, v, err)
	}
	if d <= 0 {
		return 0, false, fmt.Errorf("bad %s header %q: budget must be positive", DeadlineHeader, v)
	}
	return d, true, nil
}

// Config tunes a Server. The zero value serves correctly — unbounded
// cache, GOMAXPROCS batch workers, 4 MiB body cap — but a long-running
// deployment should bound the cache: entries are keyed by client request
// bodies, so unbounded mode grows with every distinct request (cmd/vliwd
// defaults to a 65536-entry bound for exactly that reason).
type Config struct {
	// CacheEntries bounds the compile cache: 0 means unbounded, a negative
	// value disables caching entirely (every request compiles, and the
	// structural layer is off with the exact one).
	CacheEntries int
	// Workers bounds per-batch compile parallelism; 0 uses GOMAXPROCS.
	Workers int
	// MaxBatch caps the request count of one /batch call; 0 means
	// DefaultMaxBatch.
	MaxBatch int
	// MaxBodyBytes caps the request body; 0 means 4 MiB.
	MaxBodyBytes int64
	// MaxInflight bounds concurrently admitted /compile and /batch calls;
	// calls beyond the bound are shed immediately with 429 and a
	// Retry-After header instead of queueing behind a saturated worker
	// pool. 0 disables the gate. A /batch call holds one slot regardless
	// of its size — per-batch compile parallelism is already bounded by
	// Workers, so the gate controls call concurrency, not compile
	// concurrency.
	MaxInflight int
	// SLOTarget is the compile-latency budget driving the degradation
	// ladder: when the EWMA of recent compile latencies exceeds it, the
	// server downgrades requested effort one step at a time
	// (optimal → exhaustive → balanced → fast), and recovers a step once
	// the EWMA falls below half the target. 0 disables degradation.
	SLOTarget time.Duration
}

// CompileRequest is the JSON body of POST /compile and each element of a
// /batch request set. It IS the library's canonical vliwq.Request — one
// request encoding across library, cache, service and gateway — so the
// wire format, the cache key (Request.Canonical) and the gateway's routing
// key can never drift apart. Field semantics, defaults and validation live
// on vliwq.Request; the service surfaces Normalize errors as HTTP 400 with
// the sorted valid-value lists the library errors carry.
type CompileRequest = vliwq.Request

// CompileResponse carries the schedule and the headline metrics of one
// compiled loop — the same numbers vliwq.Result reports, plus the rendered
// report and kernel table.
type CompileResponse struct {
	Loop       string  `json:"loop"`
	Machine    string  `json:"machine"`
	Unrolled   int     `json:"unrolled"`
	II         int     `json:"ii"`
	MII        int     `json:"mii"`
	Stages     int     `json:"stages"`
	IPCStatic  float64 `json:"ipc_static"`
	IPCDynamic float64 `json:"ipc_dynamic"`
	Queues     int     `json:"queues"`
	RingQueues int     `json:"ring_queues"`
	Effort     string  `json:"effort"`
	Strategy   string  `json:"strategy"`
	Report     string  `json:"report"`
	Kernel     string  `json:"kernel"`

	// Bound is the optimality certificate, present only on effort:optimal
	// responses (other tiers omit the field entirely, keeping their JSON
	// byte-identical to pre-optimal responses).
	Bound *BoundInfo `json:"bound,omitempty"`

	// Degraded marks a response compiled at less effort than the request
	// asked for because the SLO ladder was active; Effort reports the
	// effort actually spent and RequestedEffort what the client asked for.
	// Degraded results are cached under the canonical key of the effort
	// that ran, never under the requested effort's key — a degraded fast
	// schedule must not masquerade as an exhaustive one once pressure
	// subsides.
	Degraded        bool   `json:"degraded,omitempty"`
	RequestedEffort string `json:"requested_effort,omitempty"`
}

// BoundInfo is the wire form of vliwq.Bound: the proved lower bound on II
// and whether the achieved II was proved equal to it. deadline_cut marks a
// certificate cut by the request's deadline rather than the deterministic
// node budget; such responses are served but never cached (see fate).
type BoundInfo struct {
	Lower       int  `json:"lower"`
	Optimal     bool `json:"optimal"`
	DeadlineCut bool `json:"deadline_cut,omitempty"`
}

// BatchRequest is the JSON body of POST /batch.
type BatchRequest struct {
	Requests []CompileRequest `json:"requests"`
}

// BatchEntry is the outcome for the request at the same index: exactly one
// of Response and Error is set.
type BatchEntry struct {
	Response *CompileResponse `json:"response,omitempty"`
	Error    string           `json:"error,omitempty"`
}

// BatchResponse is the JSON body answering POST /batch; Results[i] always
// corresponds to Requests[i].
type BatchResponse struct {
	Results []BatchEntry `json:"results"`
}

// SchedStats aggregates scheduler outcomes across every compile the server
// has executed (cache hits replay a previous outcome and are not recounted).
type SchedStats struct {
	Compiles     int64 `json:"compiles"`      // pipeline executions
	Errors       int64 `json:"errors"`        // pipeline executions that failed
	OpsScheduled int64 `json:"ops_scheduled"` // total ops placed (post-unroll/copies)
	IISum        int64 `json:"ii_sum"`        // sum of achieved IIs

	// StrategyWins counts, per strategy name, how many compiles that
	// strategy's schedule won — the fleet-wide observability hook for the
	// portfolio scheduler (the gateway sums these maps across backends).
	// Only strategies with at least one win appear.
	StrategyWins map[string]int64 `json:"strategy_wins,omitempty"`

	// StageNanos sums, per pipeline stage name (vliwq.Stage), the
	// wall-clock nanoseconds compiles spent in that stage — the staged
	// engine's Result.Stages rolled up across every pipeline execution.
	// Cache hits replay outcomes without re-running stages and are not
	// recounted. The gateway sums these maps fleet-wide.
	StageNanos map[string]int64 `json:"stage_nanos,omitempty"`

	// Machines counts compiles per normalized machine spec
	// (machine.Config.Spec notation, e.g. "clustered:4") so operators see
	// which targets a backend actually compiles for, in the same spec
	// notation requests use. The gateway sums these maps fleet-wide.
	Machines map[string]int64 `json:"machines,omitempty"`
}

// AdmissionStats reports the inflight gate: how many calls are currently
// admitted, the bound, and how many were shed with 429.
type AdmissionStats struct {
	MaxInflight int   `json:"max_inflight"` // 0 = gate disabled
	Inflight    int   `json:"inflight"`     // calls currently admitted
	Shed        int64 `json:"shed"`         // calls answered 429
}

// SLOStats reports the degradation ladder: the latency budget, the current
// compile-latency EWMA, the active degradation level (0 = full effort,
// 3 = everything runs fast), and how many requests were answered degraded.
type SLOStats struct {
	TargetMillis float64 `json:"target_ms"` // 0 = ladder disabled
	EWMAMillis   float64 `json:"ewma_ms"`
	Level        int     `json:"level"`
	Degraded     int64   `json:"degraded"`
}

// StructuralStats reports the structural (isomorphism-class) cache layer:
// how many exact-cache misses were served by remapping a structurally
// cached compile instead of running the pipeline.
type StructuralStats struct {
	Enabled bool `json:"enabled"`
	// Hits counts exact-misses served by remap: the loop was a renamed
	// spelling of an already-compiled class, skeleton-verified.
	Hits int64 `json:"hits"`
	// Coalesced is the subset of Hits that joined a compile still in
	// flight — concurrent isomorphic requests collapsed onto one pipeline
	// run. (The exact cache separately coalesces byte-identical requests;
	// its counter lives under cache.coalesced.)
	Coalesced int64 `json:"coalesced"`
	// Reordered is the subset of Hits whose spelling was
	// statement-permuted relative to the cached class: the skeleton gate
	// rejected it as-is, but ir.AlignLike renumbered it into the class
	// leader's canonical statement order, after which the ordinary
	// rename-only remap applied. Reordered responses are deterministic
	// (every identically-warmed server serves the same bytes) but carry
	// the class leader's schedule rather than a fresh compile of the
	// permuted spelling, whose ID-based tie-breaking could differ.
	Reordered int64 `json:"reordered"`
	// Renumbered counts fingerprint matches rejected by the skeleton gate
	// that AlignLike could not map onto the cached class (no alignment
	// exists, or the spelling carries unroll lineage), so they compiled
	// fresh.
	Renumbered int64 `json:"renumbered"`
	// Entries is the structural cache's current size (one per compiled
	// isomorphism class).
	Entries int64 `json:"entries"`
}

// OptimalStats aggregates the certified tier's outcomes across every
// compile that carried a certificate: how many were proved optimal, how
// many came back as unproved incumbents (budget or deadline cut), and the
// total branch-and-bound nodes pruned. The gateway sums these fleet-wide.
type OptimalStats struct {
	Proved      int64 `json:"proved"`
	Incumbent   int64 `json:"incumbent"`
	PrunedNodes int64 `json:"pruned_nodes"`
}

// StatsResponse is the JSON body of GET /stats.
type StatsResponse struct {
	UptimeSeconds   float64 `json:"uptime_seconds"`
	GoMaxProcs      int     `json:"gomaxprocs"`
	CompileRequests int64   `json:"compile_requests"`
	BatchRequests   int64   `json:"batch_requests"`
	BatchItems      int64   `json:"batch_items"`
	RequestErrors   int64   `json:"request_errors"`
	// DeadlineExceeded counts requests whose propagated deadline cancelled
	// the compile (answered 504).
	DeadlineExceeded int64           `json:"deadline_exceeded"`
	Admission        AdmissionStats  `json:"admission"`
	SLO              SLOStats        `json:"slo"`
	CacheEnabled     bool            `json:"cache_enabled"`
	Cache            cache.Stats     `json:"cache"`
	Structural       StructuralStats `json:"structural"`
	Optimal          OptimalStats    `json:"optimal"`
	Sched            SchedStats      `json:"sched"`
}

// outcome is the cached unit: one request's response or its error rendered
// as a string (compilation is deterministic, so errors cache as well as
// successes). ctxErr marks context cancellation — the one error class that
// is NOT deterministic (it belongs to the requester's deadline, not the
// request). deadlineCut is the success-path analogue: an optimal-tier
// response whose certificate was cut by the caller's deadline, whose proof
// depth is wall-clock dependent (budget cuts, by contrast, are
// deterministic and cache normally).
type outcome struct {
	resp        *CompileResponse
	err         string
	ctxErr      bool
	deadlineCut bool
}

// structEntry is the structural cache's unit: one isomorphism class's
// compiled Result plus the skeleton of the spelling that compiled it — the
// gate a later spelling must pass (skeleton equality = name-only
// isomorphism) before the Result may be remapped onto its names.
type structEntry struct {
	res    *vliwq.Result
	skel   string
	err    string
	ctxErr bool
}

// fate is both cache layers' rule for a compute's outcome. A context error
// belongs to the leader's deadline, so the callers waiting on it compile
// under their own (Retry). An outcome no other caller may reuse later — a
// deadline-cut certificate, or a structural pipeline error whose text names
// the class leader's operands — is served to them but never kept (Share).
// Everything else is deterministic and kept.
func fate(ctxErr, unkept bool) cache.Fate {
	switch {
	case ctxErr:
		return cache.Retry
	case unkept:
		return cache.Share
	}
	return cache.Keep
}

// Server is the vliwd HTTP service. Create one with New; it is safe for
// concurrent use by any number of requests.
type Server struct {
	cfg      Config
	compiler *vliwq.Compiler               // uncached session; the response cache below dedups
	cache    *cache.Cache[string, outcome] // nil when caching is disabled
	// structs is the structural (isomorphism-class) cache beneath the exact
	// cache: StructuralKey -> compiled Result. In-memory only — it holds
	// live Result graphs, which the snapshot codec deliberately does not
	// serialize (a warm restart repopulates it from recompiles; the exact
	// cache is what persists). Nil when caching is disabled.
	structs *cache.Cache[string, structEntry]
	mux     *http.ServeMux
	start   time.Time

	compileRequests atomic.Int64
	batchRequests   atomic.Int64
	batchItems      atomic.Int64
	requestErrors   atomic.Int64

	// Admission gate: a slot per admitted call when MaxInflight > 0.
	inflight chan struct{}
	shed     atomic.Int64

	// Degradation ladder: latEWMA tracks compile latency, level is how many
	// effort steps the server currently shaves off requests (0..3).
	latEWMA  *metrics.EWMA
	level    atomic.Int32
	degraded atomic.Int64

	// timeouts counts compiles cancelled by a propagated deadline (504s).
	timeouts atomic.Int64

	// Structural-layer counters (see StructuralStats).
	structHits       atomic.Int64
	structCoalesced  atomic.Int64
	structReordered  atomic.Int64
	structRenumbered atomic.Int64

	// Certified-tier counters (see OptimalStats).
	optimalProved    atomic.Int64
	optimalIncumbent atomic.Int64
	optimalPruned    atomic.Int64

	compiles      atomic.Int64
	compileErrors atomic.Int64
	opsScheduled  atomic.Int64
	iiSum         atomic.Int64
	strategyWins  [sched.NumStrategies]atomic.Int64
	stageNanos    [vliwq.NumStages]atomic.Int64

	machinesMu sync.Mutex
	machines   map[string]int64 // compiles per normalized machine spec
}

// New builds a Server from cfg. The server runs an uncached
// vliwq.Compiler session — the service caches whole rendered responses
// (report and kernel strings included) under the same canonical key the
// compiler would use, so a second cache underneath would only duplicate
// every entry.
func New(cfg Config) *Server {
	s := &Server{
		cfg:      cfg,
		compiler: vliwq.NewCompiler(vliwq.CompilerConfig{CacheEntries: -1}),
		machines: make(map[string]int64),
		latEWMA:  metrics.NewEWMA(0.2),
		start:    time.Now(),
	}
	if cfg.MaxInflight > 0 {
		s.inflight = make(chan struct{}, cfg.MaxInflight)
	}
	if cfg.CacheEntries >= 0 {
		s.cache = cache.New[string, outcome](
			cache.Options{MaxEntries: cfg.CacheEntries}, cache.StringHash)
		// One entry per compiled isomorphism class; the same bound as the
		// exact cache is generous (classes <= exact keys).
		s.structs = cache.New[string, structEntry](
			cache.Options{MaxEntries: cfg.CacheEntries}, cache.StringHash)
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/compile", s.handleCompile)
	s.mux.HandleFunc("/batch", s.handleBatch)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/stats", s.handleStats)
	return s
}

// Handler returns the root handler for an http.Server.
func (s *Server) Handler() http.Handler { return s.mux }

func (s *Server) workers() int {
	if s.cfg.Workers > 0 {
		return s.cfg.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// DefaultMaxBatch is the /batch request-count cap when Config.MaxBatch is
// zero; the gateway mirrors it so a batch the gateway accepts is one every
// backend accepts after splitting.
const DefaultMaxBatch = 1024

func (s *Server) maxBatch() int {
	if s.cfg.MaxBatch > 0 {
		return s.cfg.MaxBatch
	}
	return DefaultMaxBatch
}

func (s *Server) maxBody() int64 {
	if s.cfg.MaxBodyBytes > 0 {
		return s.cfg.MaxBodyBytes
	}
	return 4 << 20
}

// runPipeline executes one compile for a prepared request and feeds
// every scheduler counter — including the per-stage wall-clock and
// per-machine-spec tallies the staged engine exposes; cached paths (exact
// and structural) replay outcomes without recounting. On error it returns
// the rendered error string plus the context-cancellation flag.
func (s *Server) runPipeline(ctx context.Context, p *vliwq.Prepared) (*vliwq.Result, string, bool) {
	s.compiles.Add(1)
	t0 := time.Now()
	res, err := s.compiler.RunPrepared(ctx, p)
	if err != nil {
		s.compileErrors.Add(1)
		return nil, err.Error(), errors.Is(err, context.Canceled) ||
			errors.Is(err, context.DeadlineExceeded)
	}
	s.observeLatency(time.Since(t0))
	s.opsScheduled.Add(int64(len(res.Sched.Loop.Ops)))
	s.iiSum.Add(int64(res.II))
	if res.Bound.Lower > 0 {
		if res.Bound.Optimal {
			s.optimalProved.Add(1)
		} else {
			s.optimalIncumbent.Add(1)
		}
		s.optimalPruned.Add(res.Sched.Stats.PrunedNodes)
	}
	s.strategyWins[res.Sched.Strategy].Add(1)
	for _, st := range res.Stages {
		s.stageNanos[st.Stage].Add(st.Duration.Nanoseconds())
	}
	s.machinesMu.Lock()
	s.machines[p.Request().Machine]++
	s.machinesMu.Unlock()
	return res, "", false
}

// render materializes the response for one compiled Result. The remap step
// guarantees a structurally served Result renders byte-identically to a
// fresh compile of the same spelling, so render never needs to know which
// path produced its input.
func (s *Server) render(res *vliwq.Result, effort string) *CompileResponse {
	resp := &CompileResponse{
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
		resp.Bound = &BoundInfo{
			Lower:       res.Bound.Lower,
			Optimal:     res.Bound.Optimal,
			DeadlineCut: res.Bound.DeadlineCut,
		}
	}
	return resp
}

// compute runs the pipeline for one prepared request and renders the
// outcome — the structural-cache-free path (caching disabled, unparseable
// loops, renumbered spellings, errors shared by a class leader).
func (s *Server) compute(ctx context.Context, p *vliwq.Prepared) outcome {
	res, errStr, ctxErr := s.runPipeline(ctx, p)
	if errStr != "" {
		return outcome{err: errStr, ctxErr: ctxErr}
	}
	return outcome{resp: s.render(res, p.Request().Effort), deadlineCut: res.Bound.DeadlineCut}
}

// compileClass runs the pipeline for the first spelling of an isomorphism
// class and records, alongside the Result, the skeleton of the loop that
// compiled — the remap precondition every later spelling is checked
// against. The pipeline compiles the same loop the skeleton is taken from:
// the one the prepared request parsed for its structural key.
func (s *Server) compileClass(ctx context.Context, p *vliwq.Prepared, loop *vliwq.Loop) structEntry {
	res, errStr, ctxErr := s.runPipeline(ctx, p)
	if errStr != "" {
		return structEntry{err: errStr, ctxErr: ctxErr}
	}
	return structEntry{res: res, skel: ir.Skeleton(loop)}
}

// computeRouted is the exact-cache miss path: before running the pipeline
// it consults the structural cache, so a loop that is a renamed spelling of
// an already-compiled class is served by remapping that class's Result onto
// the caller's names — verified byte-identical to a fresh compile by the
// skeleton gate. Concurrent misses on one class (including a renamed
// spelling racing the original) coalesce onto a single pipeline run via the
// cache's singleflight semantics; structural.coalesced counts the joiners.
//
// A fingerprint match whose skeleton differs is a statement-permuted
// spelling of the cached class. Those are canonically pre-ordered before
// reuse: ir.AlignLike renumbers the caller's spelling into the class
// leader's statement order (the first spelling to compile fixes the
// class's canonical order), re-checks the skeleton gate, and serves the
// rename-only remap — counted structural.reordered. Renamed-only
// spellings keep the strict fresh-compile byte-identity guarantee;
// reordered ones trade it for class-determinism: the served schedule is
// the leader's, valid for the caller's loop (same skeleton after
// alignment) and identical across identically-warmed servers, but a fresh
// compile of the permuted spelling could break ID-based ties differently.
//
// Fallbacks preserve pre-structural behaviour exactly: an unparseable loop
// (the pipeline owns the error text) or a permuted spelling AlignLike
// cannot map (no alignment exists, or unroll lineage is present) runs the
// plain compute path; those renumbered sightings are counted so the missed
// reuse is observable.
//
// The loop is parsed once, by the prepared request: the structural key,
// the skeleton gate, the remap and a compile on any path all use that one
// parse.
func (s *Server) computeRouted(ctx context.Context, p *vliwq.Prepared) outcome {
	loop, err := p.Loop()
	if err != nil {
		return s.compute(ctx, p)
	}
	ent, info, err := s.structs.DoWithInfo(ctx, p.StructuralKey(), func() (structEntry, cache.Fate) {
		ent := s.compileClass(ctx, p, loop)
		return ent, fate(ent.ctxErr, ent.err != "" || ent.res.Bound.DeadlineCut)
	})
	if err != nil {
		// This caller's deadline ended while it waited on another
		// spelling's compile.
		return outcome{err: err.Error(), ctxErr: true}
	}
	if ent.err != "" {
		if info.Created {
			return outcome{err: ent.err, ctxErr: ent.ctxErr}
		}
		// A shared pipeline error was rendered against the class leader's
		// spelling, and error text can embed operand names. Recompute under
		// the caller's own names so an error response is byte-identical to
		// a fresh compile, exactly like a success response.
		return s.compute(ctx, p)
	}
	cut := ent.res.Bound.DeadlineCut
	if info.Created {
		// This call ran the compile; its Result already carries the
		// caller's names.
		return outcome{resp: s.render(ent.res, p.Request().Effort), deadlineCut: cut}
	}
	reordered := false
	if ir.Skeleton(loop) != ent.skel {
		aligned, ok := ir.AlignLike(loop, ent.res.Input)
		if !ok || ir.Skeleton(aligned) != ent.skel {
			s.structRenumbered.Add(1)
			return s.compute(ctx, p)
		}
		loop, reordered = aligned, true
	}
	remapped, rerr := vliwq.RemapResult(ent.res, loop)
	if rerr != nil {
		// Unreachable given the skeleton gate above; compile fresh rather
		// than fail the request on a cache-layer defect.
		return s.compute(ctx, p)
	}
	s.structHits.Add(1)
	if reordered {
		s.structReordered.Add(1)
	}
	if info.Joined {
		s.structCoalesced.Add(1)
	}
	return outcome{resp: s.render(remapped, p.Request().Effort), deadlineCut: cut}
}

// maxDegradeLevel is the ladder's floor: three steps take optimal all the
// way to fast, and no request can degrade below fast. The certified tier
// sits at the top of the ladder — under pressure the first thing the server
// sheds is the optimality proof, which costs the most and changes the
// schedule the least.
const maxDegradeLevel = int32(3)

// observeLatency feeds one successful compile's wall clock into the EWMA
// and moves the degradation ladder: over the target, degrade one step;
// under half the target, recover one step. The half-target recovery bound
// is deliberate hysteresis — recovering the moment the EWMA dips under the
// target would re-admit the expensive efforts that pushed it over, and the
// ladder would oscillate every few requests.
func (s *Server) observeLatency(d time.Duration) {
	if s.cfg.SLOTarget <= 0 {
		s.latEWMA.Observe(float64(d.Nanoseconds()))
		return
	}
	avg := time.Duration(s.latEWMA.Observe(float64(d.Nanoseconds())))
	for {
		lvl := s.level.Load()
		switch {
		case avg > s.cfg.SLOTarget && lvl < maxDegradeLevel:
			if s.level.CompareAndSwap(lvl, lvl+1) {
				return
			}
		case avg <= s.cfg.SLOTarget/2 && lvl > 0:
			if s.level.CompareAndSwap(lvl, lvl-1) {
				return
			}
		default:
			return
		}
	}
}

// degrade lowers a normalized request's effort by the current ladder level,
// reporting what the client originally asked for and whether anything
// changed. It runs BEFORE any key is taken, so a degraded compile caches
// under the key of the effort that actually ran — never under the
// requested effort's key (see CompileResponse.Degraded).
func (s *Server) degrade(r *CompileRequest) (requested string, did bool) {
	lvl := s.level.Load()
	if lvl == 0 {
		return "", false
	}
	eff, err := vliwq.ParseEffort(r.Effort)
	if err != nil {
		return "", false // Normalize already vetted it; be safe anyway
	}
	ne := int(eff) - int(lvl)
	if ne < 0 {
		ne = 0
	}
	if vliwq.Effort(ne) == eff {
		return "", false
	}
	requested = r.Effort
	r.Effort = vliwq.Effort(ne).String()
	s.degraded.Add(1)
	return requested, true
}

// clientError marks a request-shape problem (HTTP 400) as opposed to a
// loop the pipeline rejects (HTTP 422).
type clientError struct{ error }

// timeoutError marks a compile cancelled by the request's deadline
// (HTTP 504) as opposed to a loop the pipeline rejects (HTTP 422).
type timeoutError struct{ error }

// compileOne serves one request through the cache layers — exact first
// (keyed by Canonical(), holding rendered responses), then structural on an
// exact miss (keyed by StructuralKey(), holding compiled Results remapped
// onto each spelling's names; see computeRouted), then the pipeline. The
// request is prepared first (vliwq.Prepared: normalized once, its keys and
// parsed loop memoized for every later layer), so every spelling of the
// same behaviour ("" vs "single:6") lands on one entry; Normalize errors
// are client errors (HTTP 400).
//
// Degradation happens between normalizing and taking any key: when the
// SLO ladder is active, the request is prepared again at the lowered
// effort, so the compile caches under the key of the effort that actually
// ran. The cached outcome itself is NOT marked degraded — a
// degraded-to-fast result IS a fast result, and a client genuinely asking
// for fast must not see degraded:true on a shared entry — the annotation
// goes on a per-request copy.
//
// Computes run under the leader's context so a propagated deadline cancels
// backend work at the next stage boundary, and each layer's fate rule
// decides, before any waiting caller is released, who else sees the
// outcome: a context error is the leader's alone (the waiting callers
// compile under their own deadlines), a deadline-cut certificate is shared
// but never kept. A waiting caller whose own deadline ends stops waiting
// and is answered 504 while the compile runs on for the others.
func (s *Server) compileOne(ctx context.Context, req *CompileRequest) (*CompileResponse, error) {
	p := s.compiler.Prepare(*req)
	if err := p.Err(); err != nil {
		return nil, clientError{err}
	}
	r := p.Request()
	requested, didDegrade := s.degrade(&r)
	if didDegrade {
		p = s.compiler.Prepare(r)
	}
	var oc outcome
	if s.cache != nil {
		var err error
		oc, _, err = s.cache.DoWithInfo(ctx, p.Canonical(), func() (outcome, cache.Fate) {
			oc := s.computeRouted(ctx, p)
			return oc, fate(oc.ctxErr, oc.deadlineCut)
		})
		if err != nil {
			oc = outcome{err: err.Error(), ctxErr: true}
		}
	} else {
		oc = s.compute(ctx, p)
	}
	if oc.ctxErr {
		s.timeouts.Add(1)
		return nil, timeoutError{errors.New(oc.err)}
	}
	if oc.err != "" {
		return nil, errors.New(oc.err)
	}
	if didDegrade {
		resp := *oc.resp
		resp.Degraded = true
		resp.RequestedEffort = requested
		return &resp, nil
	}
	return oc.resp, nil
}

// compileBatch fans the request set over a fixed worker pool (pool.Run,
// the same primitive vliwq.Compiler.RunBatch uses — the service goes
// through compileOne instead of RunBatch itself so batch items share the
// response cache). Results come back in input order regardless of worker
// interleaving; on cancellation, unstarted items report the context error.
func (s *Server) compileBatch(ctx context.Context, reqs []CompileRequest) []BatchEntry {
	out := make([]BatchEntry, len(reqs))
	pool.Run(ctx, len(reqs), s.workers(), func(i int) {
		resp, err := s.compileOne(ctx, &reqs[i])
		if err != nil {
			out[i] = BatchEntry{Error: err.Error()}
		} else {
			out[i] = BatchEntry{Response: resp}
		}
	}, func(i int) {
		out[i] = BatchEntry{Error: ctx.Err().Error()}
	})
	return out
}

// admit takes an inflight slot, shedding with 429 + Retry-After when the
// gate is full. Shed calls are NOT request errors (s.fail) — the request
// was well-formed, the server was busy — so they count under admission.shed
// only. Returns a release func (nil when the call was shed).
func (s *Server) admit(w http.ResponseWriter) (release func(), ok bool) {
	if s.inflight == nil {
		return func() {}, true
	}
	select {
	case s.inflight <- struct{}{}:
		return func() { <-s.inflight }, true
	default:
		s.shed.Add(1)
		w.Header().Set("Retry-After", "1")
		WriteJSON(w, http.StatusTooManyRequests,
			map[string]string{"error": "server at max inflight; retry shortly"})
		return nil, false
	}
}

// requestContext applies the propagated DeadlineHeader budget, if any, to
// the request context. A malformed header is answered 400 before any work
// runs; the budget is floored at minDeadline so a broken client cannot
// configure itself into a 100% self-cancel rate.
func (s *Server) requestContext(w http.ResponseWriter, r *http.Request) (context.Context, context.CancelFunc, bool) {
	d, ok, err := ParseDeadline(r.Header)
	if err != nil {
		s.fail(w, http.StatusBadRequest, err.Error())
		return nil, nil, false
	}
	if !ok {
		return r.Context(), func() {}, true
	}
	if d < minDeadline {
		d = minDeadline
	}
	ctx, cancel := context.WithTimeout(r.Context(), d)
	return ctx, cancel, true
}

// compileStatus maps a compileOne error onto its HTTP status: 400 for
// request-shape problems, 504 for deadline-cancelled compiles, 422 for
// loops the pipeline rejects.
func compileStatus(err error) int {
	var ce clientError
	if errors.As(err, &ce) {
		return http.StatusBadRequest
	}
	var te timeoutError
	if errors.As(err, &te) {
		return http.StatusGatewayTimeout
	}
	return http.StatusUnprocessableEntity
}

func (s *Server) handleCompile(w http.ResponseWriter, r *http.Request) {
	s.compileRequests.Add(1)
	if r.Method != http.MethodPost {
		s.fail(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	release, ok := s.admit(w)
	if !ok {
		return
	}
	defer release()
	ctx, cancel, ok := s.requestContext(w, r)
	if !ok {
		return
	}
	defer cancel()
	var req CompileRequest
	if err := s.decode(w, r, &req); err != nil {
		s.failDecode(w, err)
		return
	}
	resp, err := s.compileOne(ctx, &req)
	if err != nil {
		s.fail(w, compileStatus(err), err.Error())
		return
	}
	WriteJSON(w, http.StatusOK, resp)
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	s.batchRequests.Add(1)
	if r.Method != http.MethodPost {
		s.fail(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	release, ok := s.admit(w)
	if !ok {
		return
	}
	defer release()
	ctx, cancel, ok := s.requestContext(w, r)
	if !ok {
		return
	}
	defer cancel()
	var req BatchRequest
	if err := s.decode(w, r, &req); err != nil {
		s.failDecode(w, err)
		return
	}
	if len(req.Requests) > s.maxBatch() {
		s.fail(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("batch of %d exceeds the %d-request limit", len(req.Requests), s.maxBatch()))
		return
	}
	s.batchItems.Add(int64(len(req.Requests)))
	WriteJSON(w, http.StatusOK, BatchResponse{Results: s.compileBatch(ctx, req.Requests)})
}

// handleHealthz keeps its historical map[string]string body shape (probes
// and tests decode exactly that), gaining a "degraded" status plus a reason
// while the SLO ladder is active: a degraded backend is alive — the gateway
// must keep routing to it — but operators should see the pressure.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	body := map[string]string{"status": "ok"}
	if lvl := s.level.Load(); lvl > 0 {
		body["status"] = "degraded"
		body["reason"] = fmt.Sprintf(
			"slo ladder at level %d: compile latency ewma %.1fms over %v target",
			lvl, s.latEWMA.Value()/1e6, s.cfg.SLOTarget)
	}
	WriteJSON(w, http.StatusOK, body)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, s.Stats())
}

// Stats snapshots every counter the server maintains.
func (s *Server) Stats() StatsResponse {
	st := StatsResponse{
		UptimeSeconds:    time.Since(s.start).Seconds(),
		GoMaxProcs:       runtime.GOMAXPROCS(0),
		CompileRequests:  s.compileRequests.Load(),
		BatchRequests:    s.batchRequests.Load(),
		BatchItems:       s.batchItems.Load(),
		RequestErrors:    s.requestErrors.Load(),
		DeadlineExceeded: s.timeouts.Load(),
		Admission: AdmissionStats{
			MaxInflight: s.cfg.MaxInflight,
			Inflight:    len(s.inflight),
			Shed:        s.shed.Load(),
		},
		SLO: SLOStats{
			TargetMillis: float64(s.cfg.SLOTarget.Nanoseconds()) / 1e6,
			EWMAMillis:   s.latEWMA.Value() / 1e6,
			Level:        int(s.level.Load()),
			Degraded:     s.degraded.Load(),
		},
		CacheEnabled: s.cache != nil,
		Sched: SchedStats{
			Compiles:     s.compiles.Load(),
			Errors:       s.compileErrors.Load(),
			OpsScheduled: s.opsScheduled.Load(),
			IISum:        s.iiSum.Load(),
		},
	}
	for i := range s.strategyWins {
		if n := s.strategyWins[i].Load(); n > 0 {
			if st.Sched.StrategyWins == nil {
				st.Sched.StrategyWins = make(map[string]int64, len(s.strategyWins))
			}
			st.Sched.StrategyWins[sched.Strategy(i).String()] = n
		}
	}
	for i := range s.stageNanos {
		if n := s.stageNanos[i].Load(); n > 0 {
			if st.Sched.StageNanos == nil {
				st.Sched.StageNanos = make(map[string]int64, len(s.stageNanos))
			}
			st.Sched.StageNanos[vliwq.Stage(i).String()] = n
		}
	}
	s.machinesMu.Lock()
	if len(s.machines) > 0 {
		st.Sched.Machines = make(map[string]int64, len(s.machines))
		for spec, n := range s.machines {
			st.Sched.Machines[spec] = n
		}
	}
	s.machinesMu.Unlock()
	st.Structural = StructuralStats{
		Enabled:    s.structs != nil,
		Hits:       s.structHits.Load(),
		Coalesced:  s.structCoalesced.Load(),
		Reordered:  s.structReordered.Load(),
		Renumbered: s.structRenumbered.Load(),
	}
	if s.cache != nil {
		st.Cache = s.cache.Stats()
		st.Structural.Entries = s.structs.Stats().Entries
	}
	st.Optimal = OptimalStats{
		Proved:      s.optimalProved.Load(),
		Incumbent:   s.optimalIncumbent.Load(),
		PrunedNodes: s.optimalPruned.Load(),
	}
	return st
}

func (s *Server) decode(w http.ResponseWriter, r *http.Request, dst any) error {
	body := http.MaxBytesReader(w, r.Body, s.maxBody())
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return fmt.Errorf("bad request body: %w", err)
	}
	return nil
}

// failDecode maps a decode error onto its status: 413 when the body blew
// the MaxBytesReader cap (the client must shrink the request, not fix its
// JSON), 400 otherwise.
func (s *Server) failDecode(w http.ResponseWriter, err error) {
	code := http.StatusBadRequest
	if mbe := (*http.MaxBytesError)(nil); errors.As(err, &mbe) {
		code = http.StatusRequestEntityTooLarge
	}
	s.fail(w, code, err.Error())
}

func (s *Server) fail(w http.ResponseWriter, code int, msg string) {
	s.requestErrors.Add(1)
	WriteJSON(w, code, map[string]string{"error": msg})
}

// WriteJSON renders one JSON response body the way every endpoint in this
// system does — unescaped HTML, trailing newline. The gateway shares it so
// its error and stats bodies are framed indistinguishably from a backend's
// (the byte-identity contract the gateway tests pin down).
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}
