package vliwq

import (
	"context"
	"fmt"
	"runtime"

	"vliwq/internal/cache"
	"vliwq/internal/pool"
)

// CompilerConfig tunes a Compiler session. The zero value is a sensible
// session: an unbounded result cache and GOMAXPROCS batch workers; a
// request that omits its machine or effort takes the library defaults
// ("single:6", fast). Long-running sessions fed by untrusted request
// streams should bound the cache (the vliwd service layers its own
// bounded whole-response cache instead and compiles through
// CompileContext, holding no session).
type CompilerConfig struct {
	// CacheEntries bounds the session's result cache: 0 means unbounded,
	// a negative value disables caching (every Run compiles). The cache is
	// keyed by Request.Canonical() plus the RunUntil cutoff, so identical
	// requests share one compilation per session.
	CacheEntries int
	// Workers bounds RunBatch parallelism; 0 uses GOMAXPROCS.
	Workers int
}

// runOutcome is the cached unit of a Compiler session: one request's
// Result or its error (compilation is deterministic, so errors cache as
// well as successes).
type runOutcome struct {
	res *Result
	err error
}

// Compiler is a configured compilation session: an optional shared result
// cache and a batch worker bound over the staged pipeline engine. It is safe
// for concurrent use; cached Results are shared pointers and must be
// treated as read-only. Create one with NewCompiler.
type Compiler struct {
	cfg   CompilerConfig
	cache *cache.Cache[string, runOutcome] // nil when caching is disabled
}

// NewCompiler builds a session from cfg.
func NewCompiler(cfg CompilerConfig) *Compiler {
	c := &Compiler{cfg: cfg}
	if cfg.CacheEntries >= 0 {
		c.cache = cache.New[string, runOutcome](
			cache.Options{MaxEntries: cfg.CacheEntries}, cache.StringHash)
	}
	return c
}

// Run compiles one request through the full pipeline: parse, unroll, copy
// insertion, partitioned modulo scheduling, queue allocation and — unless
// the request skips it — simulator verification. Fast-effort output is
// byte-identical to the historical Compile path (both run the same staged
// engine). Results may be served from the session cache; a cached compile
// runs detached from the requesting context so one cancelled caller
// cannot poison the shared entry.
func (c *Compiler) Run(ctx context.Context, req Request) (*Result, error) {
	return c.RunUntil(ctx, req, StageVerify)
}

// RunUntil compiles a request but stops the pipeline after the named
// stage, returning a partial Result whose artifact fields (AfterUnroll,
// AfterCopies, Sched, Alloc) and Stages timings cover exactly the stages
// that ran — the staged mode behind vliwsched -dump-after. StageVerify
// runs the full pipeline (still honouring Request.SkipVerify).
func (c *Compiler) RunUntil(ctx context.Context, req Request, until Stage) (*Result, error) {
	if until >= NumStages {
		return nil, fmt.Errorf("vliwq: unknown stage %d", uint8(until))
	}
	return c.run(ctx, Prepare(req), until)
}

// run compiles a prepared request up to `until`, through the session
// cache when there is one.
func (c *Compiler) run(ctx context.Context, p *Prepared, until Stage) (*Result, error) {
	if err := p.Err(); err != nil {
		return nil, err
	}
	if c.cache == nil {
		return c.compute(ctx, p, until)
	}
	// The cutoff participates in the key: a partial artifact must never be
	// replayed as a full compilation or vice versa.
	key := p.Canonical() + ";until=" + until.String()
	oc := c.cache.Do(key, func() runOutcome {
		res, err := c.compute(context.Background(), p, until)
		return runOutcome{res: res, err: err}
	})
	return oc.res, oc.err
}

// compute compiles one normalized request, parsing its loop only if
// nothing has yet.
func (c *Compiler) compute(ctx context.Context, p *Prepared, until Stage) (*Result, error) {
	loop, err := p.Loop()
	if err != nil {
		return nil, err
	}
	opts, err := p.Options()
	if err != nil {
		return nil, err
	}
	return compileStaged(ctx, loop, opts, until)
}

// RunBatch compiles every request on a fixed pool of CompilerConfig.Workers
// workers (internal/pool) and returns the results in input order: out[i]
// always corresponds to reqs[i], whatever the worker interleaving. When ctx
// is cancelled, every unstarted request reports ctx.Err() and the returned
// slice still has len(reqs) entries; in-flight compiles of an uncached
// session stop at their next stage boundary, while a cached session's
// compiles run detached (see Run).
func (c *Compiler) RunBatch(ctx context.Context, reqs []Request) []BatchResult {
	out := make([]BatchResult, len(reqs))
	workers := c.cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	pool.Run(ctx, len(reqs), workers, func(i int) {
		r, err := c.RunUntil(ctx, reqs[i], StageVerify)
		out[i] = BatchResult{Result: r, Err: err}
	}, func(i int) {
		out[i] = BatchResult{Err: ctx.Err()}
	})
	return out
}
