package vliwq

import (
	"context"
	"fmt"
	"runtime"

	"vliwq/internal/pool"
)

// CompilerConfig tunes a Compiler session. The zero value is a sensible
// session: GOMAXPROCS batch workers; a request that omits its machine or
// effort takes the library defaults ("single:6", fast).
type CompilerConfig struct {
	// CacheEntries is ignored: a session keeps no result cache, and every
	// Run compiles under its caller's context.
	//
	// Deprecated: set nothing. A caller that repeats requests caches the
	// answers itself, as the vliwd service does.
	CacheEntries int
	// Workers bounds RunBatch parallelism; 0 uses GOMAXPROCS.
	Workers int
}

// Compiler is a configured compilation session: a batch worker bound over
// the staged pipeline engine. It is safe for concurrent use. Create one
// with NewCompiler.
type Compiler struct {
	cfg CompilerConfig
}

// NewCompiler builds a session from cfg.
func NewCompiler(cfg CompilerConfig) *Compiler {
	return &Compiler{cfg: cfg}
}

// Run compiles one request through the full pipeline: parse, unroll, copy
// insertion, partitioned modulo scheduling, queue allocation and — unless
// the request skips it — simulator verification. Fast-effort output is
// byte-identical to the historical Compile path (both run the same staged
// engine).
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
	p := Prepare(req)
	opts, err := p.Options()
	if err != nil {
		return nil, err
	}
	loop, err := p.Loop()
	if err != nil {
		return nil, err
	}
	return compileStaged(ctx, loop, opts, until)
}

// RunBatch compiles every request on a fixed pool of CompilerConfig.Workers
// workers (internal/pool) and returns the results in input order: out[i]
// always corresponds to reqs[i], whatever the worker interleaving. When ctx
// is cancelled, every unstarted request reports ctx.Err() and the returned
// slice still has len(reqs) entries; in-flight compiles stop at their next
// stage boundary.
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
