package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"vliwq"
	"vliwq/internal/corpus"
)

// TestEffortInCanonicalKey: effort is part of the request's behaviour, so
// it must be part of the cache key — and therefore of the gateway's
// routing hash, which is what keeps cache affinity intact per effort
// level. Behaviourally identical requests must collide: an omitted effort
// IS "fast", so the two share one key (one cache entry, one shard)
// while distinct levels key apart.
func TestEffortInCanonicalKey(t *testing.T) {
	base := CompileRequest{Loop: "loop x\ntrip 4\nop a load", Machine: "clustered:4"}
	fast := base
	fast.Effort = "fast"
	exhaustive := base
	exhaustive.Effort = "exhaustive"
	if base.Canonical() != fast.Canonical() {
		t.Fatal(`omitted effort and "fast" are the same behaviour but keyed apart`)
	}
	if base.Canonical() == exhaustive.Canonical() {
		t.Fatal("distinct effort levels collapsed to one key")
	}
	dup := base
	if dup.Canonical() != base.Canonical() {
		t.Fatal("identical requests produced distinct keys")
	}
}

// TestDefaultSpellingsShareOneCacheEntry is the key-fragmentation
// regression test: {"loop": L} and {"loop": L, "machine": "single:6",
// "copy_shape": "tree"} are the same behaviour, and under the historical
// raw-field CanonicalKey they landed in two cache entries (and on two
// gateway shards). Under Request.Canonical they must compile once and hit
// once.
func TestDefaultSpellingsShareOneCacheEntry(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	loop := vliwq.FormatLoop(corpus.KernelByName("daxpy"))
	bare := CompileRequest{Loop: loop}
	spelled := CompileRequest{Loop: loop, Machine: "single:6", CopyShape: "tree", Effort: "fast"}
	if bare.Canonical() != spelled.Canonical() {
		t.Fatalf("default spellings key apart:\n%q\nvs\n%q", bare.Canonical(), spelled.Canonical())
	}

	_, a := postJSON(t, ts.Client(), ts.URL+"/compile", bare)
	_, b := postJSON(t, ts.Client(), ts.URL+"/compile", spelled)
	if !bytes.Equal(a, b) {
		t.Fatalf("spellings of one request answered differently:\n%s\nvs\n%s", a, b)
	}
	st := srv.Stats()
	if st.Sched.Compiles != 1 {
		t.Fatalf("pipeline ran %d times for one canonical request", st.Sched.Compiles)
	}
	if st.Cache.Misses != 1 || st.Cache.Hits != 1 {
		t.Fatalf("cache saw misses=%d hits=%d, want exactly 1/1", st.Cache.Misses, st.Cache.Hits)
	}
}

// TestEffortCompile drives an exhaustive request end to end: the response
// must echo the normalized effort, name the winning strategy, and /stats
// must expose the per-strategy win counters the fleet aggregates.
func TestEffortCompile(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()

	loops := corpus.Generate(corpus.StressedParams())[:8]
	for _, l := range loops {
		req := CompileRequest{
			Loop:       vliwq.FormatLoop(l),
			Machine:    "clustered:4",
			Effort:     "exhaustive",
			SkipVerify: true,
		}
		resp, body := postJSON(t, client, ts.URL+"/compile", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", l.Name, resp.StatusCode, body)
		}
		var cr CompileResponse
		if err := json.Unmarshal(body, &cr); err != nil {
			t.Fatal(err)
		}
		if cr.Effort != "exhaustive" {
			t.Fatalf("%s: effort %q", l.Name, cr.Effort)
		}
		if cr.Strategy == "" {
			t.Fatalf("%s: response carries no winning strategy", l.Name)
		}
		if cr.II < cr.MII {
			t.Fatalf("%s: II %d below MII %d", l.Name, cr.II, cr.MII)
		}
	}

	st := srv.Stats()
	if st.Sched.Compiles != int64(len(loops)) {
		t.Fatalf("compiles = %d, want %d", st.Sched.Compiles, len(loops))
	}
	var wins int64
	for _, n := range st.Sched.StrategyWins {
		wins += n
	}
	if wins != int64(len(loops)) {
		t.Fatalf("strategy wins %v sum to %d, want %d", st.Sched.StrategyWins, wins, len(loops))
	}
}

// TestOptimalCompile drives the certified tier end to end: every optimal
// response must carry a self-consistent bound object, and /stats must
// split the outcomes into optimal.proved / optimal.incumbent with the
// pruned-node tally the fleet aggregates.
func TestOptimalCompile(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()

	p := corpus.StressedParams()
	p.N = 8
	loops := corpus.Generate(p)
	for _, l := range loops {
		req := CompileRequest{
			Loop:       vliwq.FormatLoop(l),
			Machine:    "clustered:4",
			Effort:     "optimal",
			SkipVerify: true,
		}
		resp, body := postJSON(t, client, ts.URL+"/compile", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", l.Name, resp.StatusCode, body)
		}
		var cr CompileResponse
		if err := json.Unmarshal(body, &cr); err != nil {
			t.Fatal(err)
		}
		if cr.Effort != "optimal" {
			t.Fatalf("%s: effort %q", l.Name, cr.Effort)
		}
		if cr.Bound == nil {
			t.Fatalf("%s: optimal response carries no bound", l.Name)
		}
		if cr.Bound.Lower < 1 || cr.Bound.Lower > cr.II {
			t.Fatalf("%s: bound.lower %d outside [1, II=%d]", l.Name, cr.Bound.Lower, cr.II)
		}
		if cr.Bound.Optimal && cr.II != cr.Bound.Lower {
			t.Fatalf("%s: proved optimal but II %d != lower %d", l.Name, cr.II, cr.Bound.Lower)
		}
		if cr.Bound.DeadlineCut {
			t.Fatalf("%s: deadline cut without a deadline", l.Name)
		}
	}
	st := srv.Stats()
	if st.Optimal.Proved+st.Optimal.Incumbent != int64(len(loops)) {
		t.Fatalf("optimal stats proved=%d incumbent=%d, want sum %d",
			st.Optimal.Proved, st.Optimal.Incumbent, len(loops))
	}
	if st.Optimal.Proved == 0 {
		t.Fatal("no loop proved optimal on the stressed slice")
	}
}

// TestOptimalDeadlineCutServedNotCached is the anytime contract at the
// service layer: an expired deadline on an optimal request cuts the proof,
// never the compile — the response is a success (no 504) carrying the
// unproved, deadline-cut certificate — and because that certificate depends
// on the caller's wall clock, the outcome is served but forgotten, so the
// next requester re-proves at full depth and caches normally.
func TestOptimalDeadlineCutServedNotCached(t *testing.T) {
	srv := New(Config{})

	// Find a loop whose exhaustive schedule leaves an II gap (clustered:6
	// with inter-cluster latency): the population where a cut proof is
	// observably unproved.
	p := corpus.StressedParams()
	p.N = 48
	var req CompileRequest
	found := false
	for _, l := range corpus.Generate(p) {
		r := CompileRequest{
			Loop: vliwq.FormatLoop(l), Machine: "clustered:6",
			CommLatency: 2, Effort: "exhaustive", SkipVerify: true,
		}
		resp, err := compileDecoded(srv, context.Background(), &r)
		if err != nil {
			continue
		}
		if resp.II > resp.MII {
			req = r
			req.Effort = "optimal"
			found = true
			break
		}
	}
	if !found {
		t.Fatal("no exhaustive-gapped loop in the stressed slice")
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	resp, err := compileDecoded(srv, ctx, &req)
	if err != nil {
		t.Fatalf("expired deadline failed the compile instead of cutting the proof: %v", err)
	}
	if resp.Bound == nil || resp.Bound.Optimal || !resp.Bound.DeadlineCut {
		t.Fatalf("cut response bound = %+v, want unproved deadline-cut", resp.Bound)
	}

	n := req
	if err := n.Normalize(); err != nil {
		t.Fatal(err)
	}
	if _, ok := srv.cache.Get(n.Canonical()); ok {
		t.Fatal("deadline-cut outcome stayed in the exact cache")
	}

	// Undeadlined retry: proves (or budget-cuts) deterministically and
	// caches.
	resp2, err := compileDecoded(srv, context.Background(), &req)
	if err != nil {
		t.Fatal(err)
	}
	if resp2.Bound == nil || resp2.Bound.DeadlineCut {
		t.Fatalf("retry bound = %+v, want a deterministic certificate", resp2.Bound)
	}
	if _, ok := srv.cache.Get(n.Canonical()); !ok {
		t.Fatal("deterministic optimal outcome did not cache")
	}
}

// compileDecoded serves req through compileOne and decodes the answer.
func compileDecoded(srv *Server, ctx context.Context, req *CompileRequest) (*CompileResponse, error) {
	body, err := srv.compileOne(ctx, req)
	if err != nil {
		return nil, err
	}
	var resp CompileResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// TestEffortDefaultIsFast: an omitted effort must behave exactly like
// "fast" — same pipeline, baseline strategy in the response — so existing
// clients see no behaviour change.
func TestEffortDefaultIsFast(t *testing.T) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()

	req := CompileRequest{Loop: vliwq.FormatLoop(corpus.KernelByName("daxpy")), Machine: "clustered:4"}
	resp, body := postJSON(t, ts.Client(), ts.URL+"/compile", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var cr CompileResponse
	if err := json.Unmarshal(body, &cr); err != nil {
		t.Fatal(err)
	}
	if cr.Effort != "fast" || cr.Strategy != "baseline" {
		t.Fatalf("default compile reported effort=%q strategy=%q", cr.Effort, cr.Strategy)
	}
}
