// Package gateway implements the vliwgate sharding proxy: a cache-aware
// router in front of N vliwd backends.
//
// Compilation is deterministic and every backend caches whole responses
// under the canonical request key (vliwq.Request.Canonical), so the win is
// not load spreading alone — it is cache affinity. The gateway hashes the
// structural key (vliwq.Request.StructuralKey — the knobs plus the loop's
// dependence-graph fingerprint; FNV-1a, then a splitmix64 finalizer so the
// routing decision is decorrelated from the backend cache's own shard
// selection) and routes each request to backends[hash % N], remembering
// each exact key's slot in a bounded memo (owner); identical AND
// isomorphic requests therefore always land on the backend that already
// holds the entry or its isomorphism class, and the fleet's aggregate cache
// behaves like one cache N times the size with no invalidation protocol at
// all. Concurrent /compile calls for one exact key additionally coalesce
// into a single dispatch (coalesce.go), so a failover retry joins the
// in-flight ring walk instead of stampeding a peer. The layout deliberately mirrors the paper's clustered
// machine: backends are clusters, the hash is the partitioning rule, and
// failover moves work to the ring-adjacent neighbour only — the same
// locality discipline the scheduler applies to values crossing clusters.
//
// Endpoints mirror the backend surface: POST /compile and POST /batch are
// routed (a batch is split per owning backend and reassembled in input
// order), GET /healthz probes every backend, GET /stats aggregates backend
// cache and scheduler counters with per-backend routing totals.
package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"vliwq"
	"vliwq/internal/cache"
	"vliwq/internal/metrics"
	"vliwq/internal/service"
)

// Config tunes a Gateway. Backends is required; everything else defaults.
type Config struct {
	// Backends are the vliwd base URLs, e.g. "http://10.0.0.1:8391". Order
	// matters: it fixes the hash ring, so every gateway replica must list
	// the same backends in the same order to route identically.
	Backends []string
	// Retries is how many ring-adjacent neighbours to try after the owning
	// backend fails (transport error or 5xx). 0 means 1; negative disables
	// failover. Capped at len(Backends)-1 — there is no one left after a
	// full lap.
	Retries int
	// Timeout bounds one backend request; 0 means 60 s.
	Timeout time.Duration

	// BreakerThreshold is how many consecutive tripping failures (transport
	// errors and 5xx other than 504) open a backend's circuit breaker; while
	// open, the ring walk skips the backend until BreakerCooldown elapses
	// and a half-open trial re-closes it. 0 means 5; negative disables the
	// breakers entirely.
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker waits before admitting a
	// half-open trial; 0 means 2 s.
	BreakerCooldown time.Duration
	// ProbeTimeout bounds the /healthz and /stats backend fan-outs and the
	// background prober's probes when the incoming request carries no
	// deadline of its own; 0 means 5 s.
	ProbeTimeout time.Duration
	// BackoffBase is the first inter-hop delay of the failover ring walk;
	// each further hop doubles it with ±50% jitter, capped at BackoffMax.
	// 0 means 10 ms; negative disables backoff (hops retry immediately).
	BackoffBase time.Duration
	// BackoffMax caps the jittered inter-hop delay; 0 means 250 ms.
	BackoffMax time.Duration
	// Hedge enables hedged /compile requests: when the owner has not
	// answered within the observed p99 compile latency, a second attempt
	// starts on the ring-adjacent backend and the first authoritative
	// answer wins. Compilation is deterministic and /compile idempotent, so
	// the duplicate work is safe; /batch is never hedged (sub-batches are
	// already fanned out). Off by default — hedging trades duplicate
	// backend work for tail latency.
	Hedge bool
	// HedgeMinDelay floors the hedge delay so a cold latency window (p99 of
	// nothing = 0) cannot hedge every request instantly; 0 means 10 ms.
	HedgeMinDelay time.Duration
}

// backend is one ring slot: the base URL plus the routing counters /stats
// reports.
type backend struct {
	url       string
	breaker   *breaker
	owned     atomic.Int64 // requests this backend owns by hash
	served    atomic.Int64 // requests it actually answered (batch entries count singly)
	failovers atomic.Int64 // answers it gave for a neighbour's key
	errors    atomic.Int64 // attempts that failed (transport or 5xx)
	skipped   atomic.Int64 // attempts the open breaker short-circuited
}

// Gateway is the sharding proxy. Create one with New; it is safe for
// concurrent use.
type Gateway struct {
	cfg      Config
	backends []*backend
	client   *http.Client
	mux      *http.ServeMux
	start    time.Time

	compileRequests atomic.Int64
	batchRequests   atomic.Int64
	batchItems      atomic.Int64
	requestErrors   atomic.Int64

	deadlineExceeded atomic.Int64 // requests 504'd by their propagated deadline

	// Hedging: observed /compile latencies feed the p99 the hedge delay
	// derives from.
	latWindow *metrics.Window
	hedges    atomic.Int64 // hedged attempts launched
	hedgeWins atomic.Int64 // hedges that answered before the primary

	// Coalescing (coalesce.go): one in-flight dispatch per exact canonical
	// key; coalesced counts the callers served by another's dispatch.
	flights   *cache.Cache[string, reply]
	coalesced atomic.Int64

	// routes memoizes the routing rule's answer per exact canonical key
	// (see owner), bounded at routeMemoEntries.
	routes *cache.Cache[string, int]
}

// routeMemoEntries bounds the route memo at vliwd's default -cache-entries,
// so the gateway remembers as many exact keys as one backend's exact layer
// holds.
const routeMemoEntries = 65536

// New builds a Gateway over cfg.Backends.
func New(cfg Config) (*Gateway, error) {
	if len(cfg.Backends) == 0 {
		return nil, errors.New("gateway: no backends configured")
	}
	g := &Gateway{cfg: cfg, start: time.Now(),
		latWindow: metrics.NewWindow(512),
		flights:   cache.New[string, reply](cache.Options{}, cache.StringHash),
		routes:    cache.New[string, int](cache.Options{MaxEntries: routeMemoEntries}, cache.StringHash)}
	threshold := cfg.BreakerThreshold
	if threshold == 0 {
		threshold = 5
	}
	if threshold < 0 {
		threshold = 0 // permanently-closed breakers
	}
	cooldown := cfg.BreakerCooldown
	if cooldown <= 0 {
		cooldown = 2 * time.Second
	}
	for _, u := range cfg.Backends {
		if u == "" {
			return nil, errors.New("gateway: empty backend URL")
		}
		g.backends = append(g.backends, &backend{
			url:     u,
			breaker: newBreaker(threshold, cooldown, nil),
		})
	}
	timeout := cfg.Timeout
	if timeout <= 0 {
		timeout = 60 * time.Second
	}
	g.client = &http.Client{
		Timeout: timeout,
		Transport: &http.Transport{
			MaxIdleConns:        64,
			MaxIdleConnsPerHost: 16,
		},
	}
	g.mux = http.NewServeMux()
	g.mux.HandleFunc("/compile", g.handleCompile)
	g.mux.HandleFunc("/batch", g.handleBatch)
	g.mux.HandleFunc("/healthz", g.handleHealthz)
	g.mux.HandleFunc("/stats", g.handleStats)
	return g, nil
}

// Handler returns the root handler for an http.Server.
func (g *Gateway) Handler() http.Handler { return g.mux }

// retries resolves Config.Retries against the ring size.
func (g *Gateway) retries() int {
	r := g.cfg.Retries
	if r == 0 {
		r = 1
	}
	if r < 0 {
		r = 0
	}
	if max := len(g.backends) - 1; r > max {
		r = max
	}
	return r
}

// maxBodyBytes caps an incoming request body. The gateway fronts /batch,
// so it allows more than one backend request.
const maxBodyBytes = 8 << 20

// Route reports the ring slot owning one compile request: a stable mix of
// the structural key's (vliwq.Request.StructuralKey) FNV-1a hash, modulo
// the ring size. This is the whole routing rule — no coordination, and no
// state beyond a memo of the rule's own answers (owner); determinism is
// what makes the sharded caches effective.
// The structural key normalizes the knobs AND fingerprints the loop's
// dependence graph, so every spelling of the same behaviour — an omitted
// machine vs "single:6", and since PR 7 a renamed or renumbered spelling of
// the same loop — routes to the one backend whose caches already hold the
// class (exact entries for seen spellings, the structural entry for new
// ones). Requests whose loop cannot be fingerprinted fall back to the exact
// canonical key inside StructuralKey itself, so routing stays total.
//
// The mix step matters: the backend cache selects its internal shard from
// the low bits of the same FNV-1a hash, so routing on the raw hash would
// hand each backend a residue class of keys that exercises only a fraction
// of its shards (with N backends = the shard count, exactly one). The
// splitmix64 finalizer decorrelates the two decisions.
func (g *Gateway) Route(req *service.CompileRequest) int {
	return g.owner(vliwq.Prepare(*req))
}

// owner is Route for a prepared request, whose memoized keys the caller
// goes on to use. It looks the request's exact canonical key up in the
// route memo and, on a miss, stores what route answers, so an exact repeat
// skips the loop parse and the fingerprint its structural key costs. The
// memo only remembers the rule's answers: a request's canonical key fixes
// its structural key, so routing stays a function of the structural key
// and every replica, memo warm or cold, routes identically.
func (g *Gateway) owner(p *vliwq.Prepared) int {
	return g.routes.Do(p.Canonical(), func() int { return g.route(p) })
}

// route is the routing rule itself, computed afresh.
func (g *Gateway) route(p *vliwq.Prepared) int {
	return int(mix64(cache.StringHash(p.StructuralKey())) % uint64(len(g.backends)))
}

// mix64 is the splitmix64 finalizer: a cheap bijective avalanche so every
// output bit depends on every input bit.
func mix64(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// retryable reports whether an attempt outcome should move to the
// ring-adjacent backend: transport errors and 5xx mean "this backend is
// unhealthy", and 429 means "this backend is shedding load" — in all three
// cases a neighbour may do better. 2xx and the remaining 4xx (including 422
// compile rejections) are authoritative answers — compilation is
// deterministic, so a neighbour would only repeat them.
func retryable(status int, err error) bool {
	return err != nil || status >= 500 || status == http.StatusTooManyRequests
}

// trips reports whether an attempt outcome should count against the
// backend's circuit breaker. Narrower than retryable: 429 is a backend
// alive enough to shed politely, and 504 is the request's own propagated
// deadline expiring — neither is evidence the backend is down, and opening
// the breaker on them would amplify overload into outage.
func trips(status int, err error) bool {
	return err != nil || (status >= 500 && status != http.StatusGatewayTimeout)
}

// backoff returns the jittered exponential delay before retry attempt n
// (n=1 is the first retry): base<<(n-1), jittered uniformly in [0.5d,
// 1.5d), capped at max. Jitter keeps a fleet of gateways that lost the same
// backend from re-converging on the survivors in lockstep.
func (g *Gateway) backoff(n int) time.Duration {
	base := g.cfg.BackoffBase
	if base < 0 {
		return 0
	}
	if base == 0 {
		base = 10 * time.Millisecond
	}
	max := g.cfg.BackoffMax
	if max <= 0 {
		max = 250 * time.Millisecond
	}
	d := base << (n - 1)
	if d > max || d <= 0 { // d <= 0 guards shift overflow
		d = max
	}
	d = d/2 + time.Duration(rand.Int63n(int64(d)))
	if d > max {
		d = max
	}
	return d
}

// sleep waits d or until ctx is done, reporting whether the wait completed.
func sleep(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return true
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// forward POSTs body to one backend path and returns the raw response.
// When ctx carries a deadline, the time actually left is propagated as the
// DeadlineHeader budget — tightened at every hop, so a backend never works
// past the moment the client stops listening.
func (g *Gateway) forward(ctx context.Context, b *backend, path string, body []byte) (int, http.Header, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, b.url+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if dl, ok := ctx.Deadline(); ok {
		if remaining := time.Until(dl); remaining > 0 {
			req.Header.Set(service.DeadlineHeader, remaining.String())
		}
	}
	resp, err := g.client.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, nil, err
	}
	return resp.StatusCode, resp.Header, data, nil
}

// dispatch sends body to the owner's slot, walking the ring on retryable
// failures, and returns the first authoritative answer; when every attempt
// fails it returns the last error. weight is how many compile requests the
// body represents (1 for /compile, the sub-batch size for /batch) so the
// owned/served/failover counters measure work, not call counts.
func (g *Gateway) dispatch(ctx context.Context, owner int, path string, body []byte, weight int) (int, http.Header, []byte, error) {
	g.backends[owner].owned.Add(int64(weight))
	return g.ringWalk(ctx, owner, 0, path, body, weight)
}

// ringWalk tries the slots owner+startHop .. owner+retries in order,
// skipping backends whose circuit breaker is open, with jittered
// exponential backoff between attempts. Every attempt outcome feeds the
// attempted backend's breaker (trips classification); retryable outcomes
// move on, authoritative ones return. When every eligible slot was
// breaker-skipped, the walk forces one attempt at the owner anyway — with
// the whole ring presumed down, the forced attempt is the only signal
// source left, and its outcome is what eventually re-closes a breaker.
func (g *Gateway) ringWalk(ctx context.Context, owner, startHop int, path string, body []byte, weight int) (int, http.Header, []byte, error) {
	var lastErr error
	attempts := 0
	for hop := startHop; hop <= g.retries(); hop++ {
		b := g.backends[(owner+hop)%len(g.backends)]
		if !b.breaker.allow() {
			b.skipped.Add(1)
			lastErr = fmt.Errorf("backend %s: circuit breaker open", b.url)
			continue
		}
		if attempts > 0 && !sleep(ctx, g.backoff(attempts)) {
			return 0, nil, nil, ctx.Err()
		}
		attempts++
		r, retry := g.attempt(ctx, b, hop > 0, path, body, weight)
		if !retry {
			return r.status, r.hdr, r.data, r.err
		}
		lastErr = r.err
	}
	if attempts == 0 {
		r, retry := g.attempt(ctx, g.backends[owner], false, path, body, weight)
		if !retry {
			return r.status, r.hdr, r.data, r.err
		}
		lastErr = r.err
	}
	return 0, nil, nil, fmt.Errorf("all %d backend attempts failed, last: %w", g.retries()+1, lastErr)
}

// attempt forwards body to b and books the outcome on it: the breaker
// signal (trips), then an error or the served (and, off the owner,
// failovers) counters. retry reports a failure the walk moves on from;
// otherwise the reply is the walk's answer, or a gone caller's context error.
func (g *Gateway) attempt(ctx context.Context, b *backend, failover bool, path string, body []byte, weight int) (r reply, retry bool) {
	r.status, r.hdr, r.data, r.err = g.forward(ctx, b, path, body)
	// A cancelled client is not a sick backend: stop without feeding the
	// breaker, polluting the error counters or burning a doomed hop.
	if ctx.Err() != nil {
		return reply{err: ctx.Err()}, false
	}
	b.breaker.report(!trips(r.status, r.err))
	if retryable(r.status, r.err) {
		b.errors.Add(1)
		if r.err == nil {
			r.err = fmt.Errorf("backend %s: status %d", b.url, r.status)
		}
		return r, true
	}
	b.served.Add(int64(weight))
	if failover {
		b.failovers.Add(int64(weight))
	}
	return r, false
}

// dispatchHedged is dispatch for idempotent /compile under Config.Hedge:
// the primary walk starts at the owner, and if it has not answered within
// the hedge delay (observed p99 compile latency, floored), a second walk
// starts one slot further along the ring. First authoritative answer wins;
// if one walk fails, the other's answer is awaited.
func (g *Gateway) dispatchHedged(ctx context.Context, owner int, body []byte, delay time.Duration) (int, http.Header, []byte, error) {
	g.backends[owner].owned.Add(1)

	type answer struct {
		status int
		hdr    http.Header
		data   []byte
		err    error
		hedged bool
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	ch := make(chan answer, 2)
	walk := func(startHop int, hedged bool) {
		status, hdr, data, err := g.ringWalk(ctx, owner, startHop, "/compile", body, 1)
		ch <- answer{status, hdr, data, err, hedged}
	}
	go walk(0, false)

	launched := 1
	timer := time.NewTimer(delay)
	defer timer.Stop()
	timerC := timer.C
	var firstErr error
	for {
		select {
		case <-timerC:
			g.hedges.Add(1)
			launched++
			go walk(1, true)
			timerC = nil // a nil chan never fires: at most one hedge
		case a := <-ch:
			if a.err == nil {
				if a.hedged {
					g.hedgeWins.Add(1)
				}
				return a.status, a.hdr, a.data, nil
			}
			if firstErr == nil {
				firstErr = a.err
			}
			launched--
			if launched == 0 {
				return 0, nil, nil, firstErr
			}
		}
	}
}

// hedgeDelay resolves the current hedge trigger: the p99 of observed
// /compile latencies, floored at HedgeMinDelay. 0 means hedging is off.
func (g *Gateway) hedgeDelay() time.Duration {
	if !g.cfg.Hedge || len(g.backends) < 2 {
		return 0
	}
	d := time.Duration(g.latWindow.Quantile(0.99))
	min := g.cfg.HedgeMinDelay
	if min <= 0 {
		min = 10 * time.Millisecond
	}
	if d < min {
		d = min
	}
	return d
}

// requestContext applies the client's propagated DeadlineHeader budget, if
// any, as the request context's deadline, with the backend's floor
// (service.RequestContext); forward() re-propagates whatever is left of it
// to each backend hop. A malformed header is answered 400.
func (g *Gateway) requestContext(w http.ResponseWriter, r *http.Request) (context.Context, context.CancelFunc, bool) {
	ctx, cancel, err := service.RequestContext(r)
	if err != nil {
		g.fail(w, http.StatusBadRequest, err.Error())
		return nil, nil, false
	}
	return ctx, cancel, true
}

// failDispatch maps a dispatch error onto its status: 504 when the
// request's own deadline expired mid-flight, 502 for exhausted ring walks.
func (g *Gateway) failDispatch(w http.ResponseWriter, err error) {
	if errors.Is(err, context.DeadlineExceeded) {
		g.deadlineExceeded.Add(1)
		g.fail(w, http.StatusGatewayTimeout, err.Error())
		return
	}
	g.fail(w, http.StatusBadGateway, err.Error())
}

// handleCompile routes one request by its structural key, coalesces it on
// its canonical key — both taken from one prepared request, so the request
// is normalized once and parsed at most once (an exact repeat's owner comes
// from the route memo, unparsed) — and relays the owning backend's answer
// verbatim — status, content type and body bytes — so a response through
// the gateway is indistinguishable from one straight off the backend.
func (g *Gateway) handleCompile(w http.ResponseWriter, r *http.Request) {
	g.compileRequests.Add(1)
	if r.Method != http.MethodPost {
		g.fail(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	ctx, cancel, ok := g.requestContext(w, r)
	if !ok {
		return
	}
	defer cancel()
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		g.failRead(w, err)
		return
	}
	var req service.CompileRequest
	if err := strictUnmarshal(body, &req); err != nil {
		g.fail(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	p := vliwq.Prepare(req)
	owner := g.owner(p)
	t0 := time.Now()
	// One in-flight dispatch per exact key: concurrent identical requests —
	// and retries racing a slow owner's failover — join the leader's ring
	// walk instead of launching their own (see coalesce.go). Joiners skip
	// dispatch, so the owned/served counters see one request per flight.
	ans, info, err := g.flights.DoWithInfo(ctx, p.Canonical(), func() (reply, cache.Fate) {
		var a reply
		if d := g.hedgeDelay(); d > 0 {
			a.status, a.hdr, a.data, a.err = g.dispatchHedged(ctx, owner, body, d)
		} else {
			a.status, a.hdr, a.data, a.err = g.dispatch(ctx, owner, "/compile", body, 1)
		}
		return a, a.fate()
	})
	if info.Joined {
		g.coalesced.Add(1)
	}
	if err == nil {
		err = ans.err
	}
	if err != nil {
		g.failDispatch(w, err)
		return
	}
	if ans.status == http.StatusOK {
		g.latWindow.Add(float64(time.Since(t0).Nanoseconds()))
	}
	relay(w, ans.status, ans.hdr, ans.data)
}

// handleBatch splits a batch by owning backend, forwards the per-backend
// sub-batches concurrently, and reassembles the entries in input order.
// Entries whose sub-batch exhausted its ring walk carry the transport
// error; everything else is the backend's JSON verbatim.
func (g *Gateway) handleBatch(w http.ResponseWriter, r *http.Request) {
	g.batchRequests.Add(1)
	if r.Method != http.MethodPost {
		g.fail(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	ctx, cancel, ok := g.requestContext(w, r)
	if !ok {
		return
	}
	defer cancel()
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		g.failRead(w, err)
		return
	}
	var req service.BatchRequest
	if err := strictUnmarshal(body, &req); err != nil {
		g.fail(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	// The backends' limit, so the gateway answers 413 the same way a
	// single vliwd would, before splitting anything.
	if len(req.Requests) > service.MaxBatch {
		g.fail(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("batch of %d exceeds the %d-request limit", len(req.Requests), service.MaxBatch))
		return
	}
	g.batchItems.Add(int64(len(req.Requests)))

	// Group item indices by owning slot, preserving input order per group.
	groups := make(map[int][]int)
	for i := range req.Requests {
		owner := g.owner(vliwq.Prepare(req.Requests[i]))
		groups[owner] = append(groups[owner], i)
	}
	results := make([]json.RawMessage, len(req.Requests))
	var wg sync.WaitGroup
	for owner, idxs := range groups {
		wg.Add(1)
		go func(owner int, idxs []int) {
			defer wg.Done()
			sub := service.BatchRequest{Requests: make([]service.CompileRequest, len(idxs))}
			for j, i := range idxs {
				sub.Requests[j] = req.Requests[i]
			}
			subBody, err := json.Marshal(sub)
			if err != nil {
				g.fillErrors(results, idxs, err.Error())
				return
			}
			status, _, data, err := g.dispatch(ctx, owner, "/batch", subBody, len(idxs))
			if err != nil {
				g.fillErrors(results, idxs, err.Error())
				return
			}
			var br rawBatchResponse
			if status != http.StatusOK || json.Unmarshal(data, &br) != nil || len(br.Results) != len(idxs) {
				g.fillErrors(results, idxs, fmt.Sprintf("backend /batch answered status %d with an unusable body", status))
				return
			}
			for j, i := range idxs {
				results[i] = br.Results[j]
			}
		}(owner, idxs)
	}
	wg.Wait()
	service.WriteBatch(w, results)
}

// rawBatchResponse decodes a backend batch answer without re-interpreting
// the entries, so the gateway relays each entry's bytes untouched.
type rawBatchResponse struct {
	Results []json.RawMessage `json:"results"`
}

// fillErrors stamps a batch error entry onto every index of a failed group.
func (g *Gateway) fillErrors(results []json.RawMessage, idxs []int, msg string) {
	entry, _ := json.Marshal(service.BatchEntry{Error: msg})
	for _, i := range idxs {
		results[i] = entry
	}
}

// BackendHealth is one backend's probe result inside a /healthz answer.
type BackendHealth struct {
	URL     string `json:"url"`
	Healthy bool   `json:"healthy"`
	Error   string `json:"error,omitempty"`
}

// HealthResponse is the JSON body of GET /healthz: "ok" while at least one
// backend answers its own /healthz, "degraded" when some do not (the ring
// still serves via failover), and HTTP 503 when none do.
type HealthResponse struct {
	Status   string          `json:"status"`
	Backends []BackendHealth `json:"backends"`
}

// probeTimeout resolves the fan-out/prober bound Config.ProbeTimeout.
func (g *Gateway) probeTimeout() time.Duration {
	if g.cfg.ProbeTimeout > 0 {
		return g.cfg.ProbeTimeout
	}
	return 5 * time.Second
}

// fanoutContext bounds a backend fan-out (healthz probes, stats fetches):
// when the caller's context already carries a deadline — its own, or one
// propagated via DeadlineHeader — that deadline governs; otherwise the
// configurable ProbeTimeout floor applies, so a fan-out never hangs on a
// wedged backend just because the client imposed no budget.
func (g *Gateway) fanoutContext(ctx context.Context) (context.Context, context.CancelFunc) {
	if _, ok := ctx.Deadline(); ok {
		return context.WithCancel(ctx)
	}
	return context.WithTimeout(ctx, g.probeTimeout())
}

func (g *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	rctx, rcancel, ok := g.requestContext(w, r)
	if !ok {
		return
	}
	defer rcancel()
	hr := HealthResponse{Backends: make([]BackendHealth, len(g.backends))}
	ctx, cancel := g.fanoutContext(rctx)
	defer cancel()
	var wg sync.WaitGroup
	for i, b := range g.backends {
		wg.Add(1)
		go func(i int, b *backend) {
			defer wg.Done()
			hr.Backends[i] = g.probe(ctx, b)
		}(i, b)
	}
	wg.Wait()
	healthy := 0
	for _, h := range hr.Backends {
		if h.Healthy {
			healthy++
		}
	}
	status := http.StatusOK
	switch {
	case healthy == len(hr.Backends):
		hr.Status = "ok"
	case healthy > 0:
		hr.Status = "degraded"
	default:
		hr.Status = "down"
		status = http.StatusServiceUnavailable
	}
	service.WriteJSON(w, status, hr)
}

func (g *Gateway) probe(ctx context.Context, b *backend) BackendHealth {
	h := BackendHealth{URL: b.url}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.url+"/healthz", nil)
	if err != nil {
		h.Error = err.Error()
		return h
	}
	resp, err := g.client.Do(req)
	if err != nil {
		h.Error = err.Error()
		return h
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		h.Error = fmt.Sprintf("status %d", resp.StatusCode)
		return h
	}
	h.Healthy = true
	return h
}

// StartProber launches the background breaker prober and returns its stop
// function. Every interval it probes the /healthz of each backend whose
// breaker is NOT closed — closed breakers are already fed by in-band
// traffic — and reports the outcome, so an open circuit re-closes as soon
// as the backend recovers even on an idle gateway, instead of waiting for
// a client request to volunteer as the half-open trial. Probes go through
// breaker.allow(), so the prober respects the cooldown and the
// single-trial discipline like any other caller.
func (g *Gateway) StartProber(interval time.Duration) (stop func()) {
	if interval <= 0 {
		interval = time.Second
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
			}
			for _, b := range g.backends {
				if b.breaker.state() == breakerClosed {
					continue
				}
				if !b.breaker.allow() {
					continue
				}
				ctx, cancel := context.WithTimeout(context.Background(), g.probeTimeout())
				h := g.probe(ctx, b)
				cancel()
				b.breaker.report(h.Healthy)
			}
		}
	}()
	return func() {
		close(done)
		wg.Wait()
	}
}

// BackendStats is one ring slot inside a /stats answer: the gateway's own
// routing counters plus the backend's /stats body when reachable.
type BackendStats struct {
	URL       string `json:"url"`
	Healthy   bool   `json:"healthy"`
	Owned     int64  `json:"owned"`     // requests hashed to this slot
	Served    int64  `json:"served"`    // requests it answered
	Failovers int64  `json:"failovers"` // requests answered for a neighbour
	Errors    int64  `json:"errors"`    // failed attempts against it
	Skipped   int64  `json:"skipped"`   // attempts the open breaker short-circuited

	// Breaker is the circuit breaker's current state ("closed", "open",
	// "half-open") with its lifetime transition counters — the signal the
	// chaos e2e asserts on: an outage must show opens >= 1 and a final
	// state of "closed" after recovery.
	Breaker       string `json:"breaker"`
	BreakerOpens  int64  `json:"breaker_opens"`
	BreakerCloses int64  `json:"breaker_closes"`

	Cache cache.Stats `json:"cache"` // from the backend, zero when unreachable
	// Structural is the backend's isomorphism-class cache layer: hits
	// served by remap, compiles coalesced across renamed spellings, and
	// renumbered spellings that compiled fresh.
	Structural service.StructuralStats `json:"structural"`
	// Optimal is the backend's certified-tier outcomes: proofs, unproved
	// incumbents, and branch-and-bound nodes pruned.
	Optimal service.OptimalStats `json:"optimal"`
	Sched   service.SchedStats   `json:"sched"`
}

// StatsResponse is the JSON body of GET /stats: per-backend detail plus
// fleet totals (cache counters summed across backends).
type StatsResponse struct {
	UptimeSeconds   float64 `json:"uptime_seconds"`
	BackendCount    int     `json:"backend_count"`
	CompileRequests int64   `json:"compile_requests"`
	BatchRequests   int64   `json:"batch_requests"`
	BatchItems      int64   `json:"batch_items"`
	RequestErrors   int64   `json:"request_errors"`
	// DeadlineExceeded counts requests 504'd by their propagated deadline.
	DeadlineExceeded int64 `json:"deadline_exceeded"`
	// Hedges counts hedged /compile attempts launched; HedgeWins how many
	// answered before their primary.
	Hedges    int64 `json:"hedges"`
	HedgeWins int64 `json:"hedge_wins"`
	// Coalesced counts /compile calls served by joining another caller's
	// in-flight dispatch for the same exact key — requests that cost the
	// fleet no ring walk and no backend call at all.
	Coalesced  int64          `json:"coalesced"`
	Backends   []BackendStats `json:"backends"`
	TotalCache cache.Stats    `json:"total_cache"`
	// TotalStructural sums the backends' structural layers.
	TotalStructural service.StructuralStats `json:"total_structural"`
	// TotalOptimal sums the backends' certified-tier counters.
	TotalOptimal service.OptimalStats `json:"total_optimal"`
	TotalSched   service.SchedStats   `json:"total_sched"`
}

func (g *Gateway) handleStats(w http.ResponseWriter, r *http.Request) {
	ctx, cancel, ok := g.requestContext(w, r)
	if !ok {
		return
	}
	defer cancel()
	service.WriteJSON(w, http.StatusOK, g.Stats(ctx))
}

// Stats aggregates the fleet: each backend's /stats is fetched concurrently
// and summed into the totals; unreachable backends report their routing
// counters with Healthy=false and zero cache numbers.
func (g *Gateway) Stats(ctx context.Context) StatsResponse {
	st := StatsResponse{
		UptimeSeconds:    time.Since(g.start).Seconds(),
		BackendCount:     len(g.backends),
		CompileRequests:  g.compileRequests.Load(),
		BatchRequests:    g.batchRequests.Load(),
		BatchItems:       g.batchItems.Load(),
		RequestErrors:    g.requestErrors.Load(),
		DeadlineExceeded: g.deadlineExceeded.Load(),
		Hedges:           g.hedges.Load(),
		HedgeWins:        g.hedgeWins.Load(),
		Coalesced:        g.coalesced.Load(),
		Backends:         make([]BackendStats, len(g.backends)),
	}
	ctx, cancel := g.fanoutContext(ctx)
	defer cancel()
	var wg sync.WaitGroup
	for i, b := range g.backends {
		wg.Add(1)
		go func(i int, b *backend) {
			defer wg.Done()
			bs := BackendStats{
				URL:           b.url,
				Owned:         b.owned.Load(),
				Served:        b.served.Load(),
				Failovers:     b.failovers.Load(),
				Errors:        b.errors.Load(),
				Skipped:       b.skipped.Load(),
				Breaker:       b.breaker.state().String(),
				BreakerOpens:  b.breaker.opens.Load(),
				BreakerCloses: b.breaker.closes.Load(),
			}
			if remote, err := g.fetchBackendStats(ctx, b); err == nil {
				bs.Healthy = true
				bs.Cache = remote.Cache
				bs.Structural = remote.Structural
				bs.Optimal = remote.Optimal
				bs.Sched = remote.Sched
			}
			st.Backends[i] = bs
		}(i, b)
	}
	wg.Wait()
	for _, bs := range st.Backends {
		st.TotalCache.Hits += bs.Cache.Hits
		st.TotalCache.Misses += bs.Cache.Misses
		st.TotalCache.Evictions += bs.Cache.Evictions
		st.TotalCache.Entries += bs.Cache.Entries
		st.TotalCache.Coalesced += bs.Cache.Coalesced
		st.TotalStructural.Hits += bs.Structural.Hits
		st.TotalStructural.Coalesced += bs.Structural.Coalesced
		st.TotalStructural.Reordered += bs.Structural.Reordered
		st.TotalStructural.Renumbered += bs.Structural.Renumbered
		st.TotalStructural.Entries += bs.Structural.Entries
		st.TotalOptimal.Proved += bs.Optimal.Proved
		st.TotalOptimal.Incumbent += bs.Optimal.Incumbent
		st.TotalOptimal.PrunedNodes += bs.Optimal.PrunedNodes
		st.TotalSched.Compiles += bs.Sched.Compiles
		st.TotalSched.Errors += bs.Sched.Errors
		st.TotalSched.OpsScheduled += bs.Sched.OpsScheduled
		st.TotalSched.IISum += bs.Sched.IISum
		for name, n := range bs.Sched.StrategyWins {
			if st.TotalSched.StrategyWins == nil {
				st.TotalSched.StrategyWins = make(map[string]int64)
			}
			st.TotalSched.StrategyWins[name] += n
		}
		for name, n := range bs.Sched.StageNanos {
			if st.TotalSched.StageNanos == nil {
				st.TotalSched.StageNanos = make(map[string]int64)
			}
			st.TotalSched.StageNanos[name] += n
		}
		for spec, n := range bs.Sched.Machines {
			if st.TotalSched.Machines == nil {
				st.TotalSched.Machines = make(map[string]int64)
			}
			st.TotalSched.Machines[spec] += n
		}
	}
	return st
}

func (g *Gateway) fetchBackendStats(ctx context.Context, b *backend) (*service.StatsResponse, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.url+"/stats", nil)
	if err != nil {
		return nil, err
	}
	resp, err := g.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil, fmt.Errorf("status %d", resp.StatusCode)
	}
	var st service.StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, err
	}
	return &st, nil
}

// strictUnmarshal decodes JSON rejecting unknown fields, matching the
// backend's own decoder so the gateway never accepts a body a backend
// would bounce.
func strictUnmarshal(data []byte, dst any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	return dec.Decode(dst)
}

// relay copies a backend answer to the client byte-for-byte.
func relay(w http.ResponseWriter, status int, hdr http.Header, body []byte) {
	if ct := hdr.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	w.WriteHeader(status)
	w.Write(body)
}

func (g *Gateway) failRead(w http.ResponseWriter, err error) {
	code := http.StatusBadRequest
	if mbe := (*http.MaxBytesError)(nil); errors.As(err, &mbe) {
		code = http.StatusRequestEntityTooLarge
	}
	g.fail(w, code, err.Error())
}

func (g *Gateway) fail(w http.ResponseWriter, code int, msg string) {
	g.requestErrors.Add(1)
	service.WriteJSON(w, code, map[string]string{"error": msg})
}
