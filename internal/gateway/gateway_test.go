package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"vliwq"
	"vliwq/internal/cache"
	"vliwq/internal/corpus"
	"vliwq/internal/service"
)

// testRequests renders n deterministic corpus loops as compile requests —
// the same seed and knobs the service fidelity test uses.
func testRequests(t testing.TB, n int) []service.CompileRequest {
	t.Helper()
	loops := corpus.Generate(corpus.Params{Seed: corpus.DefaultSeed, N: n})
	reqs := make([]service.CompileRequest, n)
	for i, l := range loops {
		reqs[i] = service.CompileRequest{Loop: vliwq.FormatLoop(l), Machine: "clustered:4", Unroll: true}
	}
	return reqs
}

// fleet boots n independent service backends and a gateway in front of
// them, returning the gateway plus its test server and the backend servers.
func fleet(t testing.TB, n int, cfg Config) (*Gateway, *httptest.Server, []*httptest.Server) {
	t.Helper()
	backends := make([]*httptest.Server, n)
	cfg.Backends = make([]string, n)
	for i := range backends {
		backends[i] = httptest.NewServer(service.New(service.Config{}).Handler())
		cfg.Backends[i] = backends[i].URL
	}
	gw, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(gw.Handler())
	t.Cleanup(func() {
		ts.Close()
		for _, b := range backends {
			b.Close()
		}
	})
	return gw, ts, backends
}

func postJSON(t testing.TB, client *http.Client, url string, body any) (*http.Response, []byte) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, out.Bytes()
}

// TestRouteDeterministic: the routing rule is a pure function of the
// request — two independently built gateways over the same ring agree on
// every assignment, repeated calls agree with themselves, and the corpus
// spreads across both slots (the hash actually shards).
func TestRouteDeterministic(t *testing.T) {
	reqs := testRequests(t, 56)
	a, err := New(Config{Backends: []string{"http://a", "http://b"}})
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(Config{Backends: []string{"http://a", "http://b"}})
	if err != nil {
		t.Fatal(err)
	}
	var perSlot [2]int
	// rawParity[slot] tracks the raw FNV-1a low bit of keys landing on each
	// slot: both parities must appear on a slot, or routing is just the raw
	// hash and each backend's cache would only ever touch half its shards.
	var rawParity [2][2]int
	for i := range reqs {
		r1, r2, r3 := a.Route(&reqs[i]), b.Route(&reqs[i]), a.Route(&reqs[i])
		if r1 != r2 || r1 != r3 {
			t.Fatalf("request %d routed inconsistently: %d, %d, %d", i, r1, r2, r3)
		}
		perSlot[r1]++
		rawParity[r1][cache.StringHash(reqs[i].Canonical())&1]++
	}
	if perSlot[0] == 0 || perSlot[1] == 0 {
		t.Fatalf("routing degenerated: distribution %v over 56 requests", perSlot)
	}
	for slot := range rawParity {
		if rawParity[slot][0] == 0 || rawParity[slot][1] == 0 {
			t.Fatalf("slot %d only received one raw-hash parity %v — routing is correlated with the backend cache's shard hash", slot, rawParity[slot])
		}
	}
	t.Logf("distribution over 56 corpus requests: %v (raw-hash parities %v)", perSlot, rawParity)
}

// TestRouteCollapsesDefaultSpellings is the shard half of the
// key-fragmentation regression: {"loop": L} and the fully spelled-out
// default request must land on one gateway shard (and therefore one
// backend cache), for every ring size. The historical raw-field
// CanonicalKey violated this — the two spellings hashed apart.
func TestRouteCollapsesDefaultSpellings(t *testing.T) {
	loop := vliwq.FormatLoop(corpus.KernelByName("daxpy"))
	bare := service.CompileRequest{Loop: loop}
	spelled := service.CompileRequest{Loop: loop, Machine: "single:6", CopyShape: "tree", Effort: "fast"}
	for _, n := range []int{2, 3, 5, 8} {
		urls := make([]string, n)
		for i := range urls {
			urls[i] = "http://backend"
		}
		g, err := New(Config{Backends: urls})
		if err != nil {
			t.Fatal(err)
		}
		if a, b := g.Route(&bare), g.Route(&spelled); a != b {
			t.Fatalf("%d backends: default spellings of one request routed apart (%d vs %d)", n, a, b)
		}
	}
}

// TestGatewayMatchesDirectService is the fidelity contract: for 56 corpus
// loops, the body a client reads through the gateway — success or
// pipeline-rejection — is byte-identical to what a standalone vliwd answers
// for the same request (which TestServerMatchesDirectCompile in turn pins
// to in-process vliwq.Compile output). /batch must agree entry-for-entry.
func TestGatewayMatchesDirectService(t *testing.T) {
	const n = 56
	reqs := testRequests(t, n)
	_, ts, _ := fleet(t, 2, Config{})

	ref := httptest.NewServer(service.New(service.Config{}).Handler())
	defer ref.Close()

	for i := range reqs {
		gresp, gbody := postJSON(t, ts.Client(), ts.URL+"/compile", reqs[i])
		rresp, rbody := postJSON(t, ref.Client(), ref.URL+"/compile", reqs[i])
		if gresp.StatusCode != rresp.StatusCode {
			t.Fatalf("loop %d: gateway status %d, direct status %d", i, gresp.StatusCode, rresp.StatusCode)
		}
		if !bytes.Equal(gbody, rbody) {
			t.Fatalf("loop %d: gateway body differs from direct service:\n%s\nvs\n%s", i, gbody, rbody)
		}
	}

	// The same set as one batch: split across backends, reassembled in
	// input order, each entry byte-identical to the standalone server's.
	gresp, gbody := postJSON(t, ts.Client(), ts.URL+"/batch", service.BatchRequest{Requests: reqs})
	if gresp.StatusCode != http.StatusOK {
		t.Fatalf("/batch status %d: %s", gresp.StatusCode, gbody)
	}
	rresp, rbody := postJSON(t, ref.Client(), ref.URL+"/batch", service.BatchRequest{Requests: reqs})
	if rresp.StatusCode != http.StatusOK {
		t.Fatalf("direct /batch status %d", rresp.StatusCode)
	}
	var got, want rawBatchResponse
	if err := json.Unmarshal(gbody, &got); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(rbody, &want); err != nil {
		t.Fatal(err)
	}
	if len(got.Results) != n || len(want.Results) != n {
		t.Fatalf("batch sizes: gateway %d, direct %d, want %d", len(got.Results), len(want.Results), n)
	}
	for i := range got.Results {
		if !bytes.Equal(got.Results[i], want.Results[i]) {
			t.Fatalf("batch entry %d differs:\n%s\nvs\n%s", i, got.Results[i], want.Results[i])
		}
	}
}

// TestGatewayCacheAffinity: replaying the same requests twice through the
// gateway turns every second-pass request into a backend cache hit, and the
// aggregated /stats sees them.
func TestGatewayCacheAffinity(t *testing.T) {
	const n = 16
	reqs := testRequests(t, n)
	gw, ts, _ := fleet(t, 2, Config{})

	for pass := 0; pass < 2; pass++ {
		for i := range reqs {
			resp, body := postJSON(t, ts.Client(), ts.URL+"/compile", reqs[i])
			if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusUnprocessableEntity {
				t.Fatalf("pass %d loop %d: status %d: %s", pass, i, resp.StatusCode, body)
			}
		}
	}
	st := gw.Stats(context.Background())
	if st.TotalCache.Hits < int64(n) {
		t.Fatalf("aggregated hits %d after a full replay, want >= %d", st.TotalCache.Hits, n)
	}
	// Affinity means no backend compiled a request it does not own: total
	// distinct computes equals total entries equals n.
	if st.TotalCache.Entries != int64(n) || st.TotalCache.Misses != int64(n) {
		t.Fatalf("fleet holds %d entries / %d misses, want exactly %d of each (no duplicated compiles)",
			st.TotalCache.Entries, st.TotalCache.Misses, n)
	}
	for _, bs := range st.Backends {
		if bs.Owned != bs.Served {
			t.Fatalf("backend %s owned %d but served %d with no failures in play", bs.URL, bs.Owned, bs.Served)
		}
	}
}

// TestGatewayFailover stops one backend and checks the ring heals: requests
// owned by the dead slot are answered by its neighbour, counted as
// failovers, and the fleet keeps returning correct bodies.
func TestGatewayFailover(t *testing.T) {
	const n = 24
	reqs := testRequests(t, n)
	gw, ts, backends := fleet(t, 2, Config{})

	ref := httptest.NewServer(service.New(service.Config{}).Handler())
	defer ref.Close()

	backends[0].Close() // slot 0 is now down

	deadOwned := 0
	for i := range reqs {
		if gw.Route(&reqs[i]) == 0 {
			deadOwned++
		}
		gresp, gbody := postJSON(t, ts.Client(), ts.URL+"/compile", reqs[i])
		rresp, rbody := postJSON(t, ref.Client(), ref.URL+"/compile", reqs[i])
		if gresp.StatusCode != rresp.StatusCode || !bytes.Equal(gbody, rbody) {
			t.Fatalf("loop %d: failover answer differs (status %d vs %d)", i, gresp.StatusCode, rresp.StatusCode)
		}
	}
	if deadOwned == 0 {
		t.Fatal("test corpus never routed to the dead slot; grow n")
	}
	st := gw.Stats(context.Background())
	if st.Backends[1].Failovers != int64(deadOwned) {
		t.Fatalf("neighbour served %d failovers, want %d", st.Backends[1].Failovers, deadOwned)
	}
	// Every dead-owned request either burned a real attempt (errors) or was
	// short-circuited by the open breaker (skipped); after enough failures
	// the breaker must have opened and stopped hammering the corpse.
	if total := st.Backends[0].Errors + st.Backends[0].Skipped; total < int64(deadOwned) {
		t.Fatalf("dead slot recorded %d errors + %d skips, want >= %d",
			st.Backends[0].Errors, st.Backends[0].Skipped, deadOwned)
	}
	if st.Backends[0].Breaker != "open" || st.Backends[0].BreakerOpens < 1 {
		t.Fatalf("dead slot breaker %q (opens=%d), want open after sustained failures",
			st.Backends[0].Breaker, st.Backends[0].BreakerOpens)
	}
	if st.Backends[0].Skipped == 0 {
		t.Fatal("open breaker never skipped an attempt — the dead backend was hammered throughout")
	}
	if st.Backends[0].Healthy || !st.Backends[1].Healthy {
		t.Fatalf("health flags wrong: %+v", st.Backends)
	}
}

// TestGatewayFailoverDisabled: with Retries < 0 a dead owner is surfaced as
// 502, not silently rerouted.
func TestGatewayFailoverDisabled(t *testing.T) {
	reqs := testRequests(t, 24)
	gw, ts, backends := fleet(t, 2, Config{Retries: -1})
	backends[0].Close()

	saw502 := false
	for i := range reqs {
		resp, body := postJSON(t, ts.Client(), ts.URL+"/compile", reqs[i])
		if gw.Route(&reqs[i]) == 0 {
			if resp.StatusCode != http.StatusBadGateway {
				t.Fatalf("dead-owned loop %d: status %d, want 502: %s", i, resp.StatusCode, body)
			}
			saw502 = true
		} else if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusUnprocessableEntity {
			t.Fatalf("live-owned loop %d: status %d", i, resp.StatusCode)
		}
	}
	if !saw502 {
		t.Fatal("no request was owned by the dead slot")
	}
}

// TestGatewayBatchDeadSlot: with failover disabled, a batch spanning a
// dead backend still answers 200 — the dead slot's entries carry the
// transport error, the live slot's entries are real results, and input
// order is preserved.
func TestGatewayBatchDeadSlot(t *testing.T) {
	const n = 24
	reqs := testRequests(t, n)
	gw, ts, backends := fleet(t, 2, Config{Retries: -1})
	backends[0].Close()

	resp, body := postJSON(t, ts.Client(), ts.URL+"/batch", service.BatchRequest{Requests: reqs})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/batch status %d: %s", resp.StatusCode, body)
	}
	var br service.BatchResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	if len(br.Results) != n {
		t.Fatalf("batch answered %d entries, want %d", len(br.Results), n)
	}
	for i := range reqs {
		e := br.Results[i]
		if gw.Route(&reqs[i]) == 0 {
			if e.Error == "" || e.Response != nil {
				t.Fatalf("dead-owned entry %d should carry the transport error: %+v", i, e)
			}
		} else if e.Error == "" && e.Response == nil {
			t.Fatalf("live-owned entry %d is empty", i)
		}
	}
}

// TestGatewayBatchLimit: the gateway answers an oversized batch with the
// same 413 a single vliwd would, before splitting anything.
func TestGatewayBatchLimit(t *testing.T) {
	gw, ts, _ := fleet(t, 2, Config{MaxBatch: 4})
	reqs := testRequests(t, 5)
	resp, body := postJSON(t, ts.Client(), ts.URL+"/batch", service.BatchRequest{Requests: reqs})
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized batch: status %d, want 413: %s", resp.StatusCode, body)
	}
	st := gw.Stats(context.Background())
	for _, bs := range st.Backends {
		if bs.Owned != 0 {
			t.Fatalf("an oversized batch reached backend routing: %+v", bs)
		}
	}
}

// TestDispatchCancelledContext: a client that goes away is not a backend
// failure — dispatch stops immediately and no backend error or failover is
// counted against the ring.
func TestDispatchCancelledContext(t *testing.T) {
	gw, _, _ := fleet(t, 2, Config{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, _, err := gw.dispatch(ctx, 0, "/compile", []byte(`{}`), 1); err == nil {
		t.Fatal("dispatch succeeded with a cancelled context")
	}
	st := gw.Stats(context.Background())
	for _, bs := range st.Backends {
		if bs.Errors != 0 || bs.Failovers != 0 {
			t.Fatalf("cancelled client polluted backend counters: %+v", bs)
		}
	}
}

// TestGatewayHealthz walks the three health states: all up, one down
// (degraded, still 200), all down (503).
func TestGatewayHealthz(t *testing.T) {
	_, ts, backends := fleet(t, 2, Config{})
	get := func() (int, HealthResponse) {
		resp, err := ts.Client().Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var hr HealthResponse
		if err := json.NewDecoder(resp.Body).Decode(&hr); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, hr
	}
	if code, hr := get(); code != http.StatusOK || hr.Status != "ok" {
		t.Fatalf("all-up health: %d %q", code, hr.Status)
	}
	backends[0].Close()
	if code, hr := get(); code != http.StatusOK || hr.Status != "degraded" {
		t.Fatalf("one-down health: %d %q", code, hr.Status)
	}
	backends[1].Close()
	if code, hr := get(); code != http.StatusServiceUnavailable || hr.Status != "down" {
		t.Fatalf("all-down health: %d %q", code, hr.Status)
	}
}

// TestGatewayRejectsBadBodies: malformed JSON and unknown fields bounce at
// the gateway with 400, before any backend sees them.
func TestGatewayRejectsBadBodies(t *testing.T) {
	gw, ts, _ := fleet(t, 2, Config{})
	for _, body := range []string{"{not json", `{"loop": "x", "bogus": 1}`} {
		resp, err := ts.Client().Post(ts.URL+"/compile", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("body %q: status %d, want 400", body, resp.StatusCode)
		}
	}
	st := gw.Stats(context.Background())
	for _, bs := range st.Backends {
		if bs.Owned != 0 || bs.Served != 0 {
			t.Fatalf("a malformed body reached backend routing: %+v", bs)
		}
	}
	if st.RequestErrors != 2 {
		t.Fatalf("request errors %d, want 2", st.RequestErrors)
	}
}

// TestNewValidation: a gateway without backends is a configuration error.
func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New accepted an empty backend list")
	}
	if _, err := New(Config{Backends: []string{"http://a", ""}}); err == nil {
		t.Fatal("New accepted an empty backend URL")
	}
}

// TestRouteLongChains: routing fingerprints every request, so a long
// dependence chain — 20,000 ops as an operand chain and as distance-1
// order edges — must route in bounded time (the uncapped refinement took
// tens of seconds). The bound is checked here, on the test goroutine.
func TestRouteLongChains(t *testing.T) {
	g, err := New(Config{Backends: []string{"http://a", "http://b", "http://c"}})
	if err != nil {
		t.Fatal(err)
	}
	bound := 2 * time.Second
	if raceEnabled {
		bound *= 10
	}
	for _, order := range []bool{false, true} {
		var b strings.Builder
		b.WriteString("loop chain\nop o0 load\n")
		for i := 1; i < 20000; i++ {
			if order {
				fmt.Fprintf(&b, "op o%d load\norder o%d o%d 1\n", i, i-1, i)
			} else {
				fmt.Fprintf(&b, "op o%d add o%d\n", i, i-1)
			}
		}
		req := service.CompileRequest{Loop: b.String(), Machine: "clustered:4"}
		start := time.Now()
		slot := g.Route(&req)
		if took := time.Since(start); took > bound {
			t.Errorf("order=%v: routing a 20000-op chain took %v, over %v", order, took, bound)
		}
		if !strings.Contains(vliwq.Prepare(req).StructuralKey(), ";fp=") {
			t.Errorf("order=%v: the chain did not fingerprint", order)
		}
		if again := g.Route(&req); again != slot {
			t.Errorf("order=%v: routed to %d, then %d", order, slot, again)
		}
	}
}
