package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"vliwq"
	"vliwq/internal/corpus"
)

// heavyRequest builds a request whose compile reliably outlasts a
// millisecond budget before the scheduling stage boundary: a chain of n
// dependent ops unrolled 64 times (4096 ops for n = 64), racing the full
// strategy portfolio on a clustered machine, verify on. The factor is
// deliberately large — the bitset scheduler is fast enough that smaller
// unrolls reach the last cancellation checkpoint inside the budget.
func heavyRequest(n int) CompileRequest {
	var b strings.Builder
	b.WriteString("loop heavy\ntrip 1024\n")
	fmt.Fprintf(&b, "op v0 load\n")
	for i := 1; i < n; i++ {
		fmt.Fprintf(&b, "op v%d add v%d\n", i, i-1)
	}
	return CompileRequest{
		Loop:         b.String(),
		Machine:      "clustered:4",
		Unroll:       true,
		UnrollFactor: 64,
		Effort:       "exhaustive",
	}
}

// TestDegradedResponseCachesUnderDegradedKey is the golden regression for
// SLO degradation vs the canonical cache key: a request degraded from
// exhaustive to fast must cache under the FAST canonical key (the effort
// that ran), never under the exhaustive key — otherwise once pressure
// subsides, exhaustive requesters would be served the degraded schedule
// forever. It also pins the annotation split: the degraded requester sees
// degraded:true + requested_effort, while a genuine fast requester sharing
// the same cache entry sees a plain fast response.
func TestDegradedResponseCachesUnderDegradedKey(t *testing.T) {
	srv := New(Config{})
	srv.level.Store(3) // force the ladder floor: every effort degrades to fast
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	loop := vliwq.FormatLoop(corpus.KernelByName("daxpy"))
	req := CompileRequest{Loop: loop, Machine: "clustered:4", Effort: "exhaustive", SkipVerify: true}

	resp, body := postJSON(t, ts.Client(), ts.URL+"/compile", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var got CompileResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if !got.Degraded || got.RequestedEffort != "exhaustive" || got.Effort != "fast" {
		t.Fatalf("degraded annotation wrong: degraded=%v requested=%q effort=%q",
			got.Degraded, got.RequestedEffort, got.Effort)
	}

	// The canonical keys the two efforts would use.
	fastKey := func(effort string) string {
		r := CompileRequest{Loop: loop, Machine: "clustered:4", Effort: effort, SkipVerify: true}
		if err := r.Normalize(); err != nil {
			t.Fatal(err)
		}
		return r.Canonical()
	}
	if _, ok := srv.cache.Get(fastKey("fast")); !ok {
		t.Fatal("degraded compile did not cache under the fast (ran-effort) key")
	}
	if _, ok := srv.cache.Get(fastKey("exhaustive")); ok {
		t.Fatal("degraded compile cached under the exhaustive (requested-effort) key")
	}

	// A genuine fast requester hits the same entry but must NOT be told its
	// response was degraded — it got exactly what it asked for.
	req.Effort = "fast"
	resp, body = postJSON(t, ts.Client(), ts.URL+"/compile", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fast request status %d: %s", resp.StatusCode, body)
	}
	var fast CompileResponse
	if err := json.Unmarshal(body, &fast); err != nil {
		t.Fatal(err)
	}
	if fast.Degraded || fast.RequestedEffort != "" {
		t.Fatalf("shared cache entry leaked the degraded annotation: %+v", fast)
	}
	if st := srv.Stats(); st.Cache.Misses != 1 || st.Cache.Hits != 1 {
		t.Fatalf("misses=%d hits=%d, want 1/1 — the two requests must share one entry",
			st.Cache.Misses, st.Cache.Hits)
	}

	// Once the ladder recovers, the exhaustive key compiles fresh at full
	// effort — the degraded entry does not satisfy it.
	srv.level.Store(0)
	req.Effort = "exhaustive"
	resp, body = postJSON(t, ts.Client(), ts.URL+"/compile", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("recovered request status %d: %s", resp.StatusCode, body)
	}
	var full CompileResponse
	if err := json.Unmarshal(body, &full); err != nil {
		t.Fatal(err)
	}
	if full.Degraded || full.Effort != "exhaustive" {
		t.Fatalf("post-recovery exhaustive request answered %+v", full)
	}
	if _, ok := srv.cache.Get(fastKey("exhaustive")); !ok {
		t.Fatal("post-recovery exhaustive compile did not cache under its own key")
	}
}

// TestDegradationLadderHysteresis drives observeLatency directly: over the
// target the level climbs one step per observation up to the floor, and it
// only recovers once the EWMA falls below HALF the target.
func TestDegradationLadderHysteresis(t *testing.T) {
	const target = 10 * time.Millisecond
	srv := New(Config{SLOTarget: target})

	for i, want := range []int32{1, 2, 3, 3} {
		srv.observeLatency(2 * target)
		if lvl := srv.level.Load(); lvl != want {
			t.Fatalf("after slow observation %d: level %d, want %d", i+1, lvl, want)
		}
	}
	// Decay toward zero: recovery must not begin while the EWMA sits in the
	// hysteresis band (target/2, target].
	sawBand := false
	for i := 0; i < 50 && srv.level.Load() > 0; i++ {
		srv.observeLatency(0)
		avg := time.Duration(srv.latEWMA.Value())
		if avg > target/2 {
			sawBand = true
			if srv.level.Load() != 3 {
				t.Fatalf("level dropped to %d while ewma %v still above %v", srv.level.Load(), avg, target/2)
			}
		}
	}
	if !sawBand {
		t.Fatal("decay never passed through the hysteresis band — test has no teeth")
	}
	if lvl := srv.level.Load(); lvl != 0 {
		t.Fatalf("ladder never recovered: level %d", lvl)
	}
}

// TestAdmissionShedding pins the gate contract: a call beyond MaxInflight
// answers 429 with Retry-After immediately (no queueing), sheds are counted
// under admission.shed rather than request_errors, and the slot's release
// restores service.
func TestAdmissionShedding(t *testing.T) {
	srv := New(Config{MaxInflight: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	srv.inflight <- struct{}{} // occupy the only slot
	req := CompileRequest{Loop: vliwq.FormatLoop(corpus.KernelByName("daxpy")), SkipVerify: true}
	resp, body := postJSON(t, ts.Client(), ts.URL+"/compile", req)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated server answered %d: %s", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Fatalf("Retry-After %q, want \"1\"", ra)
	}
	// /batch goes through the same gate.
	resp, _ = postJSON(t, ts.Client(), ts.URL+"/batch", BatchRequest{Requests: []CompileRequest{req}})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated /batch answered %d", resp.StatusCode)
	}
	<-srv.inflight // release
	resp, body = postJSON(t, ts.Client(), ts.URL+"/compile", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("after release: %d %s", resp.StatusCode, body)
	}

	st := srv.Stats()
	if st.Admission.Shed != 2 || st.Admission.MaxInflight != 1 {
		t.Fatalf("admission stats %+v, want 2 shed under a bound of 1", st.Admission)
	}
	if st.RequestErrors != 0 {
		t.Fatalf("sheds counted as request errors (%d) — they are backpressure, not faults", st.RequestErrors)
	}
	if st.Admission.Inflight != 0 {
		t.Fatalf("inflight gauge %d after all calls returned", st.Admission.Inflight)
	}
}

// TestDeadlinePropagationCancelsCompile is the end-to-end deadline
// contract: a client budget far shorter than the compile cancels the
// backend's pipeline at a stage boundary (504 carrying the context error),
// the cancellation is counted, and — critically — the cache is NOT
// poisoned: the next request for the same key, sent without a budget,
// compiles fresh and succeeds.
func TestDeadlinePropagationCancelsCompile(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	req := heavyRequest(64)
	buf, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hr, err := http.NewRequest(http.MethodPost, ts.URL+"/compile", strings.NewReader(string(buf)))
	if err != nil {
		t.Fatal(err)
	}
	hr.Header.Set("Content-Type", "application/json")
	hr.Header.Set(DeadlineHeader, "1ms")
	resp, err := ts.Client().Do(hr)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var e map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d (%v), want 504 — compile outran a 1ms budget?", resp.StatusCode, e)
	}
	if !strings.Contains(e["error"], context.DeadlineExceeded.Error()) {
		t.Fatalf("504 error %q does not carry the context error", e["error"])
	}
	st := srv.Stats()
	if st.DeadlineExceeded != 1 {
		t.Fatalf("deadline_exceeded %d, want 1", st.DeadlineExceeded)
	}

	// The poisoning check: without a budget the same request must succeed —
	// the cancelled outcome must not have been kept.
	resp2, body := postJSON(t, ts.Client(), ts.URL+"/compile", req)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("post-timeout request answered %d: %s — cancelled outcome stayed cached", resp2.StatusCode, body)
	}
}

// TestCompileOneForgetsCancelledOutcome is the white-box companion: an
// already-expired context yields a timeoutError, and the cancelled outcome
// was never kept under the key, so a retry recomputes rather than replaying
// the first caller's deadline.
func TestCompileOneForgetsCancelledOutcome(t *testing.T) {
	srv := New(Config{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	req := CompileRequest{Loop: vliwq.FormatLoop(corpus.KernelByName("daxpy")), SkipVerify: true}
	_, err := srv.compileOne(ctx, &req)
	var te timeoutError
	if err == nil || !errors.As(err, &te) {
		t.Fatalf("cancelled compileOne returned %v, want timeoutError", err)
	}
	norm := req
	if err := norm.Normalize(); err != nil {
		t.Fatal(err)
	}
	if _, ok := srv.cache.Get(norm.Canonical()); ok {
		t.Fatal("cancelled outcome was kept in the exact cache")
	}
	if resp, err := srv.compileOne(context.Background(), &req); err != nil || resp == nil {
		t.Fatalf("retry after cancellation failed: %v", err)
	}
}

// timedReply is one /compile answer and how long the caller waited for
// it. body is kept for error answers only: a heavy schedule is large.
type timedReply struct {
	status  int
	body    string
	elapsed time.Duration
	err     error
}

// sendTimed posts req on its own goroutine, with budget as the
// DeadlineHeader unless it is empty, and delivers the answer.
func sendTimed(ts *httptest.Server, req CompileRequest, budget string) <-chan timedReply {
	out := make(chan timedReply, 1)
	go func() {
		start := time.Now()
		buf, err := json.Marshal(req)
		if err != nil {
			out <- timedReply{err: err}
			return
		}
		hr, err := http.NewRequest(http.MethodPost, ts.URL+"/compile", strings.NewReader(string(buf)))
		if err != nil {
			out <- timedReply{err: err}
			return
		}
		if budget != "" {
			hr.Header.Set(DeadlineHeader, budget)
		}
		resp, err := ts.Client().Do(hr)
		if err != nil {
			out <- timedReply{err: err}
			return
		}
		defer resp.Body.Close()
		r := timedReply{status: resp.StatusCode}
		body, err := io.ReadAll(resp.Body)
		if r.status != http.StatusOK {
			r.body = string(body)
		}
		r.elapsed, r.err = time.Since(start), err
		out <- r
	}()
	return out
}

// waitFor polls cond until it holds, failing the test after 10 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// joinCase is a leader request and a second caller that meets its compile
// in flight: on the same exact key, or as a renamed spelling at the
// structural layer. joined reads the coalesced counter of the layer where
// they meet.
type joinCase struct {
	name           string
	leader, joiner CompileRequest
	joined         func(*Server) int64
}

// joinCases builds both cases around a heavy request whose compile
// outlasts the join by a wide margin even at one processor. There the
// second caller's handler starts only once the Go scheduler preempts the
// leader's compile, 50–100 ms after it began on one 2.1 GHz Xeon core.
// heavyRequest(384) compiles 24,576 ops in ~0.45 s there: scheduling ends
// at ~20 ms, queue allocation at ~0.3 s and verification at ~0.45 s, and
// both of the later stages stop within a few tens of milliseconds of a
// deadline. Under -race the 8192 ops of heavyRequest(128) take ~0.4 s,
// with scheduling done at ~0.04 s and allocation at ~0.25 s.
func joinCases(t *testing.T) []joinCase {
	req := heavyRequest(384)
	if raceEnabled {
		req = heavyRequest(128)
	}
	renamed := req
	renamed.Loop = renameSpelling(t, req.Loop, "z")
	return []joinCase{
		{"exact", req, req, func(s *Server) int64 { return s.cache.Stats().Coalesced }},
		{"structural", req, renamed, func(s *Server) int64 { return s.structs.Stats().Coalesced }},
	}
}

// TestDeadlinedLeaderDoesNotFailJoiner: a leader whose short deadline
// cancels its compile is answered 504, and a concurrent caller that set no
// deadline is answered 200 from a compile of its own instead of sharing
// the leader's 504. The leader's budget runs out after scheduling, and
// its compile stops in queue allocation or verification (joinCases), long
// after the second caller has joined it.
func TestDeadlinedLeaderDoesNotFailJoiner(t *testing.T) {
	const budget = 300 * time.Millisecond
	for _, tc := range joinCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			srv := New(Config{})
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()

			leader := sendTimed(ts, tc.leader, budget.String())
			waitFor(t, "the leader's compile to start", func() bool { return srv.compiles.Load() == 1 })
			joiner := sendTimed(ts, tc.joiner, "")
			waitFor(t, "the second caller to join the leader's compile", func() bool { return tc.joined(srv) == 1 })
			l, j := <-leader, <-joiner
			t.Logf("leader (%v budget) %d after %v; joiner (no budget) %d after %v", budget, l.status, l.elapsed, j.status, j.elapsed)
			if l.err != nil || l.status != http.StatusGatewayTimeout || !strings.Contains(l.body, context.DeadlineExceeded.Error()) {
				t.Fatalf("leader: status %d err %v body %s, want 504 with its context error", l.status, l.err, l.body)
			}
			if j.err != nil || j.status != http.StatusOK {
				t.Fatalf("joiner: status %d err %v body %s, want 200", j.status, j.err, j.body)
			}
			if n := srv.Stats().Sched.Compiles; n != 2 {
				t.Fatalf("compiles = %d, want 2: the leader's cancelled one and the joiner's own", n)
			}
		})
	}
}

// TestJoinerDeadlineEndsItsWait: a caller with a short deadline that finds
// a slow compile in flight is answered 504 when its own budget runs out,
// not when the compile ends; the leader, which set no deadline, still gets
// its 200, and its kept result serves the caller's spelling afterwards.
func TestJoinerDeadlineEndsItsWait(t *testing.T) {
	const budget, margin = 50 * time.Millisecond, 250 * time.Millisecond
	for _, tc := range joinCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			srv := New(Config{})
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()

			leader := sendTimed(ts, tc.leader, "")
			waitFor(t, "the leader's compile to start", func() bool { return srv.compiles.Load() == 1 })
			j := <-sendTimed(ts, tc.joiner, budget.String())
			l := <-leader
			t.Logf("joiner (%v budget) %d after %v; leader (no budget) %d after %v", budget, j.status, j.elapsed, l.status, l.elapsed)
			if tc.joined(srv) != 1 {
				t.Fatal("the second caller never waited on the leader's compile")
			}
			if j.err != nil || j.status != http.StatusGatewayTimeout {
				t.Fatalf("joiner: status %d err %v body %s, want 504", j.status, j.err, j.body)
			}
			if j.elapsed > budget+margin {
				t.Fatalf("joiner answered after %v, want within its %v budget + %v", j.elapsed, budget, margin)
			}
			if l.err != nil || l.status != http.StatusOK {
				t.Fatalf("leader: status %d err %v body %s, want 200", l.status, l.err, l.body)
			}
			if r := <-sendTimed(ts, tc.joiner, ""); r.status != http.StatusOK || srv.Stats().Sched.Compiles != 1 {
				t.Fatalf("later caller: status %d after %d compiles, want 200 from the leader's one compile",
					r.status, srv.Stats().Sched.Compiles)
			}
		})
	}
}

// TestDeadlineFloor: a budget under minDeadline is raised to it, not
// applied as given. The context RequestContext derives ends minDeadline
// after the call at the earliest, and an exact-cache hit sent with a 1µs
// budget answers 200 with the bytes of the same answer sent without one.
func TestDeadlineFloor(t *testing.T) {
	hr := httptest.NewRequest(http.MethodPost, "/compile", nil)
	hr.Header.Set(DeadlineHeader, "1us")
	before := time.Now()
	ctx, cancel, err := RequestContext(hr)
	after := time.Now()
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	dl, ok := ctx.Deadline()
	if !ok || dl.Before(before.Add(minDeadline)) || dl.After(after.Add(minDeadline)) {
		t.Fatalf("1us budget: deadline %v after the call (set=%v), want %v", dl.Sub(before), ok, minDeadline)
	}

	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()
	req := CompileRequest{Loop: vliwq.FormatLoop(corpus.KernelByName("daxpy"))}
	resp, want := postJSON(t, ts.Client(), ts.URL+"/compile", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm-up status %d: %s", resp.StatusCode, want)
	}
	buf, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hr, err = http.NewRequest(http.MethodPost, ts.URL+"/compile", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	hr.Header.Set(DeadlineHeader, "1us")
	resp, err = ts.Client().Do(hr)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || !bytes.Equal(got, want) {
		t.Fatalf("exact hit under a 1us budget: status %d, body %s; want 200 with %s", resp.StatusCode, got, want)
	}
}

// TestBadDeadlineHeaderIs400 — a malformed or non-positive budget is the
// client's bug and must be rejected before any compile work runs.
func TestBadDeadlineHeaderIs400(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for _, v := range []string{"soon", "-5s", "0s"} {
		hr, err := http.NewRequest(http.MethodPost, ts.URL+"/compile", strings.NewReader(`{"loop":"x"}`))
		if err != nil {
			t.Fatal(err)
		}
		hr.Header.Set(DeadlineHeader, v)
		resp, err := ts.Client().Do(hr)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("deadline %q: status %d, want 400", v, resp.StatusCode)
		}
	}
	if n := srv.Stats().Sched.Compiles; n != 0 {
		t.Fatalf("bad deadline headers still ran %d compiles", n)
	}
}

// TestHealthzReportsDegradation — healthz keeps its map[string]string body
// but flips status to "degraded" with a reason while the ladder is active.
func TestHealthzReportsDegradation(t *testing.T) {
	srv := New(Config{SLOTarget: 10 * time.Millisecond})
	srv.level.Store(1)
	srv.latEWMA.Observe(float64(25 * time.Millisecond))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded healthz status %d — degraded is alive, not down", resp.StatusCode)
	}
	var body map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body["status"] != "degraded" || !strings.Contains(body["reason"], "level 1") {
		t.Fatalf("healthz body %v", body)
	}
}

// TestConcurrentAdmission hammers a gated server; under -race this checks
// the gate's slot accounting. Every response is either a success or a
// clean 429, and the gauge returns to zero.
func TestConcurrentAdmission(t *testing.T) {
	srv := New(Config{MaxInflight: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	req := CompileRequest{Loop: vliwq.FormatLoop(corpus.KernelByName("daxpy")), SkipVerify: true}

	var wg sync.WaitGroup
	var mu sync.Mutex
	codes := map[int]int{}
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				resp, _ := postJSON(t, ts.Client(), ts.URL+"/compile", req)
				mu.Lock()
				codes[resp.StatusCode]++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	for code := range codes {
		if code != http.StatusOK && code != http.StatusTooManyRequests {
			t.Fatalf("unexpected status %d under load (%v)", code, codes)
		}
	}
	if codes[http.StatusOK] == 0 {
		t.Fatalf("no successes under load: %v", codes)
	}
	if g := srv.Stats().Admission.Inflight; g != 0 {
		t.Fatalf("inflight gauge %d after quiescence", g)
	}
}
