package gateway

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"vliwq"
	"vliwq/internal/corpus"
	"vliwq/internal/service"
)

// TestRetryableAndTripsClassification is the satellite table: every status
// class and error shape, against both classifiers. retryable decides
// whether the ring walk moves on; trips decides whether the breaker learns
// a failure. The rows where they disagree are the interesting ones: 429
// (retry elsewhere, but the backend is alive) and 504 (retry elsewhere,
// but the deadline was the request's, not the backend's).
func TestRetryableAndTripsClassification(t *testing.T) {
	tests := []struct {
		name      string
		status    int
		err       error
		retryable bool
		trips     bool
	}{
		{"200 ok", http.StatusOK, nil, false, false},
		{"204 no content", http.StatusNoContent, nil, false, false},
		{"301 redirect", http.StatusMovedPermanently, nil, false, false},
		{"400 bad request", http.StatusBadRequest, nil, false, false},
		{"404 not found", http.StatusNotFound, nil, false, false},
		{"413 too large", http.StatusRequestEntityTooLarge, nil, false, false},
		{"422 compile rejection", http.StatusUnprocessableEntity, nil, false, false},
		{"429 shed", http.StatusTooManyRequests, nil, true, false},
		{"500 internal", http.StatusInternalServerError, nil, true, true},
		{"502 bad gateway", http.StatusBadGateway, nil, true, true},
		{"503 unavailable", http.StatusServiceUnavailable, nil, true, true},
		{"504 deadline", http.StatusGatewayTimeout, nil, true, false},
		{"599 nonstandard 5xx", 599, nil, true, true},
		{"transport error", 0, errors.New("connection refused"), true, true},
		{"transport error with status", http.StatusOK, errors.New("truncated body"), true, true},
		{"context canceled", 0, context.Canceled, true, true},
		{"context deadline", 0, context.DeadlineExceeded, true, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := retryable(tt.status, tt.err); got != tt.retryable {
				t.Errorf("retryable(%d, %v) = %v, want %v", tt.status, tt.err, got, tt.retryable)
			}
			if got := trips(tt.status, tt.err); got != tt.trips {
				t.Errorf("trips(%d, %v) = %v, want %v", tt.status, tt.err, got, tt.trips)
			}
		})
	}
}

// TestBreakerStateMachine drives the breaker with a fake clock through the
// full closed -> open -> half-open -> closed cycle, including the failed
// trial (re-open) and lost-trial self-healing paths.
func TestBreakerStateMachine(t *testing.T) {
	now := time.Unix(0, 0)
	clock := func() time.Time { return now }
	b := newBreaker(3, time.Second, clock)

	if b.state() != breakerClosed || !b.allow() {
		t.Fatal("new breaker not closed/allowing")
	}
	// A success resets the consecutive-failure run.
	b.report(false)
	b.report(false)
	b.report(true)
	b.report(false)
	b.report(false)
	if b.state() != breakerClosed {
		t.Fatal("breaker opened before threshold consecutive failures")
	}
	b.report(false)
	if b.state() != breakerOpen || b.opens.Load() != 1 {
		t.Fatalf("3 consecutive failures left state %v (opens=%d)", b.state(), b.opens.Load())
	}
	if b.allow() {
		t.Fatal("open breaker allowed an attempt inside the cooldown")
	}

	// Cooldown elapses: exactly one caller becomes the half-open trial.
	now = now.Add(time.Second)
	if !b.allow() {
		t.Fatal("breaker refused the half-open trial after cooldown")
	}
	if b.state() != breakerHalfOpen {
		t.Fatalf("state %v after trial claim, want half-open", b.state())
	}
	if b.allow() {
		t.Fatal("second caller admitted while the trial is in flight")
	}
	// Failed trial: straight back to open, cooldown restarts.
	b.report(false)
	if b.state() != breakerOpen || b.opens.Load() != 2 {
		t.Fatalf("failed trial left state %v (opens=%d)", b.state(), b.opens.Load())
	}

	// Next trial succeeds: re-closed.
	now = now.Add(time.Second)
	if !b.allow() {
		t.Fatal("second trial refused")
	}
	b.report(true)
	if b.state() != breakerClosed || b.closes.Load() != 1 {
		t.Fatalf("successful trial left state %v (closes=%d)", b.state(), b.closes.Load())
	}

	// Lost-trial self-healing: a claimed trial whose outcome never arrives
	// releases the slot after one cooldown, instead of wedging half-open.
	for i := 0; i < 3; i++ {
		b.report(false)
	}
	now = now.Add(time.Second)
	if !b.allow() {
		t.Fatal("trial refused after cooldown")
	}
	// No report. The slot frees after another cooldown.
	if b.allow() {
		t.Fatal("trial slot double-claimed immediately")
	}
	now = now.Add(time.Second)
	if !b.allow() {
		t.Fatal("lost trial never released — breaker wedged half-open")
	}
	b.report(true)
	if b.state() != breakerClosed {
		t.Fatalf("state %v after recovered lost trial", b.state())
	}
}

// TestBreakerDisabled: negative Config.BreakerThreshold must yield
// permanently closed breakers that never skip.
func TestBreakerDisabled(t *testing.T) {
	b := newBreaker(0, time.Second, nil)
	for i := 0; i < 100; i++ {
		b.report(false)
		if !b.allow() {
			t.Fatal("disabled breaker refused an attempt")
		}
	}
	if b.state() != breakerClosed {
		t.Fatalf("disabled breaker state %v", b.state())
	}
}

// injector wraps a backend's handler with the faults the gateway tests
// inject: a modal outage, during which every request answers 503 at once,
// and a fixed delay before each request it passes on. It counts the
// requests it saw and the ones it failed, so a test can check that its
// faults fired instead of passing vacuously.
type injector struct {
	next     http.Handler
	delay    time.Duration
	down     atomic.Bool
	requests atomic.Int64
	failed   atomic.Int64
}

func newInjector(next http.Handler, delay time.Duration) *injector {
	return &injector{next: next, delay: delay}
}

// setDown switches the outage on or off.
func (in *injector) setDown(down bool) { in.down.Store(down) }

func (in *injector) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	in.requests.Add(1)
	if in.down.Load() {
		in.failed.Add(1)
		http.Error(w, "injected fault", http.StatusServiceUnavailable)
		return
	}
	time.Sleep(in.delay)
	in.next.ServeHTTP(w, r)
}

// injectedFleet boots a 2-backend fleet with a fault injector wrapped
// around backend 0, so tests flip outages with cycle-exact boundaries.
func injectedFleet(t testing.TB, cfg Config) (*Gateway, *httptest.Server, *injector) {
	t.Helper()
	inj := newInjector(service.New(service.Config{}).Handler(), 0)
	b0 := httptest.NewServer(inj)
	b1 := httptest.NewServer(service.New(service.Config{}).Handler())
	cfg.Backends = []string{b0.URL, b1.URL}
	gw, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(gw.Handler())
	t.Cleanup(func() {
		ts.Close()
		b0.Close()
		b1.Close()
	})
	return gw, ts, inj
}

// slot0Request finds a corpus request owned by ring slot 0.
func slot0Request(t testing.TB, gw *Gateway) service.CompileRequest {
	t.Helper()
	loops := corpus.Generate(corpus.Params{Seed: corpus.DefaultSeed, N: 32})
	for _, l := range loops {
		req := service.CompileRequest{Loop: vliwq.FormatLoop(l), Machine: "clustered:4", SkipVerify: true}
		if gw.Route(&req) == 0 {
			return req
		}
	}
	t.Fatal("no corpus request routed to slot 0")
	return service.CompileRequest{}
}

// TestBreakerUnderFaultInjector runs the breaker against a real injected
// outage: the injector takes backend 0 down, in-band failures open the
// breaker (requests keep succeeding via failover), the injector recovers,
// and the next post-cooldown request re-closes the circuit.
func TestBreakerUnderFaultInjector(t *testing.T) {
	gw, ts, inj := injectedFleet(t, Config{
		BreakerThreshold: 3,
		BreakerCooldown:  50 * time.Millisecond,
		BackoffBase:      -1, // keep the test fast; backoff has its own test
	})
	req := slot0Request(t, gw)

	inj.setDown(true)
	for i := 0; i < 6; i++ {
		resp, body := postJSON(t, ts.Client(), ts.URL+"/compile", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d during outage: %d %s — failover must mask the fault", i, resp.StatusCode, body)
		}
	}
	st := gw.Stats(context.Background())
	if st.Backends[0].Breaker != "open" || st.Backends[0].BreakerOpens != 1 {
		t.Fatalf("breaker %q opens=%d after sustained injected faults, want open/1",
			st.Backends[0].Breaker, st.Backends[0].BreakerOpens)
	}
	if st.Backends[0].Skipped == 0 {
		t.Fatal("open breaker never skipped — requests kept hammering the down backend")
	}
	if st.Backends[1].Failovers == 0 {
		t.Fatal("neighbour recorded no failovers during the outage")
	}

	// Recovery: after the cooldown the next request is the half-open trial;
	// it succeeds against the recovered backend and re-closes the circuit.
	inj.setDown(false)
	time.Sleep(60 * time.Millisecond)
	resp, body := postJSON(t, ts.Client(), ts.URL+"/compile", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-recovery request: %d %s", resp.StatusCode, body)
	}
	st = gw.Stats(context.Background())
	if st.Backends[0].Breaker != "closed" || st.Backends[0].BreakerCloses != 1 {
		t.Fatalf("breaker %q closes=%d after recovery, want closed/1",
			st.Backends[0].Breaker, st.Backends[0].BreakerCloses)
	}
	if st.Backends[0].Served == 0 {
		t.Fatal("recovered backend never served again")
	}
}

// TestProberReclosesBreakerWithoutTraffic: an idle gateway must re-close an
// open breaker via the background prober alone.
func TestProberReclosesBreakerWithoutTraffic(t *testing.T) {
	gw, ts, inj := injectedFleet(t, Config{
		BreakerThreshold: 2,
		BreakerCooldown:  30 * time.Millisecond,
		BackoffBase:      -1,
	})
	req := slot0Request(t, gw)

	inj.setDown(true)
	for i := 0; i < 4; i++ {
		postJSON(t, ts.Client(), ts.URL+"/compile", req)
	}
	if st := gw.Stats(context.Background()); st.Backends[0].Breaker != "open" {
		t.Fatalf("breaker %q, want open", st.Backends[0].Breaker)
	}

	stop := gw.StartProber(20 * time.Millisecond)
	defer stop()
	inj.setDown(false)
	deadline := time.Now().Add(2 * time.Second)
	for {
		if st := gw.Stats(context.Background()); st.Backends[0].Breaker == "closed" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("prober never re-closed the breaker on an idle gateway")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestAllBreakersOpenForcesOwnerAttempt: with every circuit open the walk
// must still attempt the owner rather than failing without trying — the
// forced attempt is the only in-band signal source left.
func TestAllBreakersOpenForcesOwnerAttempt(t *testing.T) {
	var calls atomic.Int64
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		service.WriteJSON(w, http.StatusOK, map[string]string{"ok": "true"})
	}))
	defer backend.Close()
	gw, err := New(Config{Backends: []string{backend.URL}, BreakerThreshold: 1, BackoffBase: -1})
	if err != nil {
		t.Fatal(err)
	}
	// Force the only breaker open with a long cooldown.
	gw.backends[0].breaker.report(false)
	if gw.backends[0].breaker.state() != breakerOpen {
		t.Fatal("setup: breaker not open")
	}

	status, _, _, err := g0walk(gw)
	if err != nil || status != http.StatusOK {
		t.Fatalf("forced owner attempt failed: status %d err %v", status, err)
	}
	if calls.Load() != 1 {
		t.Fatalf("backend saw %d calls, want exactly the forced attempt", calls.Load())
	}
	// report() while open is a no-op, so the forced success does not
	// re-close the circuit by itself; that stays the job of allow()'s
	// half-open trial or the prober.
	if st := gw.backends[0].breaker.state(); st != breakerOpen {
		t.Fatalf("forced attempt moved the breaker to %v", st)
	}
}

func g0walk(gw *Gateway) (int, http.Header, []byte, error) {
	body := []byte(`{"loop":"loop x\ntrip 4\nop a load"}`)
	return gw.ringWalk(context.Background(), 0, 0, "/compile", body, 1)
}

// TestBackoffShape: jittered exponential in [d/2, min(cap, 3d/2)), capped.
func TestBackoffShape(t *testing.T) {
	g := &Gateway{cfg: Config{BackoffBase: 8 * time.Millisecond, BackoffMax: 100 * time.Millisecond}}
	for n := 1; n <= 8; n++ {
		base := 8 * time.Millisecond << (n - 1)
		if base > 100*time.Millisecond {
			base = 100 * time.Millisecond
		}
		for i := 0; i < 50; i++ {
			d := g.backoff(n)
			if d < base/2 || d > 100*time.Millisecond {
				t.Fatalf("backoff(%d) = %v outside [%v, 100ms]", n, d, base/2)
			}
		}
	}
	gOff := &Gateway{cfg: Config{BackoffBase: -1}}
	if d := gOff.backoff(3); d != 0 {
		t.Fatalf("disabled backoff returned %v", d)
	}
}

// TestHedgedCompile: a slow owner is out-raced by the hedge launched after
// the hedge delay, the client sees the fast answer, and the stats count
// the hedge and its win.
func TestHedgedCompile(t *testing.T) {
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(400 * time.Millisecond)
		service.WriteJSON(w, http.StatusOK, map[string]string{"who": "slow"})
	}))
	defer slow.Close()
	fast := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		service.WriteJSON(w, http.StatusOK, map[string]string{"who": "fast"})
	}))
	defer fast.Close()

	gw, err := New(Config{
		Backends:      []string{slow.URL, fast.URL},
		Hedge:         true,
		HedgeMinDelay: 20 * time.Millisecond,
		BackoffBase:   -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(gw.Handler())
	defer ts.Close()

	// Find a request owned by the slow slot so the hedge targets the fast
	// neighbour.
	req := slot0Request(t, gw)
	t0 := time.Now()
	resp, body := postJSON(t, ts.Client(), ts.URL+"/compile", req)
	elapsed := time.Since(t0)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("hedged request: %d %s", resp.StatusCode, body)
	}
	var who map[string]string
	if err := json.Unmarshal(body, &who); err != nil || who["who"] != "fast" {
		t.Fatalf("hedged answer %s, want the fast backend's", body)
	}
	if elapsed >= 400*time.Millisecond {
		t.Fatalf("hedge saved nothing: %v elapsed", elapsed)
	}
	st := gw.Stats(context.Background())
	if st.Hedges != 1 || st.HedgeWins != 1 {
		t.Fatalf("hedges=%d wins=%d, want 1/1", st.Hedges, st.HedgeWins)
	}
}

// TestGatewayDeadlinePropagation is the end-to-end deadline contract
// through the proxy: the client's DeadlineHeader budget reaches the
// backend (tightened to the time actually left) and a budget shorter than
// the compile yields 504 from the BACKEND's stage-boundary cancellation —
// relayed verbatim — not a gateway-side timeout guess.
func TestGatewayDeadlinePropagation(t *testing.T) {
	var sawBudget atomic.Value // string
	observer := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sawBudget.Store(r.Header.Get(service.DeadlineHeader))
		service.New(service.Config{}).Handler().ServeHTTP(w, r)
	})
	b0 := httptest.NewServer(observer)
	defer b0.Close()
	gw, err := New(Config{Backends: []string{b0.URL}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(gw.Handler())
	defer ts.Close()

	req := service.CompileRequest{Loop: vliwq.FormatLoop(corpus.KernelByName("daxpy")), SkipVerify: true}
	buf, _ := json.Marshal(req)
	hr, err := http.NewRequest(http.MethodPost, ts.URL+"/compile", strings.NewReader(string(buf)))
	if err != nil {
		t.Fatal(err)
	}
	hr.Header.Set(service.DeadlineHeader, "5s")
	resp, err := ts.Client().Do(hr)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	got, _ := sawBudget.Load().(string)
	if got == "" {
		t.Fatal("backend never saw the propagated deadline header")
	}
	d, err := time.ParseDuration(got)
	if err != nil {
		t.Fatalf("propagated budget %q unparsable: %v", got, err)
	}
	if d <= 0 || d > 5*time.Second {
		t.Fatalf("propagated budget %v not tightened within (0, 5s]", d)
	}

	// A budget far shorter than the compile: the backend's own
	// stage-boundary cancellation answers 504 and the gateway relays it.
	var heavy strings.Builder
	heavy.WriteString("loop heavy\ntrip 1024\nop v0 load\n")
	for i := 1; i < 64; i++ {
		fmt.Fprintf(&heavy, "op v%d add v%d\n", i, i-1)
	}
	hreq := service.CompileRequest{Loop: heavy.String(), Machine: "clustered:4", Unroll: true, UnrollFactor: 16, Effort: "exhaustive"}
	hbuf, _ := json.Marshal(hreq)
	hr2, err := http.NewRequest(http.MethodPost, ts.URL+"/compile", strings.NewReader(string(hbuf)))
	if err != nil {
		t.Fatal(err)
	}
	hr2.Header.Set(service.DeadlineHeader, "2ms")
	resp2, err := ts.Client().Do(hr2)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var e map[string]string
	if err := json.NewDecoder(resp2.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if resp2.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("short-budget status %d (%v), want the backend's 504 relayed", resp2.StatusCode, e)
	}
	if !strings.Contains(e["error"], context.DeadlineExceeded.Error()) {
		t.Fatalf("504 body %v does not carry the backend's context error", e)
	}
}

// TestGatewayDeadlineFloor: the gateway floors a client budget exactly as
// the backend does (service.RequestContext), so a sub-millisecond budget
// is forwarded, tightened to what is left of the floor, instead of
// expiring inside the gateway before any backend sees the request. The
// request is an exact hit in its owner's cache, so the gateway relays
// whatever the owner answers; the first hop can still outlast the
// floor on a loaded host, so the test allows a few tries.
func TestGatewayDeadlineFloor(t *testing.T) {
	var sawBudget atomic.Value // string
	backend := service.New(service.Config{}).Handler()
	observer := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if v := r.Header.Get(service.DeadlineHeader); v != "" {
			sawBudget.Store(v)
		}
		backend.ServeHTTP(w, r)
	})
	b0 := httptest.NewServer(observer)
	defer b0.Close()
	gw, err := New(Config{Backends: []string{b0.URL}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(gw.Handler())
	defer ts.Close()

	req := service.CompileRequest{Loop: vliwq.FormatLoop(corpus.KernelByName("daxpy"))}
	if resp, body := postJSON(t, ts.Client(), ts.URL+"/compile", req); resp.StatusCode != http.StatusOK {
		t.Fatalf("warm-up status %d: %s", resp.StatusCode, body)
	}
	buf, _ := json.Marshal(req)
	var statuses []int
	for try := 0; try < 5 && sawBudget.Load() == nil; try++ {
		hr, err := http.NewRequest(http.MethodPost, ts.URL+"/compile", strings.NewReader(string(buf)))
		if err != nil {
			t.Fatal(err)
		}
		hr.Header.Set(service.DeadlineHeader, "1us")
		resp, err := ts.Client().Do(hr)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		statuses = append(statuses, resp.StatusCode)
	}
	got, _ := sawBudget.Load().(string)
	if got == "" {
		t.Fatalf("a 1us budget never reached the backend (gateway answered %v)", statuses)
	}
	d, err := time.ParseDuration(got)
	if err != nil {
		t.Fatalf("propagated budget %q unparsable: %v", got, err)
	}
	if d <= 0 || d > time.Millisecond {
		t.Fatalf("propagated budget %v not within (0, 1ms]", d)
	}
}

// TestGatewayBadDeadlineHeaderIs400 mirrors the backend's contract at the
// proxy edge, on every endpoint that parses the header.
func TestGatewayBadDeadlineHeaderIs400(t *testing.T) {
	_, ts, _ := fleet(t, 1, Config{})
	for _, path := range []string{"/compile", "/batch", "/healthz", "/stats"} {
		method := http.MethodPost
		if path == "/healthz" || path == "/stats" {
			method = http.MethodGet
		}
		hr, err := http.NewRequest(method, ts.URL+path, strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		hr.Header.Set(service.DeadlineHeader, "whenever")
		resp, err := ts.Client().Do(hr)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s with bad deadline: status %d, want 400", path, resp.StatusCode)
		}
	}
}

// TestShedBackendFailsOver: a 429 from the owner is retryable (the
// neighbour may have capacity) but must NOT open the owner's breaker.
func TestShedBackendFailsOver(t *testing.T) {
	shedding := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "1")
		service.WriteJSON(w, http.StatusTooManyRequests, map[string]string{"error": "shed"})
	}))
	defer shedding.Close()
	ok := httptest.NewServer(service.New(service.Config{}).Handler())
	defer ok.Close()
	gw, err := New(Config{Backends: []string{shedding.URL, ok.URL}, BreakerThreshold: 2, BackoffBase: -1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(gw.Handler())
	defer ts.Close()

	req := slot0Request(t, gw)
	for i := 0; i < 5; i++ {
		resp, body := postJSON(t, ts.Client(), ts.URL+"/compile", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: %d %s — shed owner must fail over", i, resp.StatusCode, body)
		}
	}
	st := gw.Stats(context.Background())
	if st.Backends[0].Breaker != "closed" || st.Backends[0].BreakerOpens != 0 {
		t.Fatalf("shedding backend's breaker %q opens=%d — 429 must not trip it",
			st.Backends[0].Breaker, st.Backends[0].BreakerOpens)
	}
	if st.Backends[1].Failovers == 0 {
		t.Fatal("no failovers recorded off the shedding owner")
	}
}
