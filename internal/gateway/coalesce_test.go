package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"vliwq"
	"vliwq/internal/faults"
	"vliwq/internal/service"
)

// dualInjectedFleet boots a 2-backend fleet with a fault injector wrapped
// around EACH backend, so coalescing tests can count exactly how many HTTP
// requests reach every slot — the fleet-wide cost of a request storm.
func dualInjectedFleet(t testing.TB, cfg Config, c0, c1 faults.Config) (*Gateway, *httptest.Server, [2]*faults.Injector) {
	t.Helper()
	inj0 := faults.New(service.New(service.Config{}).Handler(), c0)
	inj1 := faults.New(service.New(service.Config{}).Handler(), c1)
	b0 := httptest.NewServer(inj0)
	b1 := httptest.NewServer(inj1)
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
	return gw, ts, [2]*faults.Injector{inj0, inj1}
}

// waitRequests polls until an injector has seen at least n requests — the
// point at which the leader's flight is definitely registered (the flight
// exists before its dispatch starts) and the backend is inside its
// injected delay, so every request fired after this deterministically joins.
func waitRequests(t testing.TB, inj *faults.Injector, n int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for inj.Counts().Requests < n {
		if time.Now().After(deadline) {
			t.Fatalf("injector saw %d requests, want >= %d", inj.Counts().Requests, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestGatewayCoalescesConcurrentIdentical: concurrent identical /compile
// requests cost the fleet ONE backend HTTP request. The owner is slowed so
// the leader's dispatch is reliably in flight when the rest arrive; they
// join it, the backend sees a single request, and every caller relays the
// same bytes. Joiners skip the routing counters, so owned == served == 1.
func TestGatewayCoalescesConcurrentIdentical(t *testing.T) {
	gw, ts, inj := dualInjectedFleet(t, Config{},
		faults.Config{SlowEvery: 1, SlowBy: 150 * time.Millisecond}, faults.Config{})
	req := slot0Request(t, gw)

	const callers = 8
	type reply struct {
		status int
		body   []byte
	}
	replies := make([]reply, callers)
	var wg sync.WaitGroup
	post := func(i int) {
		defer wg.Done()
		resp, body := postJSON(t, ts.Client(), ts.URL+"/compile", req)
		replies[i] = reply{resp.StatusCode, body}
	}
	wg.Add(1)
	go post(0)
	waitRequests(t, inj[0], 1)
	for i := 1; i < callers; i++ {
		wg.Add(1)
		go post(i)
	}
	wg.Wait()

	for i, r := range replies {
		if r.status != http.StatusOK {
			t.Fatalf("caller %d: status %d body %s", i, r.status, r.body)
		}
		if !bytes.Equal(r.body, replies[0].body) {
			t.Fatalf("caller %d relayed different bytes than the leader", i)
		}
	}
	if n := inj[0].Counts().Requests; n != 1 {
		t.Fatalf("backend saw %d requests for %d concurrent callers, want 1", n, callers)
	}
	st := gw.Stats(context.Background())
	if st.Coalesced != callers-1 {
		t.Fatalf("coalesced = %d, want %d", st.Coalesced, callers-1)
	}
	if st.Backends[0].Owned != 1 || st.Backends[0].Served != 1 {
		t.Fatalf("owned=%d served=%d, want 1/1 — joiners must not touch routing counters",
			st.Backends[0].Owned, st.Backends[0].Served)
	}
}

// TestGatewayStampedeJoinsFailover is the failover-stampede regression
// test: the owner is down, so serving the key requires a ring walk onto the
// surviving peer. Before coalescing, every concurrent caller marched that
// ring independently and the peer absorbed the whole storm; now the
// leader's walk is the only one in flight and the peer sees exactly one
// request. The peer is slowed so the joiners reliably arrive mid-flight.
func TestGatewayStampedeJoinsFailover(t *testing.T) {
	gw, ts, inj := dualInjectedFleet(t, Config{BackoffBase: -1},
		faults.Config{}, faults.Config{SlowEvery: 1, SlowBy: 150 * time.Millisecond})
	req := slot0Request(t, gw)
	inj[0].SetDown(true)

	const callers = 8
	statuses := make([]int, callers)
	bodies := make([][]byte, callers)
	var wg sync.WaitGroup
	post := func(i int) {
		defer wg.Done()
		resp, body := postJSON(t, ts.Client(), ts.URL+"/compile", req)
		statuses[i], bodies[i] = resp.StatusCode, body
	}
	wg.Add(1)
	go post(0)
	// Wait for the leader's walk to fail over and reach the peer: from this
	// point its flight is registered and the peer is inside the injected
	// delay, so the stampede below must join rather than re-walk the ring.
	waitRequests(t, inj[1], 1)
	for i := 1; i < callers; i++ {
		wg.Add(1)
		go post(i)
	}
	wg.Wait()

	for i := range statuses {
		if statuses[i] != http.StatusOK {
			t.Fatalf("caller %d: status %d body %s — failover must mask the outage", i, statuses[i], bodies[i])
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("caller %d relayed different bytes than the leader", i)
		}
	}
	if n := inj[1].Counts().Requests; n != 1 {
		t.Fatalf("surviving peer absorbed %d requests, want 1 — the stampede was not coalesced", n)
	}
	if down := inj[0].Counts(); down.Failed == 0 {
		t.Fatalf("down owner injected no failures (%+v); the walk never exercised the outage", down)
	}
	st := gw.Stats(context.Background())
	if st.Coalesced != callers-1 {
		t.Fatalf("coalesced = %d, want %d", st.Coalesced, callers-1)
	}
	if st.Backends[1].Failovers != 1 {
		t.Fatalf("peer failovers = %d, want 1 (one ring walk fleet-wide)", st.Backends[1].Failovers)
	}
}

// TestGatewayLeaderHandoff: a leader whose own deadline expires mid-flight
// is answered 504, and a caller with no deadline waiting on the same key
// does not inherit that 504 — the flight's Retry fate hands it a dispatch
// of its own, which answers 200. The backend sees both requests, and the
// gateway's coalesced counter does not count the handed-off caller.
func TestGatewayLeaderHandoff(t *testing.T) {
	gw, ts, inj := dualInjectedFleet(t, Config{},
		faults.Config{SlowEvery: 1, SlowBy: 300 * time.Millisecond}, faults.Config{})
	body, err := json.Marshal(slot0Request(t, gw))
	if err != nil {
		t.Fatal(err)
	}
	type answer struct {
		status  int
		elapsed time.Duration
		err     error
	}
	send := func(budget string) <-chan answer {
		out := make(chan answer, 1)
		go func() {
			start := time.Now()
			hr, err := http.NewRequest(http.MethodPost, ts.URL+"/compile", bytes.NewReader(body))
			if err != nil {
				out <- answer{err: err}
				return
			}
			if budget != "" {
				hr.Header.Set(service.DeadlineHeader, budget)
			}
			resp, err := ts.Client().Do(hr)
			if err != nil {
				out <- answer{err: err}
				return
			}
			resp.Body.Close()
			out <- answer{status: resp.StatusCode, elapsed: time.Since(start)}
		}()
		return out
	}

	leader := send("150ms")
	waitRequests(t, inj[0], 1)
	joiner := send("")
	// The joiner must be waiting on the leader's flight before the
	// leader's budget runs out, or this would test nothing.
	deadline := time.Now().Add(5 * time.Second)
	for gw.flights.Stats().Coalesced < 1 {
		if time.Now().After(deadline) {
			t.Fatal("the second caller never joined the leader's flight")
		}
		time.Sleep(time.Millisecond)
	}
	l, j := <-leader, <-joiner
	t.Logf("leader %d after %v, joiner %d after %v", l.status, l.elapsed, j.status, j.elapsed)
	if l.err != nil || l.status != http.StatusGatewayTimeout {
		t.Fatalf("leader: status %d err %v, want 504 from its own expired budget", l.status, l.err)
	}
	if j.err != nil || j.status != http.StatusOK {
		t.Fatalf("joiner: status %d err %v, want 200 from its own dispatch", j.status, j.err)
	}
	if n := inj[0].Counts().Requests; n != 2 {
		t.Fatalf("owner saw %d requests, want 2 (the leader's and the handed-off caller's)", n)
	}
	if st := gw.Stats(context.Background()); st.Coalesced != 0 {
		t.Fatalf("coalesced = %d, want 0: the handed-off caller was served by its own dispatch", st.Coalesced)
	}
	if fs := gw.flights.Stats(); fs.Misses != 2 || fs.Entries != 0 {
		t.Fatalf("flight stats = %+v, want 2 dispatches and no entry kept", fs)
	}
}

// gwStructLoop is a small daxpy-shaped loop for structural-routing tests.
const gwStructLoop = `loop daxpy
trip 200
op a load
op x load
op y load
op m mul a
op s add m y
op st store s
carried s m 1
mem st a 1
`

// renameGatewaySpelling rewrites every name in a loop text to a fresh
// namespace, preserving structure and statement order — a name-only
// isomorphic spelling with a distinct exact key.
func renameGatewaySpelling(t testing.TB, src, prefix string) string {
	t.Helper()
	l, err := vliwq.ParseLoop(src)
	if err != nil {
		t.Fatal(err)
	}
	l.Name = prefix + l.Name
	for i, op := range l.Ops {
		if op.Name != "" {
			op.Name = fmt.Sprintf("%s%d", prefix, i)
		}
	}
	return vliwq.FormatLoop(l)
}

// TestGatewayStructuralAcrossSpellings: two isomorphic but differently
// spelled requests route to the SAME backend (Route hashes the structural
// key), the second is served from that backend's structural cache, and the
// gateway's aggregated stats show one fleet-wide compile. The structurally
// served response is byte-identical to a fresh standalone service compiling
// the renamed spelling from scratch.
func TestGatewayStructuralAcrossSpellings(t *testing.T) {
	gw, ts, _ := fleet(t, 2, Config{})
	fresh := httptest.NewServer(service.New(service.Config{}).Handler())
	defer fresh.Close()

	orig := service.CompileRequest{Loop: gwStructLoop, Machine: "clustered:4"}
	renamed := service.CompileRequest{Loop: renameGatewaySpelling(t, gwStructLoop, "z"), Machine: "clustered:4"}
	if gw.Route(&orig) != gw.Route(&renamed) {
		t.Fatalf("isomorphic spellings routed to different slots (%d vs %d); structural routing broken",
			gw.Route(&orig), gw.Route(&renamed))
	}

	if resp, body := postJSON(t, ts.Client(), ts.URL+"/compile", orig); resp.StatusCode != http.StatusOK {
		t.Fatalf("original: status %d body %s", resp.StatusCode, body)
	}
	resp, got := postJSON(t, ts.Client(), ts.URL+"/compile", renamed)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("renamed: status %d body %s", resp.StatusCode, got)
	}
	if _, want := postJSON(t, fresh.Client(), fresh.URL+"/compile", renamed); !bytes.Equal(got, want) {
		t.Fatalf("structurally served response diverged from a fresh compile:\n%s\nvs\n%s", got, want)
	}

	st := gw.Stats(context.Background())
	if st.TotalSched.Compiles != 1 {
		t.Fatalf("fleet compiles = %d, want 1 (the renamed spelling must reuse the class compile)",
			st.TotalSched.Compiles)
	}
	if !st.TotalStructural.Enabled || st.TotalStructural.Hits != 1 {
		t.Fatalf("total structural = %+v, want enabled with hits=1", st.TotalStructural)
	}
	if st.TotalCache.Misses != 2 {
		t.Fatalf("exact misses = %d, want 2 (distinct spellings keep distinct exact keys)", st.TotalCache.Misses)
	}
}
