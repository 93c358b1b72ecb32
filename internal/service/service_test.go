package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"vliwq"
	"vliwq/internal/corpus"
	"vliwq/internal/ir"
)

// testCorpus returns the deterministic loop set the service tests replay.
func testCorpus(t testing.TB, n int) []*ir.Loop {
	t.Helper()
	return corpus.Generate(corpus.Params{Seed: corpus.DefaultSeed, N: n})
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

// TestServerMatchesDirectCompile is the service's fidelity contract: for 56
// corpus loops, the /compile response must be byte-identical — report,
// kernel table and every metric — to an in-process compile of the same
// request by an uncached vliwq.Compiler, and /batch must agree
// entry-for-entry with the same reference. Loops the pipeline rejects must
// fail identically on both paths.
func TestServerMatchesDirectCompile(t *testing.T) {
	const n = 56 // acceptance floor is 50
	loops := testCorpus(t, n)

	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	reqs := make([]CompileRequest, n)
	for i, l := range loops {
		reqs[i] = CompileRequest{Loop: vliwq.FormatLoop(l), Machine: "clustered:4", Unroll: true}
	}
	direct := vliwq.NewCompiler(vliwq.CompilerConfig{}).RunBatch(context.Background(), reqs)

	for i := range reqs {
		resp, body := postJSON(t, ts.Client(), ts.URL+"/compile", reqs[i])
		if direct[i].Err != nil {
			if resp.StatusCode != http.StatusUnprocessableEntity {
				t.Fatalf("loop %d: status %d for a loop direct compile rejects (%v)", i, resp.StatusCode, direct[i].Err)
			}
			var e map[string]string
			if err := json.Unmarshal(body, &e); err != nil || !strings.Contains(e["error"], direct[i].Err.Error()) {
				t.Fatalf("loop %d: server error %q does not match direct error %q", i, e["error"], direct[i].Err)
			}
			continue
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("loop %d: status %d, body %s", i, resp.StatusCode, body)
		}
		var got CompileResponse
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatalf("loop %d: %v", i, err)
		}
		assertMatchesResult(t, i, &got, direct[i].Result)
	}

	// The same set through /batch: results in input order, same bytes.
	resp, body := postJSON(t, ts.Client(), ts.URL+"/batch", BatchRequest{Requests: reqs})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/batch status %d: %s", resp.StatusCode, body)
	}
	var batch BatchResponse
	if err := json.Unmarshal(body, &batch); err != nil {
		t.Fatal(err)
	}
	if len(batch.Results) != n {
		t.Fatalf("/batch returned %d results for %d requests", len(batch.Results), n)
	}
	for i, e := range batch.Results {
		if direct[i].Err != nil {
			if e.Error == "" || !strings.Contains(e.Error, direct[i].Err.Error()) {
				t.Fatalf("batch entry %d: error %q, want %q", i, e.Error, direct[i].Err)
			}
			continue
		}
		if e.Response == nil {
			t.Fatalf("batch entry %d: missing response (error %q)", i, e.Error)
		}
		assertMatchesResult(t, i, e.Response, direct[i].Result)
	}
}

// TestServedCompileReusesPreparedLoop: a served compile runs on the loop
// the prepared request parsed for its keys, not on a second parse of its
// text, and reports what a session's Run of the raw request reports. A
// loop that does not parse fails with the parser's error.
func TestServedCompileReusesPreparedLoop(t *testing.T) {
	srv := New(Config{})
	ctx := context.Background()
	req := CompileRequest{Loop: vliwq.FormatLoop(testCorpus(t, 1)[0]), Machine: "clustered:4", Effort: "balanced", Unroll: true}
	p := vliwq.Prepare(req)
	loop, err := p.Loop()
	if err != nil {
		t.Fatal(err)
	}
	got, msg, _ := srv.runPipeline(ctx, p)
	if got == nil {
		t.Fatalf("served compile failed: %s", msg)
	}
	if got.Input != loop {
		t.Fatal("the served compile parsed the loop again")
	}
	want, err := vliwq.NewCompiler(vliwq.CompilerConfig{}).Run(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if got.Report() != want.Report() || got.KernelSchedule() != want.KernelSchedule() {
		t.Fatalf("served compile and Run disagree:\n%s\nvs\n%s", got.Report(), want.Report())
	}
	if _, msg, _ := srv.runPipeline(ctx, vliwq.Prepare(CompileRequest{Loop: "garbage"})); !strings.Contains(msg, "unknown directive") {
		t.Fatalf("unparseable loop: error %q", msg)
	}
}

func assertMatchesResult(t *testing.T, i int, got *CompileResponse, want *vliwq.Result) {
	t.Helper()
	if got.Report != want.Report() {
		t.Fatalf("loop %d: server report differs from direct compile:\n--- server ---\n%s--- direct ---\n%s", i, got.Report, want.Report())
	}
	if got.Kernel != want.KernelSchedule() {
		t.Fatalf("loop %d: server kernel table differs from direct compile", i)
	}
	if got.II != want.II || got.MII != want.MII || got.Stages != want.StageCount ||
		got.Unrolled != want.Unrolled || got.Queues != want.Queues || got.RingQueues != want.RingQueues ||
		got.IPCStatic != want.IPCStatic || got.IPCDynamic != want.IPCDynamic {
		t.Fatalf("loop %d: metrics differ: server %+v, direct %+v", i, got, want)
	}
}

// TestCachedMatchesUncached compiles the same set against one warm server
// and against a fresh server per request, whose caches are empty, so it
// compiles; every response body must be identical, and repeat requests
// must be identical to their first serving.
func TestCachedMatchesUncached(t *testing.T) {
	loops := testCorpus(t, 16)
	cached := httptest.NewServer(New(Config{}).Handler())
	defer cached.Close()
	for i, l := range loops {
		req := CompileRequest{Loop: vliwq.FormatLoop(l), Machine: "clustered:4", SkipVerify: true}
		fresh := New(Config{})
		uncached := httptest.NewServer(fresh.Handler())
		_, a := postJSON(t, cached.Client(), cached.URL+"/compile", req)
		_, b := postJSON(t, uncached.Client(), uncached.URL+"/compile", req)
		_, c := postJSON(t, cached.Client(), cached.URL+"/compile", req) // cache hit
		uncached.Close()
		if !bytes.Equal(a, b) {
			t.Fatalf("loop %d: warm and fresh servers disagree:\n%s\nvs\n%s", i, a, b)
		}
		if !bytes.Equal(a, c) {
			t.Fatalf("loop %d: cache hit changed the response", i)
		}
		if n := fresh.Stats().Sched.Compiles; n != 1 {
			t.Fatalf("loop %d: the fresh server ran the pipeline %d times, want 1", i, n)
		}
	}
}

// TestConcurrentRequests hammers one server from many goroutines with
// overlapping requests; under -race this is the service's main concurrency
// check. Every response must match the sequential baseline.
func TestConcurrentRequests(t *testing.T) {
	loops := testCorpus(t, 24)
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	want := make([][]byte, len(loops))
	reqs := make([]CompileRequest, len(loops))
	for i, l := range loops {
		reqs[i] = CompileRequest{Loop: vliwq.FormatLoop(l), Machine: "clustered:4", SkipVerify: true}
		_, want[i] = postJSON(t, ts.Client(), ts.URL+"/compile", reqs[i])
	}

	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range reqs {
				j := (i + w) % len(reqs)
				_, got := postJSON(t, ts.Client(), ts.URL+"/compile", reqs[j])
				if !bytes.Equal(got, want[j]) {
					errs <- fmt.Errorf("worker %d loop %d: response changed under concurrency", w, j)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	st := srv.Stats()
	if st.Cache.Hits == 0 {
		t.Fatal("no cache hits after replaying the corpus")
	}
	if st.Sched.Compiles != int64(len(loops)) {
		t.Fatalf("pipeline ran %d times for %d distinct requests", st.Sched.Compiles, len(loops))
	}
}

func TestBatchWorkerPoolOrdering(t *testing.T) {
	loops := testCorpus(t, 20)
	// Workers: 3 forces interleaving.
	ts := httptest.NewServer(New(Config{Workers: 3}).Handler())
	defer ts.Close()
	reqs := make([]CompileRequest, len(loops))
	for i, l := range loops {
		reqs[i] = CompileRequest{Loop: vliwq.FormatLoop(l), SkipVerify: true}
	}
	_, body := postJSON(t, ts.Client(), ts.URL+"/batch", BatchRequest{Requests: reqs})
	var batch BatchResponse
	if err := json.Unmarshal(body, &batch); err != nil {
		t.Fatal(err)
	}
	for i, e := range batch.Results {
		if e.Response == nil {
			t.Fatalf("entry %d: %s", i, e.Error)
		}
		if e.Response.Loop != loops[i].Name {
			t.Fatalf("entry %d is loop %q, want %q — batch order not deterministic", i, e.Response.Loop, loops[i].Name)
		}
	}
}

func TestHealthz(t *testing.T) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	var body map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil || body["status"] != "ok" {
		t.Fatalf("healthz body %v (%v)", body, err)
	}
}

func TestStatsCounters(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	req := CompileRequest{Loop: vliwq.FormatLoop(corpus.KernelByName("daxpy")), SkipVerify: true}
	postJSON(t, ts.Client(), ts.URL+"/compile", req)
	postJSON(t, ts.Client(), ts.URL+"/compile", req)
	postJSON(t, ts.Client(), ts.URL+"/batch", BatchRequest{Requests: []CompileRequest{req, req}})

	resp, err := ts.Client().Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.CompileRequests != 2 || st.BatchRequests != 1 || st.BatchItems != 2 {
		t.Fatalf("request counters: %+v", st)
	}
	if st.Cache.Misses != 1 || st.Cache.Hits != 3 {
		t.Fatalf("cache counters: %+v", st.Cache)
	}
	if st.Sched.Compiles != 1 || st.Sched.IISum < 1 || st.Sched.OpsScheduled < 1 {
		t.Fatalf("sched counters: %+v", st.Sched)
	}
	// The staged engine's observability: per-stage wall clock (the compile
	// ran schedule and alloc; it skipped verify) and per-machine-spec
	// compile counts in normalized spec notation.
	if st.Sched.StageNanos["schedule"] <= 0 || st.Sched.StageNanos["alloc"] <= 0 {
		t.Fatalf("stage nanos missing compile stages: %v", st.Sched.StageNanos)
	}
	if _, ok := st.Sched.StageNanos["verify"]; ok {
		t.Fatalf("verify stage timed on a skip_verify compile: %v", st.Sched.StageNanos)
	}
	if st.Sched.Machines["single:6"] != 1 || len(st.Sched.Machines) != 1 {
		t.Fatalf("machine counters: %v", st.Sched.Machines)
	}
}

func TestBoundedCacheMode(t *testing.T) {
	loops := testCorpus(t, 24)
	srv := New(Config{CacheEntries: 8})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for _, l := range loops {
		postJSON(t, ts.Client(), ts.URL+"/compile", CompileRequest{Loop: vliwq.FormatLoop(l), SkipVerify: true})
	}
	st := srv.Stats()
	if st.Cache.Entries > 8 {
		t.Fatalf("bounded cache holds %d entries", st.Cache.Entries)
	}
	if st.Cache.Evictions == 0 {
		t.Fatal("no evictions recorded after overflowing the bound")
	}
}

func TestRequestErrors(t *testing.T) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()
	client := ts.Client()
	valid, _ := json.Marshal(CompileRequest{Loop: vliwq.FormatLoop(corpus.KernelByName("daxpy"))})
	tooMany := `{"requests":[` + strings.Repeat(string(valid)+",", MaxBatch) + string(valid) + `]}`

	tests := []struct {
		name   string
		method string
		path   string
		body   string
		status int
		errHas string
	}{
		{"compile GET", http.MethodGet, "/compile", "", http.StatusMethodNotAllowed, "POST"},
		{"batch GET", http.MethodGet, "/batch", "", http.StatusMethodNotAllowed, "POST"},
		{"bad json", http.MethodPost, "/compile", "{", http.StatusBadRequest, "bad request body"},
		{"unknown field", http.MethodPost, "/compile", `{"loops":"x"}`, http.StatusBadRequest, "unknown field"},
		{"empty loop", http.MethodPost, "/compile", `{"loop":""}`, http.StatusBadRequest, "empty loop"},
		{"bad machine", http.MethodPost, "/compile", `{"loop":"loop x\ntrip 4\nop a load","machine":"mesh:4"}`, http.StatusBadRequest, "unknown machine kind"},
		{"bad shape", http.MethodPost, "/compile", `{"loop":"loop x\ntrip 4\nop a load","copy_shape":"star"}`, http.StatusBadRequest, "unknown copy_shape"},
		{"negative commlat", http.MethodPost, "/compile", `{"loop":"loop x\ntrip 4\nop a load","comm_latency":-1}`, http.StatusBadRequest, "comm_latency"},
		{"huge machine", http.MethodPost, "/compile", `{"loop":"loop x\ntrip 4\nop a load","machine":"clustered:500000000"}`, http.StatusBadRequest, "exceeds"},
		{"huge unroll factor", http.MethodPost, "/compile", `{"loop":"loop x\ntrip 4\nop a load","unroll_factor":100000000}`, http.StatusBadRequest, "unroll_factor"},
		{"unknown effort", http.MethodPost, "/compile", `{"loop":"loop x\ntrip 4\nop a load","effort":"sluggish"}`, http.StatusBadRequest, `unknown effort "sluggish" (valid: balanced, exhaustive, fast, optimal)`},
		{"unparsable loop", http.MethodPost, "/compile", `{"loop":"op without header"}`, http.StatusUnprocessableEntity, "ir:"},
		{"batch too large", http.MethodPost, "/batch", tooMany, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("batch of %d exceeds the %d-request limit", MaxBatch+1, MaxBatch)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			req, err := http.NewRequest(tt.method, ts.URL+tt.path, strings.NewReader(tt.body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := client.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tt.status {
				t.Fatalf("status %d, want %d", resp.StatusCode, tt.status)
			}
			var e map[string]string
			if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(e["error"], tt.errHas) {
				t.Fatalf("error %q does not mention %q", e["error"], tt.errHas)
			}
		})
	}
}

// TestOversizeBodyIs413 distinguishes "shrink your request" from
// "malformed JSON": blowing the body cap must answer 413, not 400.
func TestOversizeBodyIs413(t *testing.T) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()
	big := CompileRequest{Loop: strings.Repeat("# pad\n", maxBodyBytes/6+1) + "loop x\ntrip 4\nop a load"}
	resp, body := postJSON(t, ts.Client(), ts.URL+"/compile", big)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413 (body %s)", resp.StatusCode, body)
	}
}
