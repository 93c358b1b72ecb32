package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

// toySizes run every workload in well under a second: each workload's
// inputs run out long before the measured phase would end, so two runs do
// identical work.
var toySizes = sizes{
	cold: 4, certified: 3, sweep: 12, warmBase: 12,
	ops:   map[string]int{"cold": 16, "warm": 48, "certified": 3, "sweep": 2},
	trace: map[string]int{"cold": 6, "warm": 24, "certified": 2, "sweep": 1},
}

func toyConfig(t *testing.T, workload string, trace bool) config {
	return config{workload: workload, seed: 5, duration: time.Minute, trace: trace,
		traceDir: t.TempDir(), sizes: toySizes}
}

// benchmarkJSON is the part of BENCHMARK.json the harness must honour.
type benchmarkJSON struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

var digestLine = regexp.MustCompile(`(?m)^output_digest ([0-9a-f]{16})`)

// TestWorkloadsPrintEveryMetric runs every workload untraced twice and
// traced once, at toy size: every metric BENCHMARK.json lists is printed
// with its unit, nothing fails, and the output digest repeats.
func TestWorkloadsPrintEveryMetric(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkJSON
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness runs %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		w := w.Name
		t.Run(w, func(t *testing.T) {
			var digests []string
			for run := 0; run < 2; run++ {
				var info bytes.Buffer
				res, err := execute(context.Background(), toyConfig(t, w, false), &info)
				if err != nil {
					t.Fatal(err)
				}
				checkResult(t, res, spec.EndToEnd, info.String())
				m := digestLine.FindStringSubmatch(info.String())
				if m == nil {
					t.Fatalf("no output_digest line in:\n%s", info.String())
				}
				digests = append(digests, m[1])
			}
			if digests[0] != digests[1] {
				t.Errorf("output_digest differs between two runs: %s vs %s", digests[0], digests[1])
			}
			var info bytes.Buffer
			res, err := execute(context.Background(), toyConfig(t, w, true), &info)
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, res, spec.PerLayer, info.String())
		})
	}
}

func checkResult(t *testing.T, res result, want []struct{ Name, Unit string }, info string) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("correct=%v attempted=%d failed=%d, want a clean run:\n%s", res.Correct, res.Attempted, res.Failed, info)
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("printed %d metrics, BENCHMARK.json lists %d", len(res.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		if !ok || got.Unit != m.Unit {
			t.Errorf("metric %s: printed %+v (present %v), want unit %q", m.Name, got, ok, m.Unit)
		}
	}
}

// TestCorruptedIIFails serves cold answers whose ii has one digit changed:
// the in-process recompile check must catch it and the command exit 1.
func TestCorruptedIIFails(t *testing.T) {
	cfg := toyConfig(t, "cold", false)
	cfg.wrap = func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, r)
			body := rec.Body.Bytes()
			if i := bytes.Index(body, []byte(`"ii":`)); i >= 0 {
				if d := &body[i+len(`"ii":`)]; *d == '9' {
					*d = '8'
				} else {
					*d++
				}
			}
			for k, v := range rec.Header() {
				w.Header()[k] = v
			}
			w.WriteHeader(rec.Code)
			w.Write(body)
		})
	}
	var stdout, stderr bytes.Buffer
	if code := runConfig(cfg, &stdout, &stderr); code != 1 {
		t.Fatalf("exit code %d with corrupted answers, want 1\n%s%s", code, stdout.String(), stderr.String())
	}
	if !strings.Contains(stdout.String(), "check failed: recheck of op 0") {
		t.Fatalf("the recompile check did not report the corrupted answer:\n%s%s", stdout.String(), stderr.String())
	}
}

// TestTraceWarmRunsNoStage traces warm at toy size: every answer is a cache
// hit, so no compile or pipeline-stage span appears, the replay takes the
// fleet's paths, and a stage span the fleet did not run would read as a
// full stage error.
func TestTraceWarmRunsNoStage(t *testing.T) {
	tr, err := traceServed(context.Background(), toyConfig(t, "warm", true), toySizes.trace["warm"])
	if err != nil {
		t.Fatal(err)
	}
	if tr.err != nil {
		t.Fatal(tr.err)
	}
	if tr.delta.paths.hits+tr.delta.paths.structHits != int64(tr.ops) || tr.delta.paths.compiles != 0 {
		t.Fatalf("fleet paths %+v over %d ops, want only hits", tr.delta.paths, tr.ops)
	}
	banned := map[string]bool{"vliwq.compile": true}
	for _, name := range stageSpans {
		banned[name] = true
	}
	for _, s := range tr.spans {
		if banned[s.Name] {
			t.Fatalf("span %s on warm", s.Name)
		}
	}
	if v := tr.values()["trace.stage_err_frac"]; v != 0 {
		t.Fatalf("trace.stage_err_frac = %v on warm, want 0", v)
	}
	tr.spans = append(tr.spans, span{ID: len(tr.spans), Parent: -1, Name: "sim", Dur: 1000})
	if v := tr.values()["trace.stage_err_frac"]; v != 1 {
		t.Fatalf("trace.stage_err_frac = %v with a stage span the fleet did not run, want 1", v)
	}
}

// TestHostClock reads a hand-built clock: nominal speed for a second, half
// speed for the next, then nominal again, extended past both ends.
func TestHostClock(t *testing.T) {
	t0 := time.Now()
	c := &hostClock{
		at:  []time.Time{t0, t0.Add(time.Second), t0.Add(2 * time.Second)},
		ref: []time.Duration{refNominal, 2 * refNominal, refNominal},
	}
	c.integrate()
	sec := func(s float64) time.Time { return t0.Add(time.Duration(s * float64(time.Second))) }
	for _, tc := range []struct{ from, to, want float64 }{
		{0, 2, 1.5},
		{0.5, 1.5, 0.75},
		{1.25, 1.75, 0.25},
		{-1, 0, 1},
		{2, 3, 1},
	} {
		if got := c.elapsed(sec(tc.from), sec(tc.to)); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("elapsed(%vs, %vs) = %v, want %v", tc.from, tc.to, got, tc.want)
		}
	}
}

// TestSelfTime checks self time on a hand-built tree: a 100 ns root with a
// 60 ns child, which has a 25 ns child of its own, and a 10 ns child
// replayed out of line.
func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "gateway", Dur: 100},
		{ID: 1, Parent: 0, Name: "service", Dur: 60},
		{ID: 2, Parent: 1, Name: "ir.parse", Dur: 25},
		{ID: 3, Parent: 0, Name: "gateway.route", Dur: 10},
	}
	want := []int64{30, 35, 25, 10}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of span %d (%s) = %d, want %d", i, spans[i].Name, got[i], want[i])
		}
	}
	tr := &traceRun{ops: 1, spans: spans, untraced: time.Second, tracedWall: time.Second}
	v := tr.values()
	for layer, share := range map[string]float64{"gateway": 0.40, "service": 0.35, "ir": 0.25} {
		if got := v["ledger."+layer]; got < share-1e-9 || got > share+1e-9 {
			t.Errorf("ledger.%s = %v, want %v", layer, got, share)
		}
	}
}
