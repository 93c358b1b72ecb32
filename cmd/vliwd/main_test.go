package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"vliwq"
	"vliwq/internal/corpus"
	"vliwq/internal/service"
)

// TestRunServesAndShutsDown boots the daemon on an ephemeral port, drives
// one compile through it, and checks the graceful-shutdown path.
func TestRunServesAndShutsDown(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ready := make(chan string, 1)
	var stdout, stderr bytes.Buffer
	done := make(chan int, 1)
	go func() {
		done <- run(ctx, []string{"-addr", "127.0.0.1:0"}, &stdout, &stderr, ready)
	}()
	var addr string
	select {
	case addr = <-ready:
	case <-time.After(10 * time.Second):
		t.Fatalf("daemon never became ready; stderr: %s", stderr.String())
	}

	base := "http://" + addr
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}

	body, _ := json.Marshal(service.CompileRequest{
		Loop:    vliwq.FormatLoop(corpus.KernelByName("daxpy")),
		Machine: "clustered:4",
	})
	resp, err = http.Post(base+"/compile", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var cr service.CompileResponse
	err = json.NewDecoder(resp.Body).Decode(&cr)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("compile: status %d, err %v", resp.StatusCode, err)
	}
	if cr.Loop != "daxpy" || cr.II < 1 {
		t.Fatalf("compile response: %+v", cr)
	}

	cancel()
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("exit code %d; stderr: %s", code, stderr.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not shut down")
	}
	if !strings.Contains(stdout.String(), "listening on") || !strings.Contains(stdout.String(), "shutting down") {
		t.Fatalf("stdout missing lifecycle lines:\n%s", stdout.String())
	}
}

func TestRunBadFlags(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), []string{"-bogus"}, &stdout, &stderr, nil); code != 2 {
		t.Fatalf("bad flag exit code %d, want 2", code)
	}
	if code := run(context.Background(), []string{"-addr", "256.0.0.1:bad"}, &stdout, &stderr, nil); code != 1 {
		t.Fatalf("bad addr exit code %d, want 1", code)
	}
	stderr.Reset()
	if code := run(context.Background(), []string{"-cache-entries", "-1"}, &stdout, &stderr, nil); code != 2 {
		t.Fatalf("negative cache bound exit code %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "-cache-entries") {
		t.Fatalf("negative cache bound message does not name the flag: %q", stderr.String())
	}
	stderr.Reset()
	if code := run(context.Background(), []string{"-max-batch", "8"}, &stdout, &stderr, nil); code != 2 {
		t.Fatalf("-max-batch exit code %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "flag provided but not defined: -max-batch") {
		t.Fatalf("-max-batch is not reported as an unknown flag: %q", stderr.String())
	}
}

// bootDaemon starts run() with args, waits for the listener, and returns
// the base URL plus a shutdown func that asserts a clean exit.
func bootDaemon(t *testing.T, args []string, stdout, stderr *bytes.Buffer) (string, func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan string, 1)
	done := make(chan int, 1)
	go func() { done <- run(ctx, args, stdout, stderr, ready) }()
	var addr string
	select {
	case addr = <-ready:
	case <-time.After(10 * time.Second):
		cancel()
		t.Fatalf("daemon never became ready; stderr: %s", stderr.String())
	}
	return "http://" + addr, func() {
		cancel()
		select {
		case code := <-done:
			if code != 0 {
				t.Fatalf("exit code %d; stderr: %s", code, stderr.String())
			}
		case <-time.After(10 * time.Second):
			t.Fatal("daemon did not shut down")
		}
	}
}

func compileDaxpy(t *testing.T, base string) service.CompileResponse {
	t.Helper()
	body, _ := json.Marshal(service.CompileRequest{
		Loop:    vliwq.FormatLoop(corpus.KernelByName("daxpy")),
		Machine: "clustered:4",
	})
	resp, err := http.Post(base+"/compile", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var cr service.CompileResponse
	err = json.NewDecoder(resp.Body).Decode(&cr)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("compile: status %d, err %v", resp.StatusCode, err)
	}
	return cr
}

// TestRunSnapshotWarmRestart is the daemon-level persistence contract: a
// compile served before shutdown is persisted via -cache-snapshot, and a
// second daemon booting from the same path serves the repeated request as
// a cache hit without running the pipeline.
func TestRunSnapshotWarmRestart(t *testing.T) {
	snap := t.TempDir() + "/cache.snap"
	args := []string{"-addr", "127.0.0.1:0", "-cache-snapshot", snap}

	var stdout1, stderr1 bytes.Buffer
	base, shutdown := bootDaemon(t, args, &stdout1, &stderr1)
	first := compileDaxpy(t, base)
	shutdown()
	if !strings.Contains(stdout1.String(), "starting cold") ||
		!strings.Contains(stdout1.String(), "saved 1 cache entries") {
		t.Fatalf("first run missing snapshot lifecycle lines:\n%s", stdout1.String())
	}

	var stdout2, stderr2 bytes.Buffer
	base2, shutdown2 := bootDaemon(t, args, &stdout2, &stderr2)
	second := compileDaxpy(t, base2)
	if first != second {
		t.Fatalf("warm-restarted response differs:\n%+v\nvs\n%+v", second, first)
	}
	resp, err := http.Get(base2 + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st service.StatsResponse
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if st.Cache.Hits < 1 || st.Sched.Compiles != 0 {
		t.Fatalf("warm restart served hits=%d compiles=%d, want a hit and zero compiles", st.Cache.Hits, st.Sched.Compiles)
	}
	shutdown2()
	if !strings.Contains(stdout2.String(), "warm start: 1 cache entries") {
		t.Fatalf("second run missing warm-start line:\n%s", stdout2.String())
	}
}
