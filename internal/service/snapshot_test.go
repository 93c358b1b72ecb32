package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vliwq"
	"vliwq/internal/cache"
	"vliwq/internal/corpus"
)

// TestServerSnapshotWarmStart compiles through one server, snapshots its
// cache, loads the snapshot into a fresh server, and checks the fresh
// server answers the same requests byte-identically as pure cache hits —
// zero pipeline executions.
func TestServerSnapshotWarmStart(t *testing.T) {
	const n = 8
	loops := testCorpus(t, n)
	reqs := make([]CompileRequest, n)
	for i, l := range loops {
		reqs[i] = CompileRequest{Loop: vliwq.FormatLoop(l), Machine: "clustered:4", Unroll: true}
	}

	warm := New(Config{})
	ts := httptest.NewServer(warm.Handler())
	cold := make([][]byte, n)
	for i := range reqs {
		resp, body := postJSON(t, ts.Client(), ts.URL+"/compile", reqs[i])
		resp.Body.Close()
		cold[i] = body
	}
	ts.Close()

	var snap bytes.Buffer
	wrote, err := warm.SaveCache(&snap)
	if err != nil {
		t.Fatalf("SaveCache: %v", err)
	}
	if wrote != n {
		t.Fatalf("SaveCache wrote %d entries, want %d", wrote, n)
	}

	restarted := New(Config{})
	loaded, err := restarted.LoadCache(bytes.NewReader(snap.Bytes()))
	if err != nil {
		t.Fatalf("LoadCache: %v", err)
	}
	if loaded != n {
		t.Fatalf("LoadCache inserted %d entries, want %d", loaded, n)
	}

	ts2 := httptest.NewServer(restarted.Handler())
	defer ts2.Close()
	for i := range reqs {
		resp, body := postJSON(t, ts2.Client(), ts2.URL+"/compile", reqs[i])
		resp.Body.Close()
		if !bytes.Equal(body, cold[i]) {
			t.Fatalf("loop %d: warm-start response differs from the original:\n%s\nvs\n%s", i, body, cold[i])
		}
	}
	st := restarted.Stats()
	if st.Sched.Compiles != 0 {
		t.Fatalf("warm-started server ran %d compiles, want 0 (all hits)", st.Sched.Compiles)
	}
	if st.Cache.Hits != int64(n) {
		t.Fatalf("warm-started server counted %d hits, want %d", st.Cache.Hits, n)
	}
}

// TestSnapshotFormatCompatible loads testdata/snapshot/cache.snap, written
// by the service at af14140, when the exact layer held decoded responses,
// together with that service's /compile bodies for the five requests it
// holds: four corpus loops, the last at effort optimal, and one rejection
// whose error names "<z>". The loaded server must answer each request with the
// recorded bytes and no compile, and saving its cache again must write the
// recorded file byte for byte.
func TestSnapshotFormatCompatible(t *testing.T) {
	dir := filepath.Join("testdata", "snapshot")
	snap, err := os.ReadFile(filepath.Join(dir, "cache.snap"))
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := filepath.Glob(filepath.Join(dir, "request-*.json"))
	if err != nil || len(reqs) != 5 {
		t.Fatalf("found %d recorded requests (%v), want 5", len(reqs), err)
	}
	srv := New(Config{})
	if n, err := srv.LoadCache(bytes.NewReader(snap)); err != nil || n != len(reqs) {
		t.Fatalf("LoadCache inserted %d entries (%v), want %d", n, err, len(reqs))
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for _, path := range reqs {
		req, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(strings.Replace(path, "request-", "compile-", 1))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := ts.Client().Post(ts.URL+"/compile", "application/json", bytes.NewReader(req))
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		got.ReadFrom(resp.Body)
		resp.Body.Close()
		if !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("%s: answer differs from the recorded body:\n%s\nvs\n%s", path, got.Bytes(), want)
		}
	}
	st := srv.Stats()
	if st.Sched.Compiles != 0 || st.Cache.Hits != int64(len(reqs)) {
		t.Fatalf("%d compiles and %d hits, want 0 and %d", st.Sched.Compiles, st.Cache.Hits, len(reqs))
	}
	var again bytes.Buffer
	if _, err := srv.SaveCache(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), snap) {
		t.Fatalf("re-saved snapshot differs from the recorded one (%d vs %d bytes)", again.Len(), len(snap))
	}
}

// TestOutcomeCodecMatchesMarshal: the codec writes a stored answer as
// json.Marshal writes the decoded response in a wireOutcome, for every
// character json.Marshal escapes and WriteJSON does not.
func TestOutcomeCodecMatchesMarshal(t *testing.T) {
	resp := &CompileResponse{Loop: "a<b>&c", Report: "private<=4 & ring>=1 \u2028\u2029 \"<q>\"\n",
		IPCStatic: 8.830188679245284, Bound: &BoundInfo{Lower: 2}}
	got, err := outcomeCodec().EncodeValue(outcome{body: encode(resp)})
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(wireOutcome{Resp: resp})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("codec wrote\n%s\nwant\n%s", got, want)
	}
	oc, err := outcomeCodec().DecodeValue(got)
	if err != nil || !bytes.Equal(oc.body, encode(resp)) {
		t.Fatalf("decoded %q (%v), want %q", oc.body, err, encode(resp))
	}
}

// TestServerSnapshotCorrupt: a truncated snapshot is rejected with the
// cache's corrupt-snapshot error and leaves the server cold but serving.
func TestServerSnapshotCorrupt(t *testing.T) {
	warm := New(Config{})
	ts := httptest.NewServer(warm.Handler())
	req := CompileRequest{Loop: vliwq.FormatLoop(corpus.KernelByName("daxpy")), Machine: "clustered:4"}
	resp, _ := postJSON(t, ts.Client(), ts.URL+"/compile", req)
	resp.Body.Close()
	ts.Close()

	var snap bytes.Buffer
	if _, err := warm.SaveCache(&snap); err != nil {
		t.Fatal(err)
	}
	restarted := New(Config{})
	_, err := restarted.LoadCache(bytes.NewReader(snap.Bytes()[:snap.Len()/2]))
	if !errors.Is(err, cache.ErrCorruptSnapshot) {
		t.Fatalf("LoadCache on a truncated file: %v, want ErrCorruptSnapshot", err)
	}
	if restarted.Stats().Cache.Entries != 0 {
		t.Fatalf("corrupt load left %d entries", restarted.Stats().Cache.Entries)
	}
}
