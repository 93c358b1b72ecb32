package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync/atomic"
	"testing"

	"vliwq"
)

// BenchmarkServiceThroughput measures aggregate end-to-end throughput of
// the HTTP service — JSON decode, loop parse, full compile pipeline, JSON
// encode — while sweeping GOMAXPROCS. The cache is disabled so every
// request pays for a real compilation: the point is that on a multi-core
// host the service scales with cores (GOMAXPROCS=4 beats GOMAXPROCS=1 in
// requests/sec, i.e. lower wall ns/op; on fewer cores the extra procs can
// only tie). Requests cycle over the 64-loop bench corpus, unrolled to make
// the compile dominate the HTTP overhead, mirroring cmd/vliwload.
func BenchmarkServiceThroughput(b *testing.B) {
	loops := testCorpus(b, 64)
	bodies := make([][]byte, len(loops))
	for i, l := range loops {
		buf, err := json.Marshal(CompileRequest{
			Loop:       vliwq.FormatLoop(l),
			Machine:    "clustered:4",
			Unroll:     true,
			SkipVerify: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		bodies[i] = buf
	}

	for _, procs := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("procs=%d", procs), func(b *testing.B) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			srv := New(Config{CacheEntries: -1})
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()
			// The default transport keeps only 2 idle conns per host;
			// RunParallel's goroutines would churn through fresh TCP
			// connections and measure the handshakes instead of the service.
			client := ts.Client()
			if tr, ok := client.Transport.(*http.Transport); ok {
				tr = tr.Clone()
				tr.MaxIdleConns = 64
				tr.MaxIdleConnsPerHost = 64
				client = &http.Client{Transport: tr}
			}
			var next atomic.Int64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					body := bodies[int(next.Add(1))%len(bodies)]
					resp, err := client.Post(ts.URL+"/compile", "application/json", bytes.NewReader(body))
					if err != nil {
						b.Error(err)
						return
					}
					if resp.StatusCode != http.StatusOK {
						b.Errorf("status %d", resp.StatusCode)
					}
					// Drain before Close or the keep-alive connection is
					// discarded and the loop measures TCP churn.
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			})
			b.StopTimer()
			if st := srv.Stats(); st.Sched.Compiles < int64(b.N) {
				b.Fatalf("served %d requests but compiled only %d — cache not disabled?", b.N, st.Sched.Compiles)
			}
		})
	}
}

// BenchmarkRunBatch measures the facade's in-process batch API on the same
// corpus, the ceiling the HTTP layer is compared against. The session is
// uncached so every iteration compiles.
func BenchmarkRunBatch(b *testing.B) {
	loops := testCorpus(b, 64)
	reqs := make([]vliwq.Request, len(loops))
	for i, l := range loops {
		reqs[i] = vliwq.Request{Loop: vliwq.FormatLoop(l), Machine: "clustered:4", SkipVerify: true}
	}
	c := vliwq.NewCompiler(vliwq.CompilerConfig{CacheEntries: -1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := c.RunBatch(context.Background(), reqs)
		if len(out) != len(reqs) {
			b.Fatal("short batch")
		}
	}
}
