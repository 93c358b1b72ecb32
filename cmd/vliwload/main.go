// Command vliwload load-tests a running vliwd — or a vliwgate fleet: it
// replays corpus loops against /compile (or /batch) at a fixed concurrency
// for a fixed duration and reports throughput, latency percentiles and an
// error breakdown, plus the server's own /stats counters. Pointed at a
// gateway it also prints the per-backend request distribution, which is
// how CI checks the hash ring actually shards.
//
// Any failed request — transport error, non-200 status, or a failed /batch
// entry — is counted, reported on a dedicated "errors:" line, and turns
// the exit status non-zero, so e2e pipelines cannot mistake a half-broken
// run for a green one. Load shed by the server (429, or 503 carrying
// Retry-After) is not a failure: an admission-controlled backend saying
// "not now" is the system working as designed, so sheds are counted on
// their own, the advertised Retry-After is honored before the worker
// resumes, and only hard failures turn the exit status non-zero.
//
// Usage:
//
//	vliwload -addr http://127.0.0.1:8391 -duration 5s -concurrency 8
//	vliwload -addr http://127.0.0.1:8391 -batch 16 -machine clustered:4
//	vliwload -addr http://127.0.0.1:8390   # a vliwgate: adds distribution
//	vliwload -addr http://127.0.0.1:8390 -deadline 250ms   # per-request budget header
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"vliwq"
	"vliwq/internal/corpus"
	"vliwq/internal/gateway"
	"vliwq/internal/service"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("vliwload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr        = fs.String("addr", "http://127.0.0.1:8391", "vliwd base URL")
		duration    = fs.Duration("duration", 5*time.Second, "how long to drive load")
		concurrency = fs.Int("concurrency", 8, "concurrent request workers")
		n           = fs.Int("n", 64, "number of distinct corpus loops to replay")
		seed        = fs.Int64("seed", corpus.DefaultSeed, "corpus seed")
		machineSpec = fs.String("machine", "clustered:4", "machine spec sent with every request")
		batch       = fs.Int("batch", 0, "requests per /batch call (0 drives /compile)")
		unrollReq   = fs.Bool("unroll", true, "request automatic unrolling")
		verify      = fs.Bool("verify", false, "request simulator verification (heavier)")
		effort      = fs.String("effort", "", "scheduler effort sent with every request (empty = server default)")
		reqBudget   = fs.Duration("deadline", 0, "per-request deadline sent in the "+service.DeadlineHeader+" header (0 = none)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *concurrency < 1 || *n < 1 || *duration <= 0 {
		fmt.Fprintln(stderr, "vliwload: -concurrency, -n and -duration must be positive")
		return 2
	}
	if *reqBudget < 0 {
		fmt.Fprintln(stderr, "vliwload: -deadline must be non-negative")
		return 2
	}
	if _, err := vliwq.ParseMachine(*machineSpec); err != nil {
		fmt.Fprintln(stderr, "vliwload:", err)
		return 2
	}
	if _, err := vliwq.ParseEffort(*effort); err != nil {
		fmt.Fprintln(stderr, "vliwload:", err)
		return 2
	}

	bodies, err := buildBodies(*n, *seed, *machineSpec, *effort, *unrollReq, !*verify, *batch)
	if err != nil {
		fmt.Fprintln(stderr, "vliwload:", err)
		return 1
	}

	base := strings.TrimSuffix(*addr, "/")
	path := base + "/compile"
	if *batch > 0 {
		path = base + "/batch"
	}
	client := &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        *concurrency * 2,
			MaxIdleConnsPerHost: *concurrency * 2,
		},
	}

	var (
		next      atomic.Int64
		transport atomic.Int64 // connection/timeout errors
		httpBad   atomic.Int64 // non-200 statuses other than shed answers
		entryBad  atomic.Int64 // failed /batch entries inside 200 answers
		shed      atomic.Int64 // 429 / Retry-After 503: admission control, not failure
		loopsOK   atomic.Int64
		wg        sync.WaitGroup
		mu        sync.Mutex
		lats      []time.Duration
	)
	failed := func() int64 { return transport.Load() + httpBad.Load() + entryBad.Load() }
	start := time.Now()
	deadline := start.Add(*duration)
	for w := 0; w < *concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []time.Duration
			for time.Now().Before(deadline) {
				b := bodies[int(next.Add(1))%len(bodies)]
				t0 := time.Now()
				resp, err := post(client, path, b.data, *reqBudget)
				if err != nil {
					transport.Add(1)
					continue
				}
				if wait, isShed := shedDelay(resp); isShed {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					shed.Add(1)
					if until := time.Until(deadline); wait > until {
						wait = until
					}
					if wait > 0 {
						time.Sleep(wait)
					}
					continue
				}
				if resp.StatusCode != http.StatusOK {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					httpBad.Add(1)
					continue
				}
				// /batch answers 200 even when individual entries fail, so
				// per-entry errors count as failed loops, not green calls.
				ok, bad := countLoops(resp.Body, b.loops, *batch > 0)
				resp.Body.Close()
				loopsOK.Add(int64(ok))
				entryBad.Add(int64(bad))
				mine = append(mine, time.Since(t0))
			}
			mu.Lock()
			lats = append(lats, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	// Divide by the measured wall time, not the nominal -duration: calls in
	// flight at the deadline still finish and count.
	elapsed := time.Since(start)

	if len(lats) == 0 {
		fmt.Fprintf(stderr, "vliwload: no successful requests against %s (%d failures, %d shed)\n",
			path, failed(), shed.Load())
		return 1
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	pick := func(q float64) time.Duration { return lats[int(q*float64(len(lats)-1))] }
	fmt.Fprintf(stdout, "vliwload: %d calls (%d loops compiled) in %s, %d failures\n",
		len(lats), loopsOK.Load(), elapsed.Round(time.Millisecond), failed())
	fmt.Fprintf(stdout, "throughput: %.1f calls/s (%.1f loops/s)\n",
		float64(len(lats))/elapsed.Seconds(), float64(loopsOK.Load())/elapsed.Seconds())
	fmt.Fprintf(stdout, "latency: p50=%s p90=%s p99=%s max=%s\n",
		pick(0.50).Round(time.Microsecond), pick(0.90).Round(time.Microsecond),
		pick(0.99).Round(time.Microsecond), lats[len(lats)-1].Round(time.Microsecond))
	fmt.Fprintf(stdout, "errors: %d (transport=%d http=%d entries=%d) shed=%d\n",
		failed(), transport.Load(), httpBad.Load(), entryBad.Load(), shed.Load())

	reportStats(client, base, stdout, stderr)
	if failed() > 0 {
		fmt.Fprintf(stderr, "vliwload: %d requests failed\n", failed())
		return 1
	}
	return 0
}

// post issues one load request. With a positive budget it attaches the
// service.DeadlineHeader the daemon and gateway both honor, so the whole
// serving chain works against the client's deadline instead of its own
// defaults.
func post(client *http.Client, path string, data []byte, budget time.Duration) (*http.Response, error) {
	req, err := http.NewRequest(http.MethodPost, path, bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if budget > 0 {
		req.Header.Set(service.DeadlineHeader, budget.String())
	}
	return client.Do(req)
}

// shedDelay recognizes a load-shedding answer — 429, or 503 carrying a
// Retry-After header — and returns how long the server asked the client to
// back off. A bare 503 is a real failure (a dead or broken backend), not
// shedding, and stays in the http error bucket.
func shedDelay(resp *http.Response) (wait time.Duration, isShed bool) {
	retryAfter := resp.Header.Get("Retry-After")
	switch {
	case resp.StatusCode == http.StatusTooManyRequests:
	case resp.StatusCode == http.StatusServiceUnavailable && retryAfter != "":
	default:
		return 0, false
	}
	if secs, err := strconv.Atoi(retryAfter); err == nil && secs > 0 {
		wait = time.Duration(secs) * time.Second
	}
	return wait, true
}

// reportStats fetches /stats and prints the server's own counters,
// including the structural (isomorphism-class) cache line when that layer
// is on. A gateway answer (recognized by its backend list) additionally
// prints the fleet-wide coalescing counter, the per-backend request
// distribution, and each backend's cache counters.
func reportStats(client *http.Client, base string, stdout, stderr io.Writer) {
	data, err := fetchStats(client, base)
	if err != nil {
		fmt.Fprintln(stderr, "vliwload: stats:", err)
		return
	}
	var gst gateway.StatsResponse
	if json.Unmarshal(data, &gst) == nil && gst.BackendCount > 0 {
		fmt.Fprintf(stdout, "gateway: %d backends, %d compiles, cache hits=%d misses=%d entries=%d\n",
			gst.BackendCount, gst.TotalSched.Compiles,
			gst.TotalCache.Hits, gst.TotalCache.Misses, gst.TotalCache.Entries)
		fmt.Fprintf(stdout, "structural: hits=%d coalesced=%d renumbered=%d entries=%d, gateway coalesced=%d\n",
			gst.TotalStructural.Hits, gst.TotalStructural.Coalesced,
			gst.TotalStructural.Renumbered, gst.TotalStructural.Entries, gst.Coalesced)
		if o := gst.TotalOptimal; o.Proved+o.Incumbent > 0 {
			fmt.Fprintf(stdout, "optimal: proved=%d incumbent=%d pruned_nodes=%d\n",
				o.Proved, o.Incumbent, o.PrunedNodes)
		}
		var total int64
		for _, b := range gst.Backends {
			total += b.Served
		}
		for _, b := range gst.Backends {
			share := 0.0
			if total > 0 {
				share = 100 * float64(b.Served) / float64(total)
			}
			health := "up"
			if !b.Healthy {
				health = "down"
			}
			fmt.Fprintf(stdout, "backend %s: %s, served=%d (%.1f%%) owned=%d failovers=%d hits=%d misses=%d\n",
				b.URL, health, b.Served, share, b.Owned, b.Failovers, b.Cache.Hits, b.Cache.Misses)
		}
		printMachines(stdout, gst.TotalSched.Machines)
		return
	}
	var st service.StatsResponse
	if err := json.Unmarshal(data, &st); err != nil {
		fmt.Fprintln(stderr, "vliwload: stats:", err)
		return
	}
	fmt.Fprintf(stdout, "server: %d compiles, cache hits=%d misses=%d entries=%d\n",
		st.Sched.Compiles, st.Cache.Hits, st.Cache.Misses, st.Cache.Entries)
	fmt.Fprintf(stdout, "structural: hits=%d coalesced=%d renumbered=%d entries=%d\n",
		st.Structural.Hits, st.Structural.Coalesced,
		st.Structural.Renumbered, st.Structural.Entries)
	if o := st.Optimal; o.Proved+o.Incumbent > 0 {
		fmt.Fprintf(stdout, "optimal: proved=%d incumbent=%d pruned_nodes=%d\n",
			o.Proved, o.Incumbent, o.PrunedNodes)
	}
	printMachines(stdout, st.Sched.Machines)
}

// printMachines renders the per-machine-spec compile counts /stats now
// carries — specs in the "single:<n>"/"clustered:<n>" notation
// (machine.Config.Spec), sorted, instead of struct dumps.
func printMachines(stdout io.Writer, machines map[string]int64) {
	if len(machines) == 0 {
		return
	}
	specs := make([]string, 0, len(machines))
	for spec := range machines {
		specs = append(specs, spec)
	}
	sort.Strings(specs)
	fmt.Fprint(stdout, "machines:")
	for _, spec := range specs {
		fmt.Fprintf(stdout, " %s=%d", spec, machines[spec])
	}
	fmt.Fprintln(stdout)
}

// countLoops drains one response body and splits the call's loops into
// compiled vs failed. /compile bodies are all-or-nothing; /batch bodies
// are inspected entry by entry, since the endpoint answers 200 even when
// every entry carries an error.
func countLoops(r io.Reader, loops int, isBatch bool) (ok, failed int) {
	if !isBatch {
		io.Copy(io.Discard, r)
		return loops, 0
	}
	var batch service.BatchResponse
	if err := json.NewDecoder(r).Decode(&batch); err != nil {
		return 0, loops
	}
	for _, e := range batch.Results {
		if e.Error != "" || e.Response == nil {
			failed++
		} else {
			ok++
		}
	}
	return ok, failed
}

// body is one pre-marshalled request carrying the number of loops a
// successful call compiles (a trailing /batch body may be partial).
type body struct {
	data  []byte
	loops int
}

// buildBodies renders the request set: n corpus loops formatted in the text
// format, marshalled once up front so the load loop measures the server,
// not the generator.
func buildBodies(n int, seed int64, machineSpec, effort string, unroll, skipVerify bool, batch int) ([]body, error) {
	loops := corpus.Generate(corpus.Params{Seed: seed, N: n})
	reqs := make([]service.CompileRequest, len(loops))
	for i, l := range loops {
		reqs[i] = service.CompileRequest{
			Loop:       vliwq.FormatLoop(l),
			Machine:    machineSpec,
			Unroll:     unroll,
			SkipVerify: skipVerify,
			Effort:     effort,
		}
	}
	if batch <= 0 {
		bodies := make([]body, len(reqs))
		for i := range reqs {
			b, err := json.Marshal(reqs[i])
			if err != nil {
				return nil, err
			}
			bodies[i] = body{data: b, loops: 1}
		}
		return bodies, nil
	}
	var bodies []body
	for i := 0; i < len(reqs); i += batch {
		j := i + batch
		if j > len(reqs) {
			j = len(reqs)
		}
		b, err := json.Marshal(service.BatchRequest{Requests: reqs[i:j]})
		if err != nil {
			return nil, err
		}
		bodies = append(bodies, body{data: b, loops: j - i})
	}
	return bodies, nil
}

// fetchStats returns the raw /stats body; the caller decides whether it
// came from a single vliwd or a gateway.
func fetchStats(client *http.Client, base string) ([]byte, error) {
	resp, err := client.Get(base + "/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil, fmt.Errorf("/stats status %d", resp.StatusCode)
	}
	return io.ReadAll(resp.Body)
}
