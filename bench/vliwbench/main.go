// Command vliwbench is the repository's end-to-end benchmark. It boots CI's
// e2e topology in process — a gateway over two vliwd backends, every hop
// real loopback HTTP — drives one seeded workload through it from a closed
// loop of at most two clients, checks every answer, and prints its metrics
// as the last line of standard output:
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{"latency_p50_ms":{"value":1.6,"unit":"ms"},...}}
//
// With -trace 1 it instead replays a prefix of the workload through the
// public entry point of every layer, writes the spans to
// trace-<workload>.json and prints the per-layer metrics. README.md defines
// every workload and metric.
//
// Usage:
//
//	vliwbench -workload cold -seed 19980330 -seconds 20
//	vliwbench -workload warm -trace 1 -trace-dir .bench_build
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"slices"
	"sort"
	"time"

	"vliwq/internal/corpus"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// workloads lists the workload names in the order README.md presents them.
var workloads = []string{"cold", "warm", "certified", "sweep"}

// config is one benchmark run.
type config struct {
	workload string
	seed     int64
	duration time.Duration
	trace    bool
	traceDir string
	sizes    sizes
	// wrap, when set, wraps the gateway's handler; the harness test uses it
	// to corrupt answers and show that the checks catch it.
	wrap func(http.Handler) http.Handler
}

// sizes fixes how much input each workload prepares. The command always
// uses fullSizes; the harness test shrinks them.
type sizes struct {
	cold, certified, sweep int            // loops in each workload's fixed set
	warmBase               int            // warm's base loops
	ops                    map[string]int // most ops one measured phase does
	trace                  map[string]int // ops a traced run replays
}

// setups is how many times a run sets up; setup_s is their median.
const setups = 5

var fullSizes = sizes{
	cold:      corpus.PaperCorpusSize,
	certified: 128,
	sweep:     corpus.PaperCorpusSize,
	ops:       map[string]int{"cold": 1 << 30, "warm": 1 << 30, "certified": 1 << 30, "sweep": 1 << 30},
	warmBase:  512,
	trace:     map[string]int{"cold": 1000, "warm": 10000, "certified": 200, "sweep": 1},
}

// metric is one printed measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the command prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("vliwbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := config{sizes: fullSizes}
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: cold, warm, certified or sweep")
	fs.Int64Var(&cfg.seed, "seed", corpus.DefaultSeed, "input seed")
	seconds := fs.Float64("seconds", 20, "length of the measured phase")
	trace := fs.Int("trace", 0, "1 replays a prefix of the workload traced and prints the per-layer metrics")
	fs.StringVar(&cfg.traceDir, "trace-dir", ".", "directory the traced run writes trace-<workload>.json to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) || !slices.Contains(workloads, cfg.workload) {
		fmt.Fprintln(stderr, "vliwbench: want -workload cold|warm|certified|sweep, -seconds > 0, -trace 0|1 and no arguments")
		return 2
	}
	cfg.duration = time.Duration(*seconds * float64(time.Second))
	cfg.trace = *trace == 1
	// The benchmark is defined on two processors; more would change what
	// the two clients contend for. certified runs on one, where the
	// scheduler's portfolio race tries its strategies in index order: on
	// two, the race abandons the strategies above the first winner, so the
	// work a compile did depended on timing.
	procs := 2
	if cfg.workload == "certified" {
		procs = 1
	}
	runtime.GOMAXPROCS(min(procs, runtime.NumCPU()))
	return runConfig(cfg, stdout, stderr)
}

// runConfig runs cfg, prints its result line and returns the exit code: 1
// when the run failed or any check did.
func runConfig(cfg config, stdout, stderr io.Writer) int {
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	res, err := execute(ctx, cfg, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "vliwbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "vliwbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

func execute(ctx context.Context, cfg config, info io.Writer) (result, error) {
	if cfg.trace {
		return traced(ctx, cfg, info)
	}
	return measured(ctx, cfg, info)
}

// measured is the untraced run: set up several times, keep the last
// set-up, and drive it for cfg.duration. Every time it reports is read
// from the host clock.
func measured(ctx context.Context, cfg config, info io.Writer) (result, error) {
	clock := startHostClock()
	defer clock.close()
	var (
		w      workload
		setUps [][2]time.Time
	)
	for k := 0; k < setups; k++ {
		if w != nil {
			w.close()
		}
		t0 := time.Now()
		var err error
		if w, err = newWorkload(ctx, cfg); err != nil {
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		setUps = append(setUps, [2]time.Time{t0, time.Now()})
	}
	defer w.close()
	// Start the measured phase from a collected heap, so set-up garbage
	// does not land in it.
	runtime.GC()

	// Two clients keep both processors busy with short requests. A RunAll
	// pass already spreads over both processors, and certified has one.
	clients := 2
	if cfg.workload == "certified" || cfg.workload == "sweep" {
		clients = 1
	}
	ld := drive(w, clients, w.ops(), w.lap(), cfg.duration)
	end := ld.start.Add(ld.wall)
	clock.close()

	var setupSecs, lat, wallLat []float64
	for _, s := range setUps {
		setupSecs = append(setupSecs, clock.elapsed(s[0], s[1]))
	}
	for _, op := range ld.done {
		lat = append(lat, 1e3*clock.elapsed(op.end.Add(-op.lat), op.end))
		wallLat = append(wallLat, 1e3*op.lat.Seconds())
	}
	sort.Float64s(lat)
	sort.Float64s(wallLat)

	digest, ferr := w.finish(ld.attempted)
	rss, err := peakRSSMB()
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(info, "workload %s seed %d: %d ops in %.3fs, %d failed, %d setups\n",
		cfg.workload, cfg.seed, ld.attempted, ld.wall.Seconds(), ld.failed, len(setupSecs))
	fmt.Fprintf(info, "wall clock: %.6g ops/s, p50 %.6g ms, p95 %.6g ms; host speed %.3f of nominal; peak RSS %.1f MB\n",
		float64(len(ld.done))/ld.wall.Seconds(), quantile(wallLat, 0.50), quantile(wallLat, 0.95),
		clock.meanSpeed(ld.start, end), rss)
	fmt.Fprintf(info, "output_digest %016x (first %d ops)\n", digest, min(ld.attempted, digestOps))
	for _, err := range []error{ld.err, ferr} {
		if err != nil {
			fmt.Fprintln(info, "check failed:", err)
		}
	}
	return result{
		Correct:   ld.failed == 0 && ferr == nil && len(ld.done) > 0,
		Attempted: max(ld.attempted, 1),
		Failed:    ld.failed,
		Metrics: map[string]metric{
			"setup_s":        {median(setupSecs), "s"},
			"ops_per_s":      {float64(len(ld.done)) / clock.elapsed(ld.start, end), "1/s"},
			"latency_p50_ms": {quantile(lat, 0.50), "ms"},
			"latency_p95_ms": {quantile(lat, 0.95), "ms"},
		},
	}, nil
}
