// Command vliwd is the long-running compilation daemon: an HTTP/JSON
// service (internal/service) over the vliwq pipeline, backed by the shared
// compile cache.
//
// Usage:
//
//	vliwd                          # serve on :8391, cache bounded at 64Ki entries
//	vliwd -addr 127.0.0.1:9000 -cache-entries 4096
//	vliwd -cache-snapshot /var/lib/vliwd/cache.snap   # warm-start + persist
//	vliwd -max-inflight 256 -slo 50ms    # shed past 256 in flight, degrade effort past 50ms
//
// With -cache-snapshot the daemon loads the snapshot on boot (a missing
// file is a normal cold start; a corrupt one is logged and skipped) and
// persists the cache to the same path on graceful shutdown, so a restarted
// backend serves its first repeated request as a cache hit.
//
// Endpoints: POST /compile, POST /batch, GET /healthz, GET /stats. Drive it
// with cmd/vliwload or curl — directly or behind the cmd/vliwgate sharding
// gateway; see the README's "Serving" and "Scaling out" quickstarts.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"vliwq/internal/service"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr, nil))
}

// run serves until ctx is cancelled and returns the process exit code. When
// ready is non-nil it receives the bound address once the listener is up —
// the hook the tests (and -addr :0) use.
func run(ctx context.Context, args []string, stdout, stderr io.Writer, ready chan<- string) int {
	flags := flag.NewFlagSet("vliwd", flag.ContinueOnError)
	flags.SetOutput(stderr)
	var (
		addr     = flags.String("addr", ":8391", "listen address")
		entries  = flags.Int("cache-entries", 65536, "compile cache bound (0 = unbounded, negative disables caching)")
		workers  = flags.Int("workers", 0, "per-batch compile workers (0 = GOMAXPROCS)")
		batch    = flags.Int("max-batch", 0, "max requests per /batch call (0 = 1024)")
		snapshot = flags.String("cache-snapshot", "", "snapshot file: warm-start the cache on boot, persist it on shutdown")
		inflight = flags.Int("max-inflight", 0, "admission bound: concurrent requests before shedding with 429 (0 disables)")
		slo      = flags.Duration("slo", 0, "compile-latency SLO target driving the effort degradation ladder (0 disables)")
	)
	if err := flags.Parse(args); err != nil {
		return 2
	}
	if *snapshot != "" && *entries < 0 {
		fmt.Fprintln(stderr, "vliwd: -cache-snapshot needs caching enabled (-cache-entries >= 0)")
		return 2
	}
	srv := service.New(service.Config{
		CacheEntries: *entries,
		Workers:      *workers,
		MaxBatch:     *batch,
		MaxInflight:  *inflight,
		SLOTarget:    *slo,
	})
	if *snapshot != "" {
		if err := warmStart(srv, *snapshot, stdout); err != nil {
			// A bad snapshot must not keep the daemon down: log and serve cold.
			fmt.Fprintln(stderr, "vliwd: cache snapshot:", err)
		}
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(stderr, "vliwd:", err)
		return 1
	}
	fmt.Fprintf(stdout, "vliwd: listening on %s\n", ln.Addr())
	if ready != nil {
		ready <- ln.Addr().String()
	}

	hs := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	done := make(chan error, 1)
	go func() { done <- hs.Serve(ln) }()
	select {
	case err := <-done:
		fmt.Fprintln(stderr, "vliwd:", err)
		return 1
	case <-ctx.Done():
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintln(stderr, "vliwd: shutdown:", err)
		return 1
	}
	if *snapshot != "" {
		if err := saveSnapshot(srv, *snapshot, stdout); err != nil {
			fmt.Fprintln(stderr, "vliwd: cache snapshot:", err)
			return 1
		}
	}
	st := srv.Stats()
	fmt.Fprintf(stdout, "vliwd: served %d compile + %d batch requests (%d cache hits), shutting down\n",
		st.CompileRequests, st.BatchRequests, st.Cache.Hits)
	return 0
}

// warmStart loads the compile cache from path. A missing file is a normal
// cold start, not an error.
func warmStart(srv *service.Server, path string, stdout io.Writer) error {
	f, err := os.Open(path)
	if errors.Is(err, fs.ErrNotExist) {
		fmt.Fprintf(stdout, "vliwd: no cache snapshot at %s, starting cold\n", path)
		return nil
	}
	if err != nil {
		return err
	}
	defer f.Close()
	n, err := srv.LoadCache(f)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "vliwd: warm start: %d cache entries from %s\n", n, path)
	return nil
}

// saveSnapshot persists the compile cache to path via a temp file and
// rename, so a crash mid-write can never leave a truncated snapshot where
// the next boot expects a good one.
func saveSnapshot(srv *service.Server, path string, stdout io.Writer) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	n, err := srv.SaveCache(tmp)
	if err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "vliwd: saved %d cache entries to %s\n", n, path)
	return nil
}
