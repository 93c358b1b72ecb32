package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"time"

	"vliwq/internal/gateway"
	"vliwq/internal/service"
)

// backendConfig is vliwd's default configuration (cmd/vliwd's flag
// defaults): a 65536-entry cache with the structural layer on, no SLO and
// no admission gate.
func backendConfig() service.Config {
	return service.Config{CacheEntries: 65536}
}

// fleet is CI's e2e topology in one process: a gateway over two vliwd
// backends, each on its own loopback server, so every hop is real HTTP.
type fleet struct {
	gw         *gateway.Gateway
	gwSrv      *httptest.Server
	backends   []*httptest.Server
	stopProber func()
	client     *http.Client
}

// startFleet boots the fleet and waits until the gateway reports every
// backend healthy. wrap, when non-nil, wraps the gateway's handler.
func startFleet(ctx context.Context, wrap func(http.Handler) http.Handler) (*fleet, error) {
	f := &fleet{}
	var urls []string
	for i := 0; i < 2; i++ {
		ts := httptest.NewServer(service.New(backendConfig()).Handler())
		f.backends = append(f.backends, ts)
		urls = append(urls, ts.URL)
	}
	g, err := gateway.New(gateway.Config{Backends: urls})
	if err != nil {
		f.close()
		return nil, err
	}
	f.gw = g
	// vliwgate runs the breaker prober every second by default.
	f.stopProber = g.StartProber(time.Second)
	var h http.Handler = g.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	f.gwSrv = httptest.NewServer(h)
	f.client = newClient()
	if err := f.waitHealthy(ctx); err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

// newClient is the load generator's client: the closed loop has two
// clients, and they share at most two connections per host.
func newClient() *http.Client {
	return &http.Client{
		Timeout: 5 * time.Minute,
		Transport: &http.Transport{
			MaxConnsPerHost:     2,
			MaxIdleConnsPerHost: 2,
		},
	}
}

func (f *fleet) waitHealthy(ctx context.Context) error {
	for {
		var hr gateway.HealthResponse
		status, err := getJSON(ctx, f.client, f.gwSrv.URL+"/healthz", &hr)
		if err == nil && status == http.StatusOK && hr.Status == "ok" {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("fleet never became healthy: %w", ctx.Err())
		case <-time.After(10 * time.Millisecond):
		}
	}
}

func (f *fleet) close() {
	if f.stopProber != nil {
		f.stopProber()
	}
	if f.gwSrv != nil {
		f.gwSrv.Close()
	}
	for _, b := range f.backends {
		b.Close()
	}
	if f.client != nil {
		f.client.CloseIdleConnections()
	}
}

// stats fetches the gateway's public /stats body.
func (f *fleet) stats(ctx context.Context) (gateway.StatsResponse, error) {
	var st gateway.StatsResponse
	status, err := getJSON(ctx, f.client, f.gwSrv.URL+"/stats", &st)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("gateway /stats: status %d", status)
	}
	return st, err
}

// post sends one /compile body and returns the status, the drained body
// and the latency from send until the body is drained.
func post(client *http.Client, url string, body []byte) (int, []byte, time.Duration, error) {
	t0 := time.Now()
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, 0, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := time.Since(t0)
	if err != nil {
		return 0, nil, 0, err
	}
	return resp.StatusCode, data, lat, nil
}

func getJSON(ctx context.Context, client *http.Client, url string, dst any) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(dst); err != nil {
		return resp.StatusCode, fmt.Errorf("%s: %w", url, err)
	}
	return resp.StatusCode, nil
}

// errStatus reports a non-200 answer with the start of its body.
func errStatus(status int, body []byte) error {
	if len(body) > 200 {
		body = body[:200]
	}
	return fmt.Errorf("status %d: %s", status, bytes.TrimSpace(body))
}
