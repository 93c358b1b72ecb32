package gateway

import (
	"fmt"
	"testing"

	"vliwq"
	"vliwq/internal/service"
)

// FuzzRouteCompileBody fuzzes what the gateway does with a request body
// before any backend sees it: strictUnmarshal of a /compile (and a /batch)
// body, then routing by structural key. Neither may panic on any body, and
// on rings of 1, 2, 3 and 8 backends every routed slot must lie in
// [0, N). The backends are never dialled. Seeds are checked in under
// testdata/fuzz; nightly fuzz.yml runs this target.
func FuzzRouteCompileBody(f *testing.F) {
	var rings []*Gateway
	for _, n := range []int{1, 2, 3, 8} {
		backends := make([]string, n)
		for i := range backends {
			backends[i] = fmt.Sprintf("http://backend-%d.invalid", i)
		}
		g, err := New(Config{Backends: backends})
		if err != nil {
			f.Fatal(err)
		}
		rings = append(rings, g)
	}
	route := func(t *testing.T, req service.CompileRequest) {
		p := vliwq.Prepare(req)
		for _, g := range rings {
			if slot := g.route(p); slot < 0 || slot >= len(g.backends) {
				t.Fatalf("routed to slot %d on a ring of %d", slot, len(g.backends))
			}
		}
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var req service.CompileRequest
		if strictUnmarshal(body, &req) == nil {
			route(t, req)
		}
		var batch service.BatchRequest
		if strictUnmarshal(body, &batch) == nil {
			for _, r := range batch.Requests {
				route(t, r)
			}
		}
	})
}
