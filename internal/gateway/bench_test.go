package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"testing"

	"vliwq"
	"vliwq/internal/service"
)

// BenchmarkFleetHits measures one /compile through a gateway over two
// backends when the fleet already holds the answer, on each hit path of 64
// compiled corpus loops:
//
//   - exact: a byte-identical repeat, routed from the route memo and
//     answered with the exact layer's stored bytes;
//   - renamed: a fresh rename, routed by parsing and fingerprinting it and
//     served by the backend's structural layer;
//   - permuted: a fresh rename of a statement-permuted spelling, served as
//     a reordered structural hit.
//
// Client, gateway and backends share the process, so run it with
// -benchmem: allocs/op covers the whole hop. Bodies are built before the
// timer starts, and each sub-benchmark checks that it ran no compile.
func BenchmarkFleetHits(b *testing.B) {
	gw, ts, _ := fleet(b, 2, Config{})
	client := ts.Client()
	reqs := testRequests(b, 64)
	var permuted []service.CompileRequest
	for _, r := range reqs {
		if post(b, client, ts.URL, marshalRequest(b, r)) != http.StatusOK {
			b.Fatalf("warming %q failed", r.Loop)
		}
		p := r
		p.Loop = permuteGatewaySpelling(b, r.Loop)
		if p.Loop != r.Loop && vliwq.Prepare(p).StructuralKey() == vliwq.Prepare(r).StructuralKey() {
			permuted = append(permuted, p)
		}
	}
	if len(permuted) == 0 {
		b.Fatal("no corpus loop has a permuted spelling in its class")
	}
	compiles := gw.Stats(context.Background()).TotalSched.Compiles
	next := 0 // fresh spellings never repeat across the runs b.Run makes
	fresh := func(set []service.CompileRequest) func(*testing.B) service.CompileRequest {
		return func(b *testing.B) service.CompileRequest {
			r := set[next%len(set)]
			r.Loop = renameGatewaySpelling(b, r.Loop, fmt.Sprintf("n%d_", next))
			next++
			return r
		}
	}
	exact := 0
	for _, c := range []struct {
		name  string
		spell func(*testing.B) service.CompileRequest
	}{
		{"exact", func(*testing.B) service.CompileRequest { exact++; return reqs[exact%len(reqs)] }},
		{"renamed", fresh(reqs)},
		{"permuted", fresh(permuted)},
	} {
		b.Run(c.name, func(b *testing.B) {
			bodies := make([][]byte, b.N)
			for i := range bodies {
				bodies[i] = marshalRequest(b, c.spell(b))
			}
			b.ResetTimer()
			for _, body := range bodies {
				if status := post(b, client, ts.URL, body); status != http.StatusOK {
					b.Fatalf("status %d", status)
				}
			}
			b.StopTimer()
			if n := gw.Stats(context.Background()).TotalSched.Compiles; n != compiles {
				b.Fatalf("fleet compiled %d times on a hit path", n-compiles)
			}
		})
	}
}

func marshalRequest(b *testing.B, r service.CompileRequest) []byte {
	body, err := json.Marshal(r)
	if err != nil {
		b.Fatal(err)
	}
	return body
}

// post sends one /compile body and drains the answer, so the keep-alive
// connection is reused.
func post(b *testing.B, client *http.Client, url string, body []byte) int {
	resp, err := client.Post(url+"/compile", "application/json", bytes.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode
}

// permuteGatewaySpelling re-spells a loop in another valid statement order:
// the topological order of its distance-0 dependences that always takes the
// highest ready ID, with the dependence list kept in sequence so each
// consumer's operand order holds.
func permuteGatewaySpelling(b *testing.B, src string) string {
	l, err := vliwq.ParseLoop(src)
	if err != nil {
		b.Fatal(err)
	}
	n := len(l.Ops)
	indeg := make([]int, n)
	succ := make([][]int, n)
	for _, d := range l.Deps {
		if d.Dist == 0 {
			succ[d.From] = append(succ[d.From], d.To)
			indeg[d.To]++
		}
	}
	perm := make([]int, n)
	done := make([]bool, n)
	for next := 0; next < n; next++ {
		v := -1
		for i := n - 1; i >= 0 && v < 0; i-- {
			if !done[i] && indeg[i] == 0 {
				v = i
			}
		}
		done[v], perm[v] = true, next
		for _, s := range succ[v] {
			indeg[s]--
		}
	}
	cl := l.Clone()
	for i, op := range l.Ops {
		cp := *op
		cp.ID = perm[i]
		cl.Ops[perm[i]] = &cp
	}
	for j := range cl.Deps {
		cl.Deps[j].From = perm[l.Deps[j].From]
		cl.Deps[j].To = perm[l.Deps[j].To]
	}
	return vliwq.FormatLoop(cl)
}
