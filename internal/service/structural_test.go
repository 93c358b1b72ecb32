package service

import (
	"bytes"
	"fmt"
	"net/http/httptest"
	"sort"
	"sync"
	"testing"

	"vliwq"
	"vliwq/internal/corpus"
)

const structTestLoop = `loop daxpy
trip 200
op a load
op x load
op y load
op m mul a
op s add m y
op st store s
carried s m 1
mem st a 1
`

// renameSpelling parses a loop text and rewrites every name (ops and the
// loop itself) to a fresh namespace, preserving structure, statement order
// and operand order exactly — the name-only-isomorphic spelling the
// structural cache serves by remap.
func renameSpelling(t testing.TB, src, prefix string) string {
	t.Helper()
	l, err := vliwq.ParseLoop(src)
	if err != nil {
		t.Fatalf("renameSpelling: %v", err)
	}
	l.Name = prefix + l.Name
	for i, op := range l.Ops {
		if op.Name != "" {
			op.Name = fmt.Sprintf("%s%d", prefix, i)
		}
	}
	return vliwq.FormatLoop(l)
}

// TestStructuralHitServesRenamedSpelling: a renamed spelling of a compiled
// loop is served from the structural cache — one pipeline run, a counted
// hit, and a response byte-identical to a fresh server compiling the
// renamed spelling from scratch.
func TestStructuralHitServesRenamedSpelling(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	fresh := httptest.NewServer(New(Config{}).Handler())
	defer fresh.Close()

	renamed := renameSpelling(t, structTestLoop, "z")
	if r, _ := postJSON(t, ts.Client(), ts.URL+"/compile", CompileRequest{Loop: structTestLoop}); r.StatusCode != 200 {
		t.Fatalf("original compile: status %d", r.StatusCode)
	}
	r1, got := postJSON(t, ts.Client(), ts.URL+"/compile", CompileRequest{Loop: renamed})
	r2, want := postJSON(t, fresh.Client(), fresh.URL+"/compile", CompileRequest{Loop: renamed})
	if r1.StatusCode != 200 || r2.StatusCode != 200 {
		t.Fatalf("renamed compiles: status %d / %d", r1.StatusCode, r2.StatusCode)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("structural hit not byte-identical to fresh compile:\nhit:   %s\nfresh: %s", got, want)
	}

	st := srv.Stats()
	if st.Sched.Compiles != 1 {
		t.Fatalf("compiles = %d, want 1 (renamed spelling must reuse the class compile)", st.Sched.Compiles)
	}
	if st.Structural.Hits != 1 || st.Structural.Renumbered != 0 || !st.Structural.Enabled {
		t.Fatalf("structural stats = %+v, want enabled with hits=1", st.Structural)
	}
	if st.Cache.Misses != 2 {
		t.Fatalf("exact misses = %d, want 2 (distinct spellings keep distinct exact keys)", st.Cache.Misses)
	}
}

// TestStructuralReorderedHit: a statement-permuted spelling shares the
// fingerprint but fails the skeleton gate as-is; AlignLike renumbers it
// into the class leader's canonical statement order and the remap serves
// it without a second pipeline run. The response is class-deterministic:
// a second server warmed with the same two spellings answers byte-identical.
func TestStructuralReorderedHit(t *testing.T) {
	permuted := `loop daxpy
trip 200
op x load
op a load
op y load
op m mul a
op s add m y
op st store s
carried s m 1
mem st a 1
`
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	twinSrv := New(Config{})
	twin := httptest.NewServer(twinSrv.Handler())
	defer twin.Close()

	for _, u := range []string{ts.URL, twin.URL} {
		if r, _ := postJSON(t, ts.Client(), u+"/compile", CompileRequest{Loop: structTestLoop}); r.StatusCode != 200 {
			t.Fatalf("leader compile: status %d", r.StatusCode)
		}
	}
	r1, got := postJSON(t, ts.Client(), ts.URL+"/compile", CompileRequest{Loop: permuted})
	r2, want := postJSON(t, twin.Client(), twin.URL+"/compile", CompileRequest{Loop: permuted})
	if r1.StatusCode != 200 || r2.StatusCode != 200 {
		t.Fatalf("permuted compiles: status %d / %d", r1.StatusCode, r2.StatusCode)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("reordered hit not deterministic across identically-warmed servers:\n%s\nvs\n%s", got, want)
	}
	st := srv.Stats()
	if st.Sched.Compiles != 1 {
		t.Fatalf("compiles = %d, want 1 (permuted spelling must reuse the class compile)", st.Sched.Compiles)
	}
	if st.Structural.Hits != 1 || st.Structural.Reordered != 1 || st.Structural.Renumbered != 0 {
		t.Fatalf("structural stats = %+v, want hits=1 reordered=1 renumbered=0", st.Structural)
	}
}

// TestStructuralCoalescing: concurrent isomorphic-but-renamed requests
// collapse onto one pipeline run; the joiners count as coalesced hits.
func TestStructuralCoalescing(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const spellings = 8
	var wg sync.WaitGroup
	for i := 0; i < spellings; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			loop := renameSpelling(t, structTestLoop, fmt.Sprintf("p%dq", i))
			r, _ := postJSON(t, ts.Client(), ts.URL+"/compile", CompileRequest{Loop: loop})
			if r.StatusCode != 200 {
				t.Errorf("spelling %d: status %d", i, r.StatusCode)
			}
		}(i)
	}
	wg.Wait()
	st := srv.Stats()
	if st.Sched.Compiles != 1 {
		t.Fatalf("compiles = %d, want 1 (all spellings share one class compile)", st.Sched.Compiles)
	}
	if st.Structural.Hits != spellings-1 {
		t.Fatalf("structural hits = %d, want %d", st.Structural.Hits, spellings-1)
	}
	if st.Structural.Coalesced > st.Structural.Hits {
		t.Fatalf("coalesced = %d exceeds hits = %d", st.Structural.Coalesced, st.Structural.Hits)
	}
}

// TestStructuralRemapPropertyStressed is the property test: across a slice
// of the stressed corpus (wide fanout, dense recurrences — the shapes most
// likely to expose a remap defect), every structural-hit response must be
// byte-identical to compiling the renamed spelling from scratch on an
// independent server. Error responses must agree too: a pipeline rejection
// is rendered under the caller's names on both paths.
func TestStructuralRemapPropertyStressed(t *testing.T) {
	const n = 48
	loops := corpus.Stressed()[:n]

	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	fresh := httptest.NewServer(New(Config{}).Handler())
	defer fresh.Close()

	okCount := 0
	for i, l := range loops {
		orig := vliwq.FormatLoop(l)
		renamed := renameSpelling(t, orig, "q")
		req := CompileRequest{Loop: orig, Machine: "clustered:4", SkipVerify: true}
		rreq := req
		rreq.Loop = renamed

		r0, _ := postJSON(t, ts.Client(), ts.URL+"/compile", req)
		r1, got := postJSON(t, ts.Client(), ts.URL+"/compile", rreq)
		r2, want := postJSON(t, fresh.Client(), fresh.URL+"/compile", rreq)
		if r1.StatusCode != r2.StatusCode {
			t.Fatalf("loop %d: status %d vs fresh %d", i, r1.StatusCode, r2.StatusCode)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("loop %d: structural-path response diverged from fresh compile:\n%s\nvs\n%s", i, got, want)
		}
		if r0.StatusCode == 200 && r1.StatusCode == 200 {
			okCount++
		}
	}

	st := srv.Stats()
	if okCount == 0 {
		t.Fatal("no stressed loop compiled successfully; property vacuous")
	}
	if st.Structural.Hits < int64(okCount) {
		t.Fatalf("structural hits = %d, want >= %d (every successful renamed spelling must hit)",
			st.Structural.Hits, okCount)
	}
	t.Logf("stressed property: %d/%d classes compiled, %d structural hits, %d renumbered",
		okCount, n, st.Structural.Hits, st.Structural.Renumbered)
}

// permuteSpelling re-spells a loop with a different (still valid)
// statement order: a max-ID-first topological order over the dist-0
// dependences, with the dep list kept in its original sequence so every
// consumer's operand order is preserved.
func permuteSpelling(t testing.TB, src string) string {
	t.Helper()
	l, err := vliwq.ParseLoop(src)
	if err != nil {
		t.Fatalf("permuteSpelling: %v", err)
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
	var ready []int
	for i, deg := range indeg {
		if deg == 0 {
			ready = append(ready, i)
		}
	}
	order := make([]int, 0, n)
	for len(ready) > 0 {
		sort.Ints(ready)
		v := ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		order = append(order, v)
		for _, w := range succ[v] {
			if indeg[w]--; indeg[w] == 0 {
				ready = append(ready, w)
			}
		}
	}
	if len(order) != n {
		t.Fatalf("permuteSpelling: dist-0 cycle in %q", l.Name)
	}
	perm := make([]int, n)
	for newIdx, old := range order {
		perm[old] = newIdx
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

// TestStructuralReorderedPropertyStressed extends the remap property to
// statement-permuted spellings: across a slice of the stressed corpus,
// serving a permuted spelling after its class leader must (a) agree
// byte-for-byte with an identically-warmed independent server — the
// class-determinism guarantee reordered hits carry — and (b) never run a
// second pipeline compile when the permuted spelling stays in the leader's
// fingerprint class.
func TestStructuralReorderedPropertyStressed(t *testing.T) {
	const n = 24
	loops := corpus.Stressed()[:n]

	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	twin := httptest.NewServer(New(Config{}).Handler())
	defer twin.Close()

	exercised := 0
	for i, l := range loops {
		orig := vliwq.FormatLoop(l)
		permuted := permuteSpelling(t, orig)
		if permuted == orig {
			continue // chain-shaped body: only one valid statement order
		}
		req := CompileRequest{Loop: orig, Machine: "clustered:4", SkipVerify: true}
		preq := req
		preq.Loop = permuted

		for _, c := range []struct {
			client *httptest.Server
		}{{ts}, {twin}} {
			if r, _ := postJSON(t, c.client.Client(), c.client.URL+"/compile", req); r.StatusCode != 200 && r.StatusCode != 422 {
				t.Fatalf("loop %d: leader status %d", i, r.StatusCode)
			}
		}
		r1, got := postJSON(t, ts.Client(), ts.URL+"/compile", preq)
		r2, want := postJSON(t, twin.Client(), twin.URL+"/compile", preq)
		if r1.StatusCode != r2.StatusCode {
			t.Fatalf("loop %d: permuted status %d vs twin %d", i, r1.StatusCode, r2.StatusCode)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("loop %d: permuted spelling not deterministic across servers:\n%s\nvs\n%s", i, got, want)
		}
		exercised++
	}

	st := srv.Stats()
	if exercised == 0 {
		t.Fatal("no stressed loop admitted a non-trivial permutation; property vacuous")
	}
	if st.Structural.Reordered == 0 {
		t.Fatal("no permuted spelling was served as a reordered structural hit")
	}
	t.Logf("reordered property: %d/%d permuted spellings exercised, %d reordered hits, %d renumbered",
		exercised, n, st.Structural.Reordered, st.Structural.Renumbered)
}
