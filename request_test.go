package vliwq

import (
	"reflect"
	"strings"
	"testing"
)

const reqTestLoop = "loop x\ntrip 8\nop a load\nop b load\nop s add a b\nop st store s\n"

func TestNormalizeFillsDefaults(t *testing.T) {
	r := Request{Loop: reqTestLoop}
	if err := r.Normalize(); err != nil {
		t.Fatal(err)
	}
	if r.Machine != "single:6" || r.CopyShape != "tree" || r.Effort != "fast" {
		t.Fatalf("normalized defaults wrong: machine=%q shape=%q effort=%q", r.Machine, r.CopyShape, r.Effort)
	}
	// Explicit values survive untouched.
	r = Request{Loop: reqTestLoop, Machine: "clustered:4", CopyShape: "chain", Effort: "exhaustive"}
	if err := r.Normalize(); err != nil {
		t.Fatal(err)
	}
	if r.Machine != "clustered:4" || r.CopyShape != "chain" || r.Effort != "exhaustive" {
		t.Fatalf("normalize rewrote explicit values: %+v", r)
	}
}

func TestNormalizeRejects(t *testing.T) {
	tests := []struct {
		name   string
		req    Request
		errHas string
	}{
		{"empty loop", Request{}, "empty loop"},
		{"bad machine", Request{Loop: reqTestLoop, Machine: "mesh:4"}, "unknown machine kind"},
		{"huge machine", Request{Loop: reqTestLoop, Machine: "clustered:500000000"}, "exceeds"},
		{"bad shape", Request{Loop: reqTestLoop, CopyShape: "star"}, "unknown copy_shape"},
		{"negative commlat", Request{Loop: reqTestLoop, CommLatency: -1}, "comm_latency"},
		{"huge unroll factor", Request{Loop: reqTestLoop, UnrollFactor: 65}, "out of range"},
		{"negative unroll factor", Request{Loop: reqTestLoop, UnrollFactor: -1}, "out of range"},
		{"bad effort", Request{Loop: reqTestLoop, Effort: "sluggish"}, "unknown effort"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.req.Normalize()
			if err == nil || !strings.Contains(err.Error(), tt.errHas) {
				t.Fatalf("Normalize() = %v, want error mentioning %q", err, tt.errHas)
			}
		})
	}
}

// TestCanonicalCollapsesDefaultSpellings is the library half of the
// key-fragmentation regression (the service and gateway tests cover the
// cache-entry and shard halves): every spelling of the default behaviour
// must encode to one canonical key.
func TestCanonicalCollapsesDefaultSpellings(t *testing.T) {
	bare := Request{Loop: reqTestLoop}
	spellings := []Request{
		{Loop: reqTestLoop, Machine: "single:6"},
		{Loop: reqTestLoop, CopyShape: "tree"},
		{Loop: reqTestLoop, Effort: "fast"},
		{Loop: reqTestLoop, Machine: "single:6", CopyShape: "tree", Effort: "fast"},
	}
	for i, s := range spellings {
		if s.Canonical() != bare.Canonical() {
			t.Fatalf("spelling %d keys apart:\n%q\nvs\n%q", i, s.Canonical(), bare.Canonical())
		}
	}
	// Non-canonical digit spellings of one machine (strconv accepts
	// leading zeros and signs) collapse through Spec() re-rendering.
	canon := Request{Loop: reqTestLoop, Machine: "single:6"}
	for _, spec := range []string{"single:06", "single:+6"} {
		alt := Request{Loop: reqTestLoop, Machine: spec}
		if alt.Canonical() != canon.Canonical() {
			t.Fatalf("machine spelling %q keys apart from single:6", spec)
		}
	}
	// Equivalent unroll spellings fold: a forced factor makes the
	// automatic flag dead weight, and factor 1 is factor 0.
	forced := Request{Loop: reqTestLoop, UnrollFactor: 4}
	both := Request{Loop: reqTestLoop, Unroll: true, UnrollFactor: 4}
	if forced.Canonical() != both.Canonical() {
		t.Fatal("unroll=true with a forced factor keys apart from the forced factor alone")
	}
	one := Request{Loop: reqTestLoop, UnrollFactor: 1}
	if one.Canonical() != bare.Canonical() {
		t.Fatal("unroll_factor 1 keys apart from no unrolling")
	}
	// Canonical must not mutate the receiver.
	r := Request{Loop: reqTestLoop}
	_ = r.Canonical()
	if !reflect.DeepEqual(r, Request{Loop: reqTestLoop}) {
		t.Fatalf("Canonical mutated its receiver: %+v", r)
	}
}

func TestCanonicalSeparatesBehaviours(t *testing.T) {
	base := Request{Loop: reqTestLoop}
	distinct := []Request{
		{Loop: reqTestLoop, Machine: "single:4"},
		{Loop: reqTestLoop, Machine: "clustered:4"},
		{Loop: reqTestLoop, Unroll: true},
		{Loop: reqTestLoop, UnrollFactor: 2},
		{Loop: reqTestLoop, CopyShape: "chain"},
		{Loop: reqTestLoop, AllowMoves: true},
		{Loop: reqTestLoop, CommLatency: 1},
		{Loop: reqTestLoop, SkipVerify: true},
		{Loop: reqTestLoop, Effort: "balanced"},
		{Loop: reqTestLoop + "op t add s s\n"},
	}
	seen := map[string]int{base.Canonical(): -1}
	for i, r := range distinct {
		k := r.Canonical()
		if j, dup := seen[k]; dup {
			t.Fatalf("behaviourally distinct requests %d and %d share key %q", i, j, k)
		}
		seen[k] = i
	}
}

// TestCanonicalOfInvalidRequestIsDeterministic: requests Normalize rejects
// still need a stable key — the gateway routes them to SOME backend, which
// rejects them with 400; what matters is that the choice is deterministic.
func TestCanonicalOfInvalidRequestIsDeterministic(t *testing.T) {
	bad := Request{Loop: reqTestLoop, Machine: "mesh:4", Effort: "sluggish"}
	if bad.Canonical() != bad.Canonical() {
		t.Fatal("invalid request keyed differently across calls")
	}
	if bad.Canonical() == (Request{Loop: reqTestLoop}).Canonical() {
		t.Fatal("invalid request collided with the default request")
	}
}

// TestNewRequestRoundTrip: a Request built from (loop, Options) must carry
// the same behaviour back through Request.Options — machine shape, knobs
// and effort all surviving the trip through spec strings.
func TestNewRequestRoundTrip(t *testing.T) {
	loop, err := ParseLoop(reqTestLoop)
	if err != nil {
		t.Fatal(err)
	}
	m := Clustered(4)
	m.AllowMoves = true
	m.CommLatency = 2
	in := Options{Machine: m, Unroll: true, SkipVerify: true, Effort: EffortBalanced}

	req := NewRequest(loop, in)
	if req.Machine != "clustered:4" || !req.AllowMoves || req.CommLatency != 2 || req.Effort != "balanced" {
		t.Fatalf("NewRequest dropped knobs: %+v", req)
	}
	out, err := req.Options()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out.Machine, m) {
		t.Fatalf("machine did not round-trip:\n%+v\nvs\n%+v", out.Machine, m)
	}
	if out.Unroll != in.Unroll || out.SkipVerify != in.SkipVerify || out.Effort != in.Effort {
		t.Fatalf("options did not round-trip: %+v vs %+v", out, in)
	}
	back, err := ParseLoop(req.Loop)
	if err != nil {
		t.Fatal(err)
	}
	if FormatLoop(back) != FormatLoop(loop) {
		t.Fatal("loop text did not round-trip")
	}
}

// TestMachineSpecRoundTrip pins Machine.Spec as the inverse of
// ParseMachine over every constructor-built machine the paper uses (and
// then some): parse(spec(m)) must rebuild an identical Config.
func TestMachineSpecRoundTrip(t *testing.T) {
	for n := 1; n <= 18; n++ {
		m := SingleCluster(n)
		spec := m.Spec()
		back, err := ParseMachine(spec)
		if err != nil {
			t.Fatalf("single %d: %v", n, err)
		}
		if !reflect.DeepEqual(back, m) {
			t.Fatalf("single %d: spec %q round-tripped to a different machine", n, spec)
		}
	}
	for n := 1; n <= 8; n++ {
		m := Clustered(n)
		spec := m.Spec()
		back, err := ParseMachine(spec)
		if err != nil {
			t.Fatalf("clustered %d: %v", n, err)
		}
		if !reflect.DeepEqual(back, m) {
			t.Fatalf("clustered %d: spec %q round-tripped to a different machine", n, spec)
		}
	}
}
