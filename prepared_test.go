package vliwq

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"vliwq/internal/corpus"
)

// preparedLoops is the loop-text side of the prepared-request tests: a
// slice of every corpus plus loops the parser or Validate reject.
func preparedLoops() []string {
	var srcs []string
	for _, set := range [][]*Loop{corpus.Standard()[:256], corpus.Stressed()[:16], corpus.Kernels(), corpus.Traced()} {
		for _, l := range set {
			srcs = append(srcs, FormatLoop(l))
		}
	}
	return append(srcs,
		"garbage\n",
		"loop x\nop a add b\n",
		"loop x\nop a add\nop b add a\norder b a 0\n",
		"loop nofinal\nop a load\nop s store a",
	)
}

// preparedKnobs are the knob spellings the prepared-request tests cross
// with every loop: omitted and explicit defaults, non-canonical digits,
// the unroll folds, every knob set, and every field Normalize rejects.
var preparedKnobs = []Request{
	{},
	{Machine: "single:6", CopyShape: "tree", Effort: "fast"},
	{Machine: "single:06"},
	{Machine: "single:+6", UnrollFactor: 1},
	{Machine: "clustered:4", Unroll: true},
	{Machine: "clustered:6", UnrollFactor: 4, Unroll: true, CopyShape: "chain",
		AllowMoves: true, CommLatency: 2, SkipVerify: true, Effort: "optimal"},
	{Machine: "clustered:5", Effort: "balanced"},
	{Machine: "bogus"},
	{Machine: "single:0"},
	{CommLatency: -1},
	{UnrollFactor: 65},
	{CopyShape: "spiral"},
	{Effort: "lazy"},
}

// TestPreparedKeysMatchRequest holds Prepared to the Request methods it
// replaced: the same normalized request and Normalize error, and
// byte-identical Canonical, StructuralKey and Options, for every corpus
// loop under every knob spelling — including the requests Normalize or
// the parser reject, which key on their canonical encoding.
func TestPreparedKeysMatchRequest(t *testing.T) {
	srcs := append(preparedLoops(), "")
	for _, src := range srcs {
		for k, knobs := range preparedKnobs {
			r := knobs
			r.Loop = src
			what := func() string { return fmt.Sprintf("knobs %d on %.40q", k, src) }

			n := r
			nerr := n.Normalize()
			p := Prepare(r)
			if fmt.Sprint(p.Err()) != fmt.Sprint(nerr) || p.Request() != n {
				t.Fatalf("%s: prepared %+v (%v), Normalize %+v (%v)", what(), p.Request(), p.Err(), n, nerr)
			}
			if got, want := p.Canonical(), oracleCanonical(r); got != want {
				t.Fatalf("%s: Canonical\n got %q\nwant %q", what(), got, want)
			}
			if got, want := p.StructuralKey(), oracleStructuralKey(r); got != want {
				t.Fatalf("%s: StructuralKey\n got %q\nwant %q", what(), got, want)
			}
			opts, err := p.Options()
			oopts, oerr := oracleOptions(r)
			if fmt.Sprint(err) != fmt.Sprint(oerr) || !reflect.DeepEqual(opts, oopts) {
				t.Fatalf("%s: Options %+v (%v), oracle %+v (%v)", what(), opts, err, oopts, oerr)
			}
			if r.Canonical() != p.Canonical() || r.StructuralKey() != p.StructuralKey() {
				t.Fatalf("%s: the Request wrappers disagree with Prepared", what())
			}
		}
	}
}

// TestPreparedParsesOnce: the loop is parsed lazily, at most once, and the
// keys are memoized.
func TestPreparedParsesOnce(t *testing.T) {
	p := Prepare(Request{Loop: reqTestLoop, Machine: "clustered:4"})
	if p.parsed {
		t.Fatal("Prepare parsed the loop before anything asked for it")
	}
	_ = p.Canonical()
	if p.parsed {
		t.Fatal("Canonical parsed the loop")
	}
	skey := p.StructuralKey()
	l1, err := p.Loop()
	if err != nil {
		t.Fatal(err)
	}
	l2, _ := p.Loop()
	if l1 != l2 {
		t.Fatal("Loop parsed twice")
	}
	if p.StructuralKey() != skey || !strings.HasPrefix(skey, "sq1;m=clustered:4;") {
		t.Fatalf("structural key %q not memoized or malformed", skey)
	}
}

// TestRenderMatchesOracle holds the fmt-free Report and KernelSchedule to
// their fmt oracles over corpus compiles at every effort tier, on three
// machines, with and without unrolling — plus an op name longer than a
// kernel cell and non-ASCII op names, which the cells pad by runes.
func TestRenderMatchesOracle(t *testing.T) {
	loops := append(append([]*Loop{}, corpus.Standard()[:10]...), corpus.Stressed()[:3]...)
	loops = append(loops, corpus.Kernels()...)
	named := corpus.KernelByName("fir5").Clone()
	named.Name = "fïr5_ünïcödé"
	named.Ops[0].Name = "an_operation_name_well_over_thirty_runes_long"
	for i, op := range named.Ops[1:] {
		op.Name = fmt.Sprintf("ωπ%dé", i)
	}
	loops = append(loops, named)
	machines := []Machine{SingleCluster(6), Clustered(4), Clustered(6)}
	checked := 0
	var portfolio, optimal, overflow bool
	for _, eff := range []Effort{EffortFast, EffortBalanced, EffortExhaustive, EffortOptimal} {
		set := loops
		if eff == EffortOptimal {
			set = append(loops[:4:4], named)
		}
		for _, m := range machines {
			for _, unroll := range []bool{false, true} {
				for _, l := range set {
					opts := Options{Machine: m, Unroll: unroll, SkipVerify: true, Effort: eff}
					res, err := Compile(l, opts)
					if err != nil {
						t.Fatalf("%s on %s: %v", l.Name, m.Name, err)
					}
					if got, want := res.Report(), oracleReport(res); got != want {
						t.Fatalf("%s on %s (%s, unroll %v): Report\n got %q\nwant %q", l.Name, m.Name, eff, unroll, got, want)
					}
					if got, want := res.KernelSchedule(), oracleKernelSchedule(res); got != want {
						t.Fatalf("%s on %s (%s, unroll %v): KernelSchedule\n got %q\nwant %q", l.Name, m.Name, eff, unroll, got, want)
					}
					checked++
					rep := res.Report()
					portfolio = portfolio || strings.Contains(rep, "  portfolio: ")
					optimal = optimal || strings.Contains(rep, "  optimal: ")
					overflow = overflow || strings.Contains(res.KernelSchedule(), named.Ops[0].Name+"@")
				}
			}
		}
	}
	if !portfolio || !optimal || !overflow {
		t.Fatalf("render sweep missed a line kind: portfolio %v, optimal %v, overlong cell %v", portfolio, optimal, overflow)
	}
	t.Logf("%d compiles render identically", checked)
}
