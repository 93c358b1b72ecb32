package ir_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"vliwq/internal/copyins"
	"vliwq/internal/corpus"
	"vliwq/internal/ir"
	"vliwq/internal/unroll"
)

// kernelCorpora are the loop sets the differential tests sweep: the paper,
// stressed, kernel and traced corpora plus the 512-loop base set of the
// vliwbench warm workload (corpus seed 2).
func kernelCorpora() map[string][]*ir.Loop {
	return map[string][]*ir.Loop{
		"standard": corpus.Standard(),
		"stressed": corpus.Stressed(),
		"kernels":  corpus.Kernels(),
		"traced":   corpus.Traced(),
		"warmbase": corpus.Generate(corpus.Params{Seed: 2, N: 512}),
	}
}

// kernelVariants returns the spellings of l the kernels are checked on:
// the loop itself, unrolled by 2..8 (cycling with i, so ops carry unroll
// lineage) and copy-inserted (unnamed ops), each also renamed and
// statement-permuted.
func kernelVariants(t testing.TB, i int, l *ir.Loop, rng *rand.Rand) []*ir.Loop {
	t.Helper()
	u, err := unroll.Unroll(l, 2+i%7)
	if err != nil {
		t.Fatalf("%s: unroll: %v", l.Name, err)
	}
	c := copyins.Insert(l, copyins.Tree)
	var out []*ir.Loop
	for _, v := range []*ir.Loop{l, u, c.Loop} {
		out = append(out, v, renamed(v), permuted(v, rng))
	}
	return out
}

// renamed clones l with every name changed and the structure untouched.
func renamed(l *ir.Loop) *ir.Loop {
	c := l.Clone()
	c.Name = "r_" + c.Name
	for _, op := range c.Ops {
		if op.Name != "" {
			op.Name = "r_" + op.Name
		}
	}
	return c
}

// permuted renumbers l's statements into a random topological order of
// its zero-distance flow edges (so the formatted text still reparses),
// keeping every dependence, in Deps order, under the new numbering.
func permuted(l *ir.Loop, rng *rand.Rand) *ir.Loop {
	n := len(l.Ops)
	indeg := make([]int, n)
	succ := make([][]int, n)
	for _, d := range l.Deps {
		if d.Kind == ir.Flow && d.Dist == 0 {
			indeg[d.To]++
			succ[d.From] = append(succ[d.From], d.To)
		}
	}
	var ready []int
	for v := range indeg {
		if indeg[v] == 0 {
			ready = append(ready, v)
		}
	}
	pos := make([]int, n)
	for k := 0; len(ready) > 0; k++ {
		j := rng.Intn(len(ready))
		v := ready[j]
		ready[j] = ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		pos[v] = k
		for _, s := range succ[v] {
			if indeg[s]--; indeg[s] == 0 {
				ready = append(ready, s)
			}
		}
	}
	c := &ir.Loop{Name: l.Name, Trip: l.Trip, Unroll: l.Unroll, Ops: make([]*ir.Op, n)}
	for id, op := range l.Ops {
		cp := *op
		cp.ID = pos[id]
		c.Ops[cp.ID] = &cp
	}
	for _, d := range l.Deps {
		d.From, d.To = pos[d.From], pos[d.To]
		c.Deps = append(c.Deps, d)
	}
	return c
}

// checkKernels holds every rewritten kernel to its oracle on one loop and
// its formatted text; target is the spelling AlignLike aligns onto. desc
// names the spelling in failure messages.
func checkKernels(t *testing.T, desc func() string, v, target *ir.Loop) {
	t.Helper()
	what := lazy(desc)
	if got, want := ir.Skeleton(v), ir.OracleSkeleton(v); got != want {
		t.Fatalf("%s: Skeleton\n got %q\nwant %q", what, got, want)
	}
	colors, slot := ir.WLRefine(v)
	ocolors, oslot, rounds := ir.OracleWLRefine(v)
	if rounds > ir.MaxWLRounds {
		t.Fatalf("%s: refinement needs %d rounds, over the %d-round cap", what, rounds, ir.MaxWLRounds)
	}
	if !reflect.DeepEqual(colors, ocolors) || !reflect.DeepEqual(slot, oslot) {
		t.Fatalf("%s: wlRefine colors/slots differ from the oracle", what)
	}
	if got, want := ir.Fingerprint(v), ir.OracleFingerprint(v); got != want {
		t.Fatalf("%s: Fingerprint %s, oracle %s", what, got, want)
	}
	a, ok := ir.AlignLike(v, target)
	oa, ook := ir.OracleAlignLike(v, target)
	if ok != ook || !reflect.DeepEqual(a, oa) {
		t.Fatalf("%s: AlignLike ok=%v, oracle ok=%v (or the aligned loops differ)", what, ok, ook)
	}
	checkParse(t, what, ir.FormatString(v))
}

// lazy defers formatting a failure description to the failure.
type lazy func() string

func (f lazy) String() string { return f() }

// checkParse holds ParseString and Parse to the Scanner-based oracle on
// src: same accept/reject, same error text, and a deeply equal loop (so
// they also format identically).
func checkParse(t *testing.T, what fmt.Stringer, src string) {
	t.Helper()
	l, err := ir.ParseString(src)
	ol, oerr := ir.OracleParseString(src)
	if fmt.Sprint(err) != fmt.Sprint(oerr) {
		t.Fatalf("%s: ParseString error %v, oracle %v", what, err, oerr)
	}
	if !reflect.DeepEqual(l, ol) {
		t.Fatalf("%s: ParseString built a different loop than the oracle", what)
	}
	rl, rerr := ir.Parse(strings.NewReader(src))
	if fmt.Sprint(rerr) != fmt.Sprint(oerr) || !reflect.DeepEqual(rl, ol) {
		t.Fatalf("%s: Parse (reader) disagrees with the oracle: %v vs %v", what, rerr, oerr)
	}
}

// TestKernelsMatchOracle sweeps every corpus loop, unrolled and
// copy-inserted, each also renamed and permuted, through the rewritten
// kernels and their oracles. It doubles as the corpus check of the
// refinement round cap: no corpus loop may need more than maxWLRounds.
func TestKernelsMatchOracle(t *testing.T) {
	for name, loops := range kernelCorpora() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(1))
			checked := 0
			for i, l := range loops {
				for j, v := range kernelVariants(t, i, l, rng) {
					desc := func() string { return fmt.Sprintf("%s[%d] %s variant %d", name, i, l.Name, j) }
					checkKernels(t, desc, v, l)
					checked++
				}
			}
			t.Logf("%d loops, %d spellings match their oracles", len(loops), checked)
		})
	}
}

// TestIndexDepsOnCorpora holds the dependence index, in every set and
// direction, to direct scans of every corpus loop, unrolled and
// copy-inserted, each also permuted; copy insertion numbers copies after
// the consumers they feed. Renamed spellings share their loop's
// dependences, so they are skipped.
func TestIndexDepsOnCorpora(t *testing.T) {
	for name, loops := range kernelCorpora() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(1))
			for i, l := range loops {
				for j, v := range kernelVariants(t, i, l, rng) {
					if j%3 != 1 {
						ir.CheckIndex(t, v)
					}
				}
			}
		})
	}
}

// TestParseMatchesOracleOnMalformed: every rejection keeps the oracle's
// error text, including the Scanner's line-length limit on both sides of
// the boundary, and the Unicode whitespace strings.Fields splits on.
func TestParseMatchesOracleOnMalformed(t *testing.T) {
	long := func(n int) string { return "#" + strings.Repeat("x", n-1) }
	cases := map[string]string{
		"empty":              "",
		"comment only":       "# nothing\n  # more\n",
		"no ops":             "loop x\ntrip 4\n",
		"loop arity":         "loop a b\n",
		"loop bare":          "loop\n",
		"trip arity":         "loop x\ntrip\n",
		"trip zero":          "loop x\ntrip 0\nop a load\n",
		"trip negative":      "loop x\ntrip -3\nop a load\n",
		"trip junk":          "loop x\ntrip 1e3\nop a load\n",
		"trip overflow":      "loop x\ntrip 99999999999999999999\nop a load\n",
		"op arity":           "loop x\nop a\n",
		"op duplicate":       "loop x\nop a load\nop a load\n",
		"op kind":            "loop x\nop a frob\n",
		"op operand":         "loop x\nop a add b\n",
		"op self operand":    "loop x\nop a add a\n",
		"op too many inputs": "loop x\nop a load\nop b load\nop c load\nop s add a b c\n",
		"store producer":     "loop x\nop a load\nop s store a\nop t add s\n",
		"carried arity":      "loop x\nop a load\ncarried a a\n",
		"carried dist zero":  "loop x\nop a add\ncarried a a 0\n",
		"mem unknown from":   "loop x\nop a load\nmem b a 1\n",
		"order unknown to":   "loop x\nop a load\norder a b 1\n",
		"bad distance":       "loop x\nop a load\nmem a a -1\n",
		"zero dist cycle":    "loop x\nop a add\nop b add a\norder b a 0\n",
		"directive":          "loop x\nfrob\n",
		"crlf":               "loop x\r\ntrip 8\r\nop a load\r\nop s store a\r\n",
		"vertical tab":       "loop\vx\nop\fa load\n",
		"nel":                "loop\u0085x\nop a\u0085load\n",
		"nbsp":               "loop\u00a0x\nop a\u00a0load\n",
		"ideographic space":  "loop\u3000x\nop a\u3000load\n",
		"invalid utf8":       "loop \xff\xfe\nop a load\n",
		"no final newline":   "loop x\nop a load",
		"line 65535":         "loop x\n" + long(65535) + "\nop a load\n",
		"line 65536":         "loop x\n" + long(65536) + "\nop a load\n",
		"last line 65535":    "loop x\nop a load\n" + long(65535),
		"last line 65536":    "loop x\nop a load\n" + long(65536),
		"crlf at 65535":      "loop x\n" + long(65534) + "\r\nop a load\n",
		"error before long":  "loop x\nfrob\n" + long(70000) + "\n",
	}
	for name, src := range cases {
		checkParse(t, lazy(func() string { return name }), src)
	}
}
