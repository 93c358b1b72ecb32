package exp

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"vliwq/internal/corpus"
	"vliwq/internal/ir"
	"vliwq/internal/machine"
	"vliwq/internal/unroll"
)

// small keeps experiment tests fast while exercising every code path.
func small() Options {
	return Options{Loops: corpus.Generate(corpus.Params{Seed: 3, N: 32})}
}

func parsePct(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
	if err != nil {
		t.Fatalf("bad percentage %q", s)
	}
	return v
}

func TestFig3Shape(t *testing.T) {
	tab := Fig3(small())
	if len(tab.Rows) != 6 { // 3 machines x with/without
		t.Fatalf("fig3 rows = %d", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		// Cumulative: %<=4 <= %<=8 <= %<=16 <= %<=32.
		prev := -1.0
		for _, cell := range row[2:6] {
			v := parsePct(t, cell)
			if v < prev {
				t.Fatalf("fig3 row %v not cumulative", row)
			}
			prev = v
		}
		if row[6] != "0" {
			t.Fatalf("fig3 has unschedulable loops: %v", row)
		}
	}
}

func TestCopyCostMostLoopsKeepII(t *testing.T) {
	tab := CopyCost(small())
	for _, row := range tab.Rows {
		if v := parsePct(t, row[1]); v < 60 {
			t.Fatalf("same-II fraction %v implausibly low: %v", v, row)
		}
	}
}

func TestFig4SpeedupBounds(t *testing.T) {
	tab := Fig4(small())
	if len(tab.Rows) != 3 {
		t.Fatalf("fig4 rows = %d", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		v := parsePct(t, row[1])
		if v < 0 || v > 100 {
			t.Fatalf("fig4 fraction out of range: %v", row)
		}
	}
}

func TestFig6Monotonicity(t *testing.T) {
	tab := Fig6(small())
	if len(tab.Rows) != 3 {
		t.Fatalf("fig6 rows = %d", len(tab.Rows))
	}
	// The paper's core finding: the same-II fraction does not improve as
	// clusters are added.
	prev := 101.0
	for _, row := range tab.Rows {
		v := parsePct(t, row[2])
		if v > prev+5 { // tolerate small-sample noise
			t.Fatalf("same-II fraction rose sharply with more clusters: %v", tab.Rows)
		}
		if v < prev {
			prev = v
		}
	}
}

func TestClusterResourcesFig7Sizing(t *testing.T) {
	tab := ClusterResources(small())
	for _, row := range tab.Rows {
		if v := parsePct(t, row[3]); v < 50 {
			t.Fatalf("Fig. 7 sizing covers only %v%%: %v", v, row)
		}
	}
}

func TestFig8Shape(t *testing.T) {
	tab := Fig8(small())
	if len(tab.Rows) != 15 { // FUs 4..18
		t.Fatalf("fig8 rows = %d", len(tab.Rows))
	}
	first, err1 := strconv.ParseFloat(tab.Rows[0][1], 64)
	last, err2 := strconv.ParseFloat(tab.Rows[14][1], 64)
	if err1 != nil || err2 != nil {
		t.Fatalf("bad IPC cells")
	}
	if last <= first {
		t.Fatalf("static IPC did not grow with machine width: %v -> %v", first, last)
	}
	// Clustered columns only at 6/9/12/15/18 FUs.
	for i, row := range tab.Rows {
		nfu := i + 4
		hasClustered := row[2] != ""
		if hasClustered != (nfu%3 == 0 && nfu >= 6) {
			t.Fatalf("clustered column wrong at %d FUs", nfu)
		}
	}
	// Dynamic IPC must be positive and grow with machine width overall.
	// (Per-loop dynamic <= static is tested in internal/metrics; the
	// corpus aggregate is execution-time weighted and may sit above the
	// unweighted static mean.)
	dFirst, _ := strconv.ParseFloat(tab.Rows[0][3], 64)
	dLast, _ := strconv.ParseFloat(tab.Rows[14][3], 64)
	if dFirst <= 0 || dLast <= dFirst {
		t.Fatalf("dynamic IPC series not growing: %v -> %v", dFirst, dLast)
	}
}

func TestFig9FiltersResourceConstrained(t *testing.T) {
	opts := small()
	tab := Fig9(opts)
	if !strings.Contains(tab.Title, "of") {
		t.Fatalf("fig9 title should report the filter: %q", tab.Title)
	}
	// Resource-constrained loops scale better: IPC at 18 FUs must exceed
	// the all-loops value.
	all := Fig8(opts)
	f9, _ := strconv.ParseFloat(tab.Rows[14][1], 64)
	f8, _ := strconv.ParseFloat(all.Rows[14][1], 64)
	if f9 < f8 {
		t.Fatalf("resource-constrained IPC %v below all-loops %v at 18 FUs", f9, f8)
	}
}

func TestAblationCopyShapeTreeWins(t *testing.T) {
	tab := AblationCopyShape(small())
	tree, _ := strconv.ParseFloat(tab.Rows[0][1], 64)
	chain, _ := strconv.ParseFloat(tab.Rows[1][1], 64)
	if tree > chain {
		t.Fatalf("tree mean II %v worse than chain %v", tree, chain)
	}
}

func TestAblationMoveOps(t *testing.T) {
	tab := AblationMoveOps(small())
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		off := parsePct(t, row[1])
		on := parsePct(t, row[2])
		if off < 0 || off > 100 || on < 0 || on > 100 {
			t.Fatalf("fractions out of range: %v", row)
		}
	}
}

func TestAblationCommLatencyMonotone(t *testing.T) {
	tab := AblationCommLatency(small())
	if parsePct(t, tab.Rows[0][1]) != 100 {
		t.Fatalf("latency 0 must match itself: %v", tab.Rows[0])
	}
	ii0, _ := strconv.ParseFloat(tab.Rows[0][2], 64)
	ii2, _ := strconv.ParseFloat(tab.Rows[2][2], 64)
	if ii2 < ii0-1e-9 {
		t.Fatalf("mean II improved with higher comm latency: %v vs %v", ii2, ii0)
	}
}

func TestAblationInvariantsBound(t *testing.T) {
	tab := AblationInvariants(small())
	for _, row := range tab.Rows {
		if row[3] == "n/a" {
			continue
		}
		ratio, err := strconv.ParseFloat(row[3], 64)
		if err != nil || ratio > 1.0+1e-9 {
			t.Fatalf("hoisting made things worse: %v", row)
		}
	}
}

func TestHoistInvariants(t *testing.T) {
	l := corpus.Daxpy() // loads a (invariant-like), x, y — all leaf loads
	h, removed := hoistInvariants(l)
	if removed != 3 {
		t.Fatalf("removed %d leaf loads, want 3", removed)
	}
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(h.Ops) != len(l.Ops)-3 {
		t.Fatalf("hoisted loop has %d ops", len(h.Ops))
	}
	// A loop with an indexed (address-fed) load keeps it.
	sp := corpus.SpMVRow()
	_, removedSp := hoistInvariants(sp)
	for _, op := range sp.Ops {
		_ = op
	}
	if removedSp >= 3 {
		t.Fatalf("indexed load treated as invariant (removed %d)", removedSp)
	}
}

func TestTableFprint(t *testing.T) {
	tab := &Table{
		ID: "x", Title: "T",
		Header: []string{"a", "b"},
		Rows:   [][]string{{"1", "2"}},
		Notes:  []string{"n"},
	}
	var buf bytes.Buffer
	tab.Fprint(&buf)
	out := buf.String()
	for _, frag := range []string{"== x: T ==", "a", "1", "note: n"} {
		if !strings.Contains(out, frag) {
			t.Fatalf("missing %q in:\n%s", frag, out)
		}
	}
}

func TestForEachOrderAndParallelism(t *testing.T) {
	loops := corpus.Generate(corpus.Params{Seed: 2, N: 20})
	got := forEach(loops, 4, func(l *ir.Loop) string { return l.Name })
	for i, name := range got {
		if name != loops[i].Name {
			t.Fatalf("order broken at %d", i)
		}
	}
}

// TestAutoFactorAgreesOnEqualSizeMachines pins what lets Fig. 6 and the
// moves ablation compile each machine with its own unroll factor yet
// schedule one transformed body on both: SingleCluster(3n) and
// Clustered(n) total the same FU mix, and AutoFactor reads only that total.
func TestAutoFactorAgreesOnEqualSizeMachines(t *testing.T) {
	for n := 1; n <= 8; n++ {
		single, clustered := machine.SingleCluster(3*n), machine.Clustered(n)
		if single.TotalFUs() != clustered.TotalFUs() {
			t.Fatalf("n=%d: TotalFUs %v (single) vs %v (clustered)", n, single.TotalFUs(), clustered.TotalFUs())
		}
		for _, l := range corpus.Standard() {
			if a, b := unroll.AutoFactor(l, single), unroll.AutoFactor(l, clustered); a != b {
				t.Fatalf("%s at n=%d: AutoFactor %d (single) vs %d (clustered)", l.Name, n, a, b)
			}
		}
	}
}
