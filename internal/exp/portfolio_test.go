package exp

import (
	"strings"
	"testing"

	"vliwq/internal/corpus"
	"vliwq/internal/sched"
)

// portfolioOpts is a test-sized sweep: small standard slice, small
// stressed slice, shared pipeline.
func portfolioOpts() Options {
	sp := corpus.StressedParams()
	sp.N = 64
	return Options{
		Loops:         corpus.Generate(corpus.Params{Seed: 3, N: 32}),
		StressedLoops: corpus.Generate(sp),
		Pipeline:      NewPipeline(),
	}
}

func TestPortfolioShapeAndDeterminism(t *testing.T) {
	opts := portfolioOpts()
	tab := Portfolio(opts)
	if len(tab.Rows) != 8 { // 2 corpora x 2 cluster counts x 2 efforts
		t.Fatalf("portfolio rows = %d, want 8", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		if row[8] != "0" {
			t.Fatalf("portfolio sweep has failed loops: %v", row)
		}
	}
	again := Portfolio(portfolioOpts())
	for i := range tab.Rows {
		if strings.Join(tab.Rows[i], "|") != strings.Join(again.Rows[i], "|") {
			t.Fatalf("row %d not deterministic:\n%v\n%v", i, tab.Rows[i], again.Rows[i])
		}
	}
	for i := range tab.Notes {
		if tab.Notes[i] != again.Notes[i] {
			t.Fatalf("note %d not deterministic: %q vs %q", i, tab.Notes[i], again.Notes[i])
		}
	}
}

// TestPortfolioExhaustiveBeatsBaseline is the PR's acceptance criterion in
// miniature: on the stressed corpus, EffortExhaustive must reach II == MII
// on strictly more loops than the baseline heuristic (and never fewer
// anywhere).
func TestPortfolioExhaustiveBeatsBaseline(t *testing.T) {
	tab := Portfolio(portfolioOpts())
	strictlyBetter := false
	for i := 0; i+1 < len(tab.Rows); i += 2 {
		fast, exh := tab.Rows[i], tab.Rows[i+1]
		if fast[2] != "fast" || exh[2] != "exhaustive" {
			t.Fatalf("unexpected row pairing: %v / %v", fast, exh)
		}
		f := parsePct(t, fast[3])
		e := parsePct(t, exh[3])
		if e < f {
			t.Fatalf("exhaustive II=MII %v%% below fast %v%% in %v", e, f, exh)
		}
		if fast[0] == "stressed" && e > f {
			strictlyBetter = true
		}
	}
	if !strictlyBetter {
		t.Fatal("exhaustive did not beat the baseline on any stressed row")
	}
	// The win tally notes must show the race is actually diverse: at least
	// one non-baseline strategy winning somewhere.
	diverse := false
	for _, n := range tab.Notes {
		if strings.Contains(n, "wins:") && (strings.Contains(n, "load-balanced=") ||
			strings.Contains(n, "affinity=") || strings.Contains(n, "round-robin=") ||
			strings.Contains(n, "perturb=")) {
			diverse = true
		}
	}
	if !diverse {
		t.Fatalf("no non-baseline strategy won anywhere: %v", tab.Notes)
	}
}

// TestOptionsEffortThreadsThroughCompiler: the sweep-wide effort must reach
// experiments that do not pin their own, and it must participate in the
// pipeline cache key (distinct efforts, distinct compilations).
func TestOptionsEffortThreadsThroughCompiler(t *testing.T) {
	opts := small()
	opts.Pipeline = NewPipeline()
	Fig6(opts)
	base := opts.Pipeline.c.Stats().Misses
	if base == 0 {
		t.Fatal("fig6 compiled nothing")
	}
	// Same pipeline, higher effort: every clustered compilation re-runs
	// under its new key instead of hitting the fast entries.
	opts.Effort = sched.EffortExhaustive
	Fig6(opts)
	if again := opts.Pipeline.c.Stats().Misses; again <= base {
		t.Fatalf("effort change added no cache misses (%d -> %d); effort is outside the pipe key", base, again)
	}
}

func TestWinsByStrategyOrdering(t *testing.T) {
	if got := winsByStrategy(nil); got != "none" {
		t.Fatalf("empty tally = %q", got)
	}
	tally := map[sched.Strategy]int{
		sched.StrategyPerturb:  1,
		sched.StrategyBaseline: 9,
	}
	if got := winsByStrategy(tally); got != "baseline=9 perturb=1" {
		t.Fatalf("tally rendered %q, want strategy-index order", got)
	}
}
