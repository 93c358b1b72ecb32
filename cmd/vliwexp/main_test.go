package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

func golden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("output differs from %s:\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}

// TestRunSingleFigureGolden locks in the rendered fig3 table on a small
// deterministic corpus.
func TestRunSingleFigureGolden(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-fig", "fig3", "-n", "24", "-seed", "5"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit code %d, stderr: %s", code, stderr.String())
	}
	golden(t, "fig3_n24_seed5", stdout.Bytes())
}

// TestRunAllFiguresGolden locks in every table of the paper's evaluation
// (-fig all) on a small deterministic corpus.
func TestRunAllFiguresGolden(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-fig", "all", "-n", "24", "-seed", "5"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit code %d, stderr: %s", code, stderr.String())
	}
	golden(t, "all_n24_seed5", stdout.Bytes())
}

// TestRunAllFiguresSmoke runs every experiment end to end on a tiny corpus;
// the output shape (one table per experiment) is asserted, not the bytes.
func TestRunAllFiguresSmoke(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-n", "8", "-seed", "3"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit code %d, stderr: %s", code, stderr.String())
	}
	if n := strings.Count(stdout.String(), "== "); n != 12 {
		t.Fatalf("expected 12 tables, saw %d:\n%s", n, stdout.String())
	}
}

// TestRunStageTimes: -stage-times appends the per-stage compile clock
// line after the tables; the default run must not print it (the goldens
// above pin that).
func TestRunStageTimes(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-fig", "fig3", "-n", "8", "-stage-times"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit code %d, stderr: %s", code, stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "stage times (distinct compilations):") ||
		!strings.Contains(out, "schedule=") {
		t.Fatalf("missing stage-times line:\n%s", out)
	}
	var plain bytes.Buffer
	if code := run([]string{"-fig", "fig3", "-n", "8"}, &plain, &stderr); code != 0 {
		t.Fatalf("exit code %d", code)
	}
	if strings.Contains(plain.String(), "stage times") {
		t.Fatal("stage times printed without the flag")
	}
}

// TestRunBadFlags is the satellite fix's contract: unknown -fig exits
// non-zero with the sorted figure list on stderr, and non-positive -n is
// rejected instead of generating an empty corpus.
func TestRunBadFlags(t *testing.T) {
	sortedList := "ablation-commlat, ablation-copyshape, ablation-invariants, ablation-moves, " +
		"clusterres, copycost, fig3, fig4, fig6, fig8, fig9, frontier, optimal, portfolio, unrollqueues"
	tests := []struct {
		name      string
		args      []string
		stderrHas string
	}{
		{"unknown figure", []string{"-fig", "fig7"}, `unknown figure "fig7"; available: ` + sortedList},
		{"zero corpus", []string{"-n", "0"}, "-n must be a positive corpus size (got 0)"},
		{"negative corpus", []string{"-n", "-5"}, "-n must be a positive corpus size (got -5)"},
		{"unknown flag", []string{"-frobnicate"}, "flag provided but not defined"},
		{"bad figure beats slow run", []string{"-fig", "nope", "-n", "1000000"}, "unknown figure"},
		{"unknown preset lists valid", []string{"-preset", "nope"},
			`unknown preset "nope" (valid: standard, stressed, traced)`},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run(tt.args, &stdout, &stderr)
			if code == 0 {
				t.Fatalf("run(%v) exited 0", tt.args)
			}
			if !strings.Contains(stderr.String(), tt.stderrHas) {
				t.Fatalf("stderr %q does not contain %q", stderr.String(), tt.stderrHas)
			}
			if stdout.Len() != 0 {
				t.Fatalf("error path wrote to stdout: %s", stdout.String())
			}
		})
	}
}

// TestRunFrontierGolden locks in the whole-program frontier table: the
// traced programs swept across cluster counts. The table consumes the
// traced preset directly, so -n only sizes the (unused) synthetic corpus.
func TestRunFrontierGolden(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-fig", "frontier", "-n", "4"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit code %d, stderr: %s", code, stderr.String())
	}
	golden(t, "frontier_n4", stdout.Bytes())
}

// TestRunPreset: -preset swaps the corpus for a named preset and the
// header reports the preset instead of the seed.
func TestRunPreset(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-fig", "fig3", "-preset", "traced"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit code %d, stderr: %s", code, stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "corpus: 6 loops (preset traced)") {
		t.Fatalf("missing preset header:\n%s", out)
	}
	if !strings.Contains(out, "== fig3:") {
		t.Fatalf("missing fig3 table:\n%s", out)
	}
}
