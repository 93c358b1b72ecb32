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

func TestRunKernelGolden(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-kernel", "daxpy", "-machine", "clustered:4"}, strings.NewReader(""), &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit code %d, stderr: %s", code, stderr.String())
	}
	golden(t, "daxpy_clustered4", stdout.Bytes())
}

func TestRunStdinLoopGolden(t *testing.T) {
	const loop = `
loop fir2
trip 100
op c0 load
op x0 load
op c1 load
op x1 load
op m0 mul c0 x0
op m1 mul c1 x1
op s  add m0 m1
op st store s
`
	var stdout, stderr bytes.Buffer
	code := run([]string{"-machine", "single:6", "-unroll"}, strings.NewReader(loop), &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit code %d, stderr: %s", code, stderr.String())
	}
	golden(t, "fir2_single6_unroll", stdout.Bytes())
}

// TestRunEffortPortfolio: -effort exhaustive tries the strategy catalogue
// in order and reports the winner; the default fast path must not print
// that line (that is what keeps the goldens above stable). The report
// still words it "strategies raced": response bytes the goldens and
// cache snapshots pin.
func TestRunEffortPortfolio(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-kernel", "daxpy", "-machine", "clustered:4", "-effort", "exhaustive"},
		strings.NewReader(""), &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit code %d, stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "portfolio: 5 strategies raced") {
		t.Fatalf("missing portfolio line:\n%s", stdout.String())
	}
}

// TestRunEffortOptimal: -effort optimal answers the "is this schedule
// optimal?" question in the report — the certificate line carries the
// proved lower bound. Other efforts must not print it.
func TestRunEffortOptimal(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-kernel", "daxpy", "-machine", "clustered:4", "-effort", "optimal"},
		strings.NewReader(""), &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit code %d, stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "optimal: lower-bound=") {
		t.Fatalf("missing certificate line:\n%s", stdout.String())
	}
}

// TestRunDumpAfter drives the staged pipeline (-dump-after → RunUntil)
// through every cutoff: the unroll and copies artifacts must come back in
// the loop text format (re-parseable), the schedule dump must carry the
// kernel table, and an unknown stage fails with the sorted stage list.
func TestRunDumpAfter(t *testing.T) {
	base := []string{"-kernel", "daxpy", "-machine", "clustered:4", "-unroll"}
	run1 := func(args ...string) (int, string, string) {
		var stdout, stderr bytes.Buffer
		code := run(append(append([]string{}, base...), args...), strings.NewReader(""), &stdout, &stderr)
		return code, stdout.String(), stderr.String()
	}

	code, out, errOut := run1("-dump-after", "unroll")
	if code != 0 {
		t.Fatalf("dump-after unroll: exit %d, stderr %s", code, errOut)
	}
	if !strings.Contains(out, "# after unroll on clustered:4") || !strings.Contains(out, "loop daxpy") {
		t.Fatalf("unroll dump not in loop text format:\n%s", out)
	}
	if strings.Contains(out, "II=") {
		t.Fatalf("unroll dump ran the scheduler:\n%s", out)
	}

	code, out, _ = run1("-dump-after", "copies")
	if code != 0 || !strings.Contains(out, "after copy insertion") || !strings.Contains(out, "copy") {
		t.Fatalf("copies dump (exit %d):\n%s", code, out)
	}

	code, out, _ = run1("-dump-after", "schedule")
	if code != 0 || !strings.Contains(out, "II=") || !strings.Contains(out, "cycle  0 |") {
		t.Fatalf("schedule dump (exit %d):\n%s", code, out)
	}

	code, out, _ = run1("-dump-after", "alloc")
	if code != 0 || !strings.Contains(out, "queues") {
		t.Fatalf("alloc dump (exit %d):\n%s", code, out)
	}

	code, _, errOut = run1("-dump-after", "parse")
	if code == 0 || !strings.Contains(errOut, "unknown stage \"parse\" (valid: alloc, copies, schedule, unroll, verify)") {
		t.Fatalf("unknown stage: exit %d, stderr %s", code, errOut)
	}
}

func TestRunListKernels(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, strings.NewReader(""), &stdout, &stderr); code != 0 {
		t.Fatalf("exit code %d", code)
	}
	for _, k := range []string{"daxpy", "ddot"} {
		if !strings.Contains(stdout.String(), k) {
			t.Fatalf("-list output missing %q:\n%s", k, stdout.String())
		}
	}
}

func TestRunDotOutput(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-kernel", "daxpy", "-dot"}, strings.NewReader(""), &stdout, &stderr); code != 0 {
		t.Fatalf("exit code %d", code)
	}
	if !strings.Contains(stdout.String(), "digraph") {
		t.Fatalf("-dot output is not DOT:\n%s", stdout.String())
	}
}

func TestRunErrors(t *testing.T) {
	tests := []struct {
		name      string
		args      []string
		stdin     string
		stderrHas string
	}{
		{"unknown kernel", []string{"-kernel", "nosuch"}, "", `unknown kernel "nosuch"`},
		{"bad machine", []string{"-kernel", "daxpy", "-machine", "mesh:4"}, "", "unknown machine kind"},
		{"bad machine size", []string{"-kernel", "daxpy", "-machine", "single:zero"}, "", "bad machine size"},
		{"unparsable stdin", []string{}, "op nope unknownkind", "vliwsched:"},
		{"bad effort", []string{"-kernel", "daxpy", "-effort", "sluggish"}, "", "unknown effort \"sluggish\" (valid: balanced, exhaustive, fast, optimal)"},
		{"unknown flag", []string{"-zap"}, "", "flag provided but not defined"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run(tt.args, strings.NewReader(tt.stdin), &stdout, &stderr)
			if code == 0 {
				t.Fatalf("run(%v) exited 0", tt.args)
			}
			if !strings.Contains(stderr.String(), tt.stderrHas) {
				t.Fatalf("stderr %q does not contain %q", stderr.String(), tt.stderrHas)
			}
		})
	}
}

// TestRunFromTraceGolden locks in the whole-program mode: the checked-in
// kernel trace scheduled end to end on clustered:4, with the hard region
// (L2) compiled at effort optimal and the merged schedule verified.
func TestRunFromTraceGolden(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-from-trace", "../../internal/frontend/testdata/kernel.trace", "-machine", "clustered:4"},
		strings.NewReader(""), &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit code %d, stderr: %s", code, stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "region L2 [hard, effort=optimal]") {
		t.Fatalf("L2 not scheduled through the certified tier:\n%s", out)
	}
	if !strings.Contains(out, "verified: every region's pipelined execution matches sequential reference") {
		t.Fatalf("missing verification line:\n%s", out)
	}
	golden(t, "kernelmix_clustered4", stdout.Bytes())
}

// TestRunFromTraceErrors: trace-mode failures exit non-zero with a
// diagnostic.
func TestRunFromTraceErrors(t *testing.T) {
	tests := []struct {
		name      string
		args      []string
		stderrHas string
	}{
		{"missing file", []string{"-from-trace", "testdata/nope.trace"}, "no such file"},
		{"bad machine", []string{"-from-trace", "../../internal/frontend/testdata/kernel.trace", "-machine", "hex:9"}, "machine"},
		{"bad effort", []string{"-from-trace", "../../internal/frontend/testdata/kernel.trace", "-effort", "wat"}, "effort"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tt.args, strings.NewReader(""), &stdout, &stderr); code == 0 {
				t.Fatalf("run(%v) exited 0", tt.args)
			}
			if !strings.Contains(stderr.String(), tt.stderrHas) {
				t.Fatalf("stderr %q does not contain %q", stderr.String(), tt.stderrHas)
			}
		})
	}
}
