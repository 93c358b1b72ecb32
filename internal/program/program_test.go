package program

import (
	"context"
	"os"
	"testing"

	"vliwq"
	"vliwq/internal/frontend"
)

func loadKernelTrace(t testing.TB) *frontend.Program {
	t.Helper()
	f, err := os.Open("../frontend/testdata/kernel.trace")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	p, err := frontend.Parse(f)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestScheduleProgramKernelTrace is the acceptance path: the checked-in
// multi-loop trace lifts to >= 3 regions, the merged schedule verifies,
// and every hard region carries an optimality certificate.
func TestScheduleProgramKernelTrace(t *testing.T) {
	p := loadKernelTrace(t)
	if len(p.Regions) < 3 {
		t.Fatalf("kernel trace lifts to %d regions, want >= 3", len(p.Regions))
	}
	s, err := ScheduleProgram(context.Background(), p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Verify(); err != nil {
		t.Fatalf("merged schedule fails verification: %v", err)
	}
	if s.Machine != "clustered:4" {
		t.Fatalf("machine = %q, want clustered:4", s.Machine)
	}
	if s.HardCount() == 0 {
		t.Fatal("no region classified hard; the trace must exercise the certified tier")
	}
	for _, rs := range s.Regions {
		wantEffort := "fast"
		if rs.Hard {
			wantEffort = "optimal"
			// The certified tier ran and bounded the region.
			if rs.Result.Bound.Lower == 0 {
				t.Errorf("hard region %q is missing its Bound certificate", rs.Region.Label)
			}
		}
		if rs.Request.Effort != wantEffort {
			t.Errorf("region %q: effort %q, want %q", rs.Region.Label, rs.Request.Effort, wantEffort)
		}
		if len(rs.Result.Stages) == 0 {
			t.Errorf("region %q: no stage timings", rs.Region.Label)
		}
	}
	if s.SumII() <= 0 || s.MaxQueues() <= 0 {
		t.Fatalf("degenerate metrics: sum II=%d queues=%d", s.SumII(), s.MaxQueues())
	}
}

// TestRegionCompilesMatchStandalone pins the partition invariant: each
// region's compile inside the program schedule is byte-identical (report
// and kernel table) to compiling the region's lifted loop standalone
// through its own session with the same request.
func TestRegionCompilesMatchStandalone(t *testing.T) {
	p := loadKernelTrace(t)
	s, err := ScheduleProgram(context.Background(), p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, rs := range s.Regions {
		standalone := vliwq.NewCompiler(vliwq.CompilerConfig{})
		res, err := standalone.Run(context.Background(), rs.Request)
		if err != nil {
			t.Fatalf("region %q standalone: %v", rs.Region.Label, err)
		}
		if got, want := rs.Result.Report(), res.Report(); got != want {
			t.Errorf("region %q report diverges:\n%s\nvs standalone\n%s", rs.Region.Label, got, want)
		}
		if got, want := rs.Result.KernelSchedule(), res.KernelSchedule(); got != want {
			t.Errorf("region %q kernel diverges:\n%s\nvs standalone\n%s", rs.Region.Label, got, want)
		}
		if rs.Result.Bound != res.Bound {
			t.Errorf("region %q bound diverges: %+v vs %+v", rs.Region.Label, rs.Result.Bound, res.Bound)
		}
	}
}

// TestRenderDeterministic: two independent sessions produce byte-identical
// merged renderings.
func TestRenderDeterministic(t *testing.T) {
	p := loadKernelTrace(t)
	a, err := ScheduleProgram(context.Background(), p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := ScheduleProgram(context.Background(), p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ra, rb := a.Render(), b.Render()
	if ra != rb {
		t.Fatalf("renderings differ:\n%s\nvs\n%s", ra, rb)
	}
	if ra == "" {
		t.Fatal("empty rendering")
	}
}

// TestRequestsErrors: bad machine specs and empty programs fail cleanly.
func TestRequestsErrors(t *testing.T) {
	p := loadKernelTrace(t)
	if _, err := Requests(p, Options{Machine: "hex:9"}); err == nil {
		t.Fatal("bad machine spec accepted")
	}
	empty, err := frontend.ParseString("\tmov r0, 0\n")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ScheduleProgram(context.Background(), empty, Options{}); err == nil {
		t.Fatal("region-free trace accepted")
	}
}
