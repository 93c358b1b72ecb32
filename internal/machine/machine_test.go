package machine

import (
	"testing"

	"vliwq/internal/ir"
)

func TestClassOf(t *testing.T) {
	want := map[ir.OpKind]FUClass{
		ir.KLoad: LS, ir.KStore: LS,
		ir.KAdd: ALU,
		ir.KMul: MUL, ir.KDiv: MUL,
		ir.KCopy: COPY, ir.KMove: COPY,
	}
	for k, c := range want {
		if got := ClassOf(k); got != c {
			t.Errorf("ClassOf(%v) = %v, want %v", k, got, c)
		}
	}
	if ClassOf(ir.KInvalid) != NumClasses {
		t.Error("invalid kind must map outside the class range")
	}
}

func TestSingleClusterMixes(t *testing.T) {
	cases := []struct {
		n                  int
		ls, alu, mul, copy int
	}{
		{4, 1, 2, 1, 2},
		{6, 2, 2, 2, 2},
		{12, 4, 4, 4, 4},
		{5, 2, 2, 1, 2},
		{18, 6, 6, 6, 6},
	}
	for _, c := range cases {
		cfg := SingleCluster(c.n)
		if err := cfg.Validate(); err != nil {
			t.Fatalf("n=%d: %v", c.n, err)
		}
		fus := cfg.Clusters[0].FUs
		if fus[LS] != c.ls || fus[ALU] != c.alu || fus[MUL] != c.mul || fus[COPY] != c.copy {
			t.Errorf("n=%d: got %v, want LS=%d ALU=%d MUL=%d COPY=%d", c.n, fus, c.ls, c.alu, c.mul, c.copy)
		}
		if cfg.ComputeFUs() != c.n {
			t.Errorf("n=%d: ComputeFUs = %d", c.n, cfg.ComputeFUs())
		}
		if cfg.NumClusters() != 1 {
			t.Errorf("n=%d: single cluster expected", c.n)
		}
	}
}

func TestClusteredShape(t *testing.T) {
	for _, nc := range []int{2, 4, 5, 6} {
		cfg := Clustered(nc)
		if err := cfg.Validate(); err != nil {
			t.Fatalf("nc=%d: %v", nc, err)
		}
		if cfg.NumClusters() != nc {
			t.Fatalf("nc=%d: got %d clusters", nc, cfg.NumClusters())
		}
		if cfg.ComputeFUs() != 3*nc {
			t.Fatalf("nc=%d: ComputeFUs = %d, want %d", nc, cfg.ComputeFUs(), 3*nc)
		}
		for i, cl := range cfg.Clusters {
			if cl.FUs[LS] != 1 || cl.FUs[ALU] != 1 || cl.FUs[MUL] != 1 || cl.FUs[COPY] != 1 {
				t.Fatalf("nc=%d cluster %d: FU mix %v", nc, i, cl.FUs)
			}
			if cl.PrivateQueues != DefaultPrivateQueues {
				t.Fatalf("nc=%d cluster %d: %d private queues", nc, i, cl.PrivateQueues)
			}
		}
		if cfg.RingQueues != DefaultRingQueues {
			t.Fatalf("nc=%d: ring queues %d", nc, cfg.RingQueues)
		}
	}
}

func TestRingDistanceAndAdjacency(t *testing.T) {
	cfg := Clustered(6)
	cases := []struct{ a, b, d int }{
		{0, 0, 0}, {0, 1, 1}, {0, 5, 1}, {0, 2, 2}, {0, 3, 3}, {1, 4, 3}, {2, 5, 3}, {4, 1, 3},
	}
	for _, c := range cases {
		if got := cfg.RingDistance(c.a, c.b); got != c.d {
			t.Errorf("RingDistance(%d,%d) = %d, want %d", c.a, c.b, got, c.d)
		}
		if got := cfg.RingDistance(c.b, c.a); got != c.d {
			t.Errorf("RingDistance(%d,%d) not symmetric", c.b, c.a)
		}
		if cfg.Adjacent(c.a, c.b) != (c.d <= 1) {
			t.Errorf("Adjacent(%d,%d) inconsistent with distance %d", c.a, c.b, c.d)
		}
	}
}

func TestRingDistanceSmallRings(t *testing.T) {
	cfg2 := Clustered(2)
	if cfg2.RingDistance(0, 1) != 1 || !cfg2.Adjacent(0, 1) {
		t.Fatal("2-cluster ring adjacency wrong")
	}
	cfg1 := Clustered(1)
	if cfg1.RingDistance(0, 0) != 0 {
		t.Fatal("1-cluster ring distance wrong")
	}
	cfg3 := Clustered(3)
	// Every pair in a 3-ring is adjacent.
	for a := 0; a < 3; a++ {
		for b := 0; b < 3; b++ {
			if !cfg3.Adjacent(a, b) {
				t.Fatalf("3-ring pair (%d,%d) not adjacent", a, b)
			}
		}
	}
}

func TestTotalFUs(t *testing.T) {
	cfg := Clustered(4)
	total := cfg.TotalFUs()
	if total[LS] != 4 || total[ALU] != 4 || total[MUL] != 4 || total[COPY] != 4 {
		t.Fatalf("TotalFUs = %v", total)
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	bad := []Config{
		{Name: "empty"},
		{Name: "nofu", Clusters: []Cluster{{}}},
		{Name: "neg", Clusters: []Cluster{{FUs: [NumClasses]int{LS: -1, ALU: 2}}}},
		{Name: "negq", Clusters: []Cluster{{FUs: [NumClasses]int{ALU: 1}, PrivateQueues: -1}}},
		{Name: "negring", Clusters: []Cluster{{FUs: [NumClasses]int{ALU: 1}}}, RingQueues: -2},
		Clustered(MaxClusters + 1),
	}
	for _, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: accepted", cfg.Name)
		}
	}
}

func TestSingleClusterPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	SingleCluster(0)
}

func TestConfigString(t *testing.T) {
	cfg := Clustered(4)
	if cfg.String() == "" {
		t.Fatal("empty String()")
	}
}
