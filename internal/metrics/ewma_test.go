package metrics

import (
	"math"
	"sync"
	"testing"
)

func TestEWMASeedAndDecay(t *testing.T) {
	e := NewEWMA(0.5)
	if v := e.Value(); v != 0 {
		t.Fatalf("empty EWMA value %v, want 0", v)
	}
	if v := e.Observe(100); v != 100 {
		t.Fatalf("first sample seeds the average: got %v, want 100", v)
	}
	if v := e.Observe(0); v != 50 {
		t.Fatalf("alpha 0.5 after 100 then 0: got %v, want 50", v)
	}
	if v := e.Observe(0); v != 25 {
		t.Fatalf("decay continues: got %v, want 25", v)
	}
	if e.n != 3 {
		t.Fatalf("count %d, want 3", e.n)
	}
}

func TestEWMAClampsBadAlpha(t *testing.T) {
	for _, alpha := range []float64{0, -1, 1.5, math.NaN()} {
		e := NewEWMA(alpha)
		e.Observe(10)
		e.Observe(20)
		v := e.Value()
		if v <= 10 || v >= 20 {
			t.Fatalf("alpha %v: value %v outside (10, 20) — clamp failed", alpha, v)
		}
	}
}

func TestEWMAConvergesToConstant(t *testing.T) {
	e := NewEWMA(0.2)
	for i := 0; i < 200; i++ {
		e.Observe(42)
	}
	if v := e.Value(); math.Abs(v-42) > 1e-9 {
		t.Fatalf("constant stream: value %v, want 42", v)
	}
}

func TestWindowQuantile(t *testing.T) {
	w := NewWindow(100)
	if q := w.Quantile(0.99); q != 0 {
		t.Fatalf("empty window quantile %v, want 0", q)
	}
	for i := 1; i <= 100; i++ {
		w.Add(float64(i))
	}
	if w.n != 100 {
		t.Fatalf("len %d, want 100", w.n)
	}
	if q := w.Quantile(0); q != 1 {
		t.Fatalf("q0 = %v, want 1", q)
	}
	if q := w.Quantile(1); q != 100 {
		t.Fatalf("q1 = %v, want 100", q)
	}
	if q := w.Quantile(0.5); q != 50 {
		t.Fatalf("median = %v, want 50", q)
	}
	// Out-of-range quantiles clamp instead of panicking.
	if q := w.Quantile(1.5); q != 100 {
		t.Fatalf("q1.5 = %v, want 100", q)
	}
	if q := w.Quantile(-1); q != 1 {
		t.Fatalf("q-1 = %v, want 1", q)
	}
}

func TestWindowEvictsOldest(t *testing.T) {
	w := NewWindow(4)
	for i := 1; i <= 8; i++ {
		w.Add(float64(i))
	}
	// Only 5..8 remain: the minimum visible sample must be 5.
	if q := w.Quantile(0); q != 5 {
		t.Fatalf("after wraparound min = %v, want 5", q)
	}
	if w.n != 4 {
		t.Fatalf("len %d, want 4", w.n)
	}
}

func TestWindowMinimumSize(t *testing.T) {
	w := NewWindow(0)
	w.Add(3)
	if q := w.Quantile(0.5); q != 3 {
		t.Fatalf("tiny window quantile %v, want 3", q)
	}
}

func TestEWMAAndWindowConcurrent(t *testing.T) {
	e := NewEWMA(0.1)
	w := NewWindow(64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				e.Observe(float64(i % 7))
				w.Add(float64(i % 7))
				_ = w.Quantile(0.99)
				_ = e.Value()
			}
		}()
	}
	wg.Wait()
	if e.n != 8000 {
		t.Fatalf("count %d, want 8000", e.n)
	}
	if q := w.Quantile(1); q > 6 {
		t.Fatalf("max %v exceeds the largest sample 6", q)
	}
}
