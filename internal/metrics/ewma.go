package metrics

import (
	"math"
	"sort"
	"sync"
)

// EWMA is a thread-safe exponentially weighted moving average. The serving
// layer uses it as the latency signal behind SLO-aware degradation: one
// number that tracks the recent compile latency while forgetting ancient
// history at a rate set by alpha.
type EWMA struct {
	mu    sync.Mutex
	alpha float64
	val   float64
	n     int64
}

// NewEWMA returns an EWMA with smoothing factor alpha in (0, 1]: each
// observation contributes alpha of the new value and keeps (1-alpha) of the
// old. Out-of-range alphas are clamped to 0.2 (roughly a 5-sample memory).
func NewEWMA(alpha float64) *EWMA {
	if alpha <= 0 || alpha > 1 || math.IsNaN(alpha) {
		alpha = 0.2
	}
	return &EWMA{alpha: alpha}
}

// Observe folds one sample in and returns the updated average. The first
// sample seeds the average directly, so the estimate is meaningful from the
// start instead of climbing up from zero.
func (e *EWMA) Observe(x float64) float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.n == 0 {
		e.val = x
	} else {
		e.val = e.alpha*x + (1-e.alpha)*e.val
	}
	e.n++
	return e.val
}

// Value returns the current average (0 before any observation).
func (e *EWMA) Value() float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.val
}

// Window is a thread-safe sliding window over the most recent N samples,
// answering order statistics. The gateway feeds it per-request latencies
// and reads Quantile(0.99) to derive its hedging delay — a tail estimate
// that adapts to the workload instead of a hardcoded timer.
type Window struct {
	mu  sync.Mutex
	buf []float64
	i   int // next write position
	n   int // filled count, <= len(buf)
}

// NewWindow returns a window over the last size samples (minimum 2).
func NewWindow(size int) *Window {
	if size < 2 {
		size = 2
	}
	return &Window{buf: make([]float64, size)}
}

// Add records one sample, evicting the oldest once the window is full.
func (w *Window) Add(x float64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf[w.i] = x
	w.i = (w.i + 1) % len(w.buf)
	if w.n < len(w.buf) {
		w.n++
	}
}

// Quantile returns the q-quantile (q in [0, 1], nearest-rank) of the held
// samples, or 0 when the window is empty.
func (w *Window) Quantile(q float64) float64 {
	w.mu.Lock()
	if w.n == 0 {
		w.mu.Unlock()
		return 0
	}
	tmp := make([]float64, w.n)
	copy(tmp, w.buf[:w.n])
	w.mu.Unlock()
	sort.Float64s(tmp)
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	return tmp[int(q*float64(len(tmp)-1))]
}
