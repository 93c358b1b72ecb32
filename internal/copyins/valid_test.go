package copyins

import (
	"testing"

	"vliwq/internal/corpus"
	"vliwq/internal/ir"
	"vliwq/internal/unroll"
)

// TestPassesKeepLoopsValid is the property the compile path relies on to
// validate each loop once, at the engine's entry: unrolling a valid loop
// (factors 2-8) and inserting copies into a valid loop (every shape, raw
// and unrolled) yield valid loops, over every corpus.
func TestPassesKeepLoopsValid(t *testing.T) {
	for _, set := range []struct {
		name  string
		loops []*ir.Loop
	}{
		{"kernels", corpus.Kernels()},
		{"standard", corpus.Standard()},
		{"stressed", corpus.Stressed()},
		{"traced", corpus.Traced()},
	} {
		name := set.name
		for _, l := range set.loops {
			if err := l.Validate(); err != nil {
				t.Fatalf("%s/%s: corpus loop invalid: %v", name, l.Name, err)
			}
			inputs := []*ir.Loop{l}
			for factor := 2; factor <= 8; factor++ {
				u, err := unroll.Unroll(l, factor)
				if err != nil {
					t.Fatalf("%s/%s: Unroll(%d): %v", name, l.Name, factor, err)
				}
				if err := u.Validate(); err != nil {
					t.Fatalf("%s/%s: Unroll(%d) output invalid: %v", name, l.Name, factor, err)
				}
				inputs = append(inputs, u)
			}
			for _, in := range inputs {
				for _, shape := range []Shape{Tree, Chain, None} {
					res := Insert(in, shape)
					if err := res.Loop.Validate(); err != nil {
						t.Fatalf("%s/%s: Insert(%v) output invalid: %v", name, in.Name, shape, err)
					}
				}
			}
		}
	}
}
