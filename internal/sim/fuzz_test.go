package sim

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"vliwq/internal/corpus"
	"vliwq/internal/ir"
	"vliwq/internal/queue"
	"vliwq/internal/sched"
)

// fuzzLoops is the loop pool of FuzzPipelinedDifferential: the kernels
// plus a 64-loop generated slice.
var fuzzLoops = sync.OnceValue(func() []*ir.Loop {
	return slices.Concat(corpus.Kernels(), corpus.Generate(corpus.Params{Seed: 13, N: 64}))
})

// fuzzCompiled memoizes compileFor per (loop, configuration) across fuzz
// inputs; applyFault copies before it mutates, so entries stay valid.
var fuzzCompiled struct {
	sync.Mutex
	m map[[2]int]fuzzCompile
}

type fuzzCompile struct {
	s   *sched.Schedule
	a   *queue.Allocation
	err error
}

// FuzzPipelinedDifferential fuzzes the dense simulator and checks against
// their map-based oracles, as TestPipelinedDifferential does on fixed
// inputs. The input picks a loop from fuzzLoops, one of the differential
// configurations, and up to four faults, two bytes each (kind, target),
// applied in order. When both sides pass they must agree on Cycles,
// Issues, MaxDepth and Stores; when both fail, on the error class (and on
// the message wherever the oracle's is deterministic). Nightly fuzz.yml
// runs this target; crashers land in testdata/fuzz and are committed as
// regression seeds.
func FuzzPipelinedDifferential(f *testing.F) {
	f.Add(uint8(0), uint8(0), []byte{})
	f.Add(uint8(5), uint8(1), []byte{byte(faultDepth1), 0})
	f.Add(uint8(20), uint8(2), []byte{byte(faultSwapQueues), 3, byte(faultShiftOne), 7})
	f.Add(uint8(40), uint8(3), []byte{byte(faultSwapLocs), 1})
	f.Add(uint8(70), uint8(4), []byte{byte(faultMergeQueues), 2, byte(faultDepth2), 0})
	f.Add(uint8(3), uint8(1), []byte{byte(faultStretch), 0})
	f.Fuzz(func(t *testing.T, loopSel, cfgSel uint8, faults []byte) {
		loops, dcs := fuzzLoops(), diffConfigs()
		li, ci := int(loopSel)%len(loops), int(cfgSel)%len(dcs)
		fuzzCompiled.Lock()
		c, ok := fuzzCompiled.m[[2]int{li, ci}]
		if !ok {
			if fuzzCompiled.m == nil {
				fuzzCompiled.m = map[[2]int]fuzzCompile{}
			}
			c.s, c.a, c.err = compileFor(loops[li], dcs[ci])
			fuzzCompiled.m[[2]int{li, ci}] = c
		}
		fuzzCompiled.Unlock()
		if c.err != nil {
			return
		}
		s, a := c.s, c.a
		label := fmt.Sprintf("%s on %s", loops[li].Name, dcs[ci].name)
		for i := 0; i+1 < len(faults) && i < 8; i += 2 {
			fk := faultKind(faults[i]) % numFaults
			if fs, fa, ok := applyFault(s, a, fk, int(faults[i+1])); ok {
				s, a = fs, fa
				label += fmt.Sprintf(" +%v(%d)", fk, faults[i+1])
			}
		}
		diffRun(t, label, s, a, verifyIters(s), dcs[ci].multi)
	})
}
