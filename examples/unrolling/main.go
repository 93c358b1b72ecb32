// Loop unrolling and the II-speedup metric (paper §3, Fig. 4).
//
// A resource-bound stencil is compiled at unroll factors 1..6 on a 6-FU
// machine. Its 5 memory operations leave one of the two L/S units idle
// every other cycle at factor 1 (ceil(5/2) = 3 cycles); unrolling packs
// the fractional slack (x2: ceil(10/2)/2 = 2.5 cycles per original
// iteration), exactly the effect Fig. 4 measures with Equation (1). A
// recurrence-bound loop (horner) is shown for contrast: unrolling cannot
// help it, because a circuit's latency-to-distance ratio is invariant.
//
// The sweep runs through a vliwq.Compiler session, and the staged API
// (RunUntil) is used to inspect the unrolled body without scheduling it.
//
// Run with: go run ./examples/unrolling
package main

import (
	"context"
	"fmt"
	"log"

	"vliwq"
	"vliwq/internal/corpus"
	"vliwq/internal/metrics"
	"vliwq/internal/unroll"
)

func main() {
	machine := vliwq.SingleCluster(6)
	spec := machine.Spec()
	compiler := vliwq.NewCompiler(vliwq.CompilerConfig{})
	ctx := context.Background()

	sweep := func(name string) {
		loop := corpus.KernelByName(name)
		if loop == nil {
			log.Fatalf("kernel %s missing", name)
		}
		src := vliwq.FormatLoop(loop)
		base, err := compiler.Run(ctx, vliwq.Request{Loop: src, Machine: spec})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s on %s: base II=%d (ResMII=%d RecMII=%d)\n",
			name, machine.Name, base.II, base.Sched.ResMII, base.Sched.RecMII)
		for factor := 2; factor <= 6; factor++ {
			res, err := compiler.Run(ctx, vliwq.Request{Loop: src, Machine: spec, UnrollFactor: factor})
			if err != nil {
				log.Fatal(err)
			}
			speedup := metrics.IISpeedup(base.II, factor, res.II)
			fmt.Printf("  x%d: II=%2d  II/iter=%.2f  speedup=%.2f  queues=%d\n",
				factor, res.II, float64(res.II)/float64(factor), speedup, res.Queues)
		}
		auto := unroll.AutoFactor(loop, machine)
		fmt.Printf("  auto-selected factor: %d\n", auto)

		// The staged API stops the pipeline after unrolling: the partial
		// Result carries the replicated body but no schedule yet.
		partial, err := compiler.RunUntil(ctx,
			vliwq.Request{Loop: src, Machine: spec, Unroll: true}, vliwq.StageUnroll)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  after the %s stage at the auto factor: x%d, %d ops (not yet scheduled: %v)\n\n",
			vliwq.StageUnroll, partial.Unrolled, len(partial.AfterUnroll.Ops), partial.Sched == nil)
	}

	sweep("stencil3") // resource-bound, fractional L/S slack: unrolling pays
	sweep("horner")   // recurrence-bound: unrolling cannot beat RecMII
}
