// Copy-operation walk-through on a multi-consumer kernel.
//
// The complex vector product consumes each loaded value twice
// (ar*br - ai*bi and ar*bi + ai*br). Under a queue register file a read
// destroys the value, so each of those values would need two simultaneous
// queue writes — the problem the paper's §2 solves with copy operations
// executed on a dedicated copy FU (Fig. 2). This example shows the
// dependence graph before and after copy insertion, and compares the cost
// of the balanced-tree and chain fanout shapes.
//
// Run with: go run ./examples/daxpy
package main

import (
	"fmt"
	"log"

	"vliwq"
	"vliwq/internal/copyins"
	"vliwq/internal/corpus"
	"vliwq/internal/ir"
)

func main() {
	loop := corpus.ComplexMul()
	fmt.Printf("kernel %s: %d ops, max fanout %d\n\n", loop.Name, len(loop.Ops), loop.MaxFanout())

	// What copy insertion does to the graph.
	ins := copyins.Insert(loop, copyins.Tree)
	fmt.Printf("copy insertion: %d values fanned out through %d copies\n",
		ins.ValuesFanned, ins.CopiesAdded)
	for _, op := range ins.Loop.Ops {
		if op.Kind == ir.KCopy {
			outs := ins.Loop.FlowOutputs(op)
			fmt.Printf("  %v feeds %d consumers\n", op, len(outs))
		}
	}

	// Compile with both fanout shapes and compare.
	fmt.Println()
	for _, shape := range []copyins.Shape{copyins.Tree, copyins.Chain} {
		res, err := vliwq.Compile(loop, vliwq.Options{
			Machine:   vliwq.SingleCluster(6),
			CopyShape: shape,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("shape=%-5v II=%d stages=%d queues=%d IPC=%.2f\n",
			shape, res.II, res.StageCount, res.Queues, res.IPCStatic)
	}

	fmt.Println("\nwithout copies this loop cannot run on a QRF machine:")
	fmt.Println("  each doubly-consumed value would need two simultaneous queue writes")
	fmt.Println("  (the simulator rejects it before the run; see sim.Pipelined)")

	// Fanout 2 barely distinguishes the shapes; a value consumed eight
	// times does: the chain puts seven copies in series on the critical
	// path, the balanced tree only 1 + ceil(log2 4) = 3.
	wide := ir.New("broadcast8")
	v := wide.AddOp(ir.KLoad, "v")
	for i := 0; i < 8; i++ {
		st := wide.AddOp(ir.KStore, fmt.Sprintf("st%d", i))
		wide.AddFlow(v, st)
	}
	fmt.Printf("\nbroadcast kernel (%s, fanout %d):\n", wide.Name, wide.MaxFanout())
	for _, shape := range []copyins.Shape{copyins.Tree, copyins.Chain} {
		res, err := vliwq.Compile(wide, vliwq.Options{
			Machine:   vliwq.SingleCluster(12),
			CopyShape: shape,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("shape=%-5v II=%d schedule length=%d stages=%d\n",
			shape, res.II, res.Sched.Length(), res.StageCount)
	}
}
