// Command vliwgen inspects and exports the loop workloads: the synthetic
// corpus that stands in for the paper's 1258 Perfect Club loops
// (DESIGN.md §4), the named corpus presets, and RISC instruction traces
// lifted through internal/frontend (DESIGN.md §15).
//
// Usage:
//
//	vliwgen -stats                        # distribution summary of the corpus
//	vliwgen -dump 3                       # print loop #3 in the text format
//	vliwgen -n 50 -seed 9 -stats          # alternative corpus
//	vliwgen -preset traced -stats         # a named preset instead of -n/-seed
//	vliwgen -from-trace f.trace           # lift a trace, print its regions
//	vliwgen -from-trace f.trace -dump 2   # print region #2's lifted loop
//	vliwgen -from-trace f.trace -batch    # emit a /batch request body (JSON)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"vliwq"
	"vliwq/internal/corpus"
	"vliwq/internal/frontend"
	"vliwq/internal/ir"
	"vliwq/internal/machine"
	"vliwq/internal/program"
	"vliwq/internal/sched"
	"vliwq/internal/service"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("vliwgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		n           = fs.Int("n", corpus.PaperCorpusSize, "corpus size")
		seed        = fs.Int64("seed", corpus.DefaultSeed, "corpus seed")
		preset      = fs.String("preset", "", "use a named corpus preset instead of -n/-seed: "+presetList())
		stats       = fs.Bool("stats", false, "print corpus distribution statistics")
		dump        = fs.Int("dump", -1, "print loop (or trace region) #i in the text format")
		fromTrace   = fs.String("from-trace", "", "lift a RISC instruction trace file instead of generating a corpus")
		batch       = fs.Bool("batch", false, "with -from-trace: emit the program's compile requests as a /batch JSON body")
		machineSpec = fs.String("machine", program.DefaultMachine, "with -from-trace: target machine for region classification")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *fromTrace != "" {
		return runTrace(*fromTrace, *machineSpec, *batch, *dump, stdout, stderr)
	}

	var loops []*ir.Loop
	if *preset != "" {
		var err error
		loops, err = corpus.Preset(*preset)
		if err != nil {
			fmt.Fprintf(stderr, "vliwgen: %v\n", err)
			return 2
		}
	} else {
		if *n <= 0 {
			fmt.Fprintf(stderr, "vliwgen: -n must be a positive corpus size (got %d)\n", *n)
			return 2
		}
		loops = corpus.Generate(corpus.Params{Seed: *seed, N: *n})
	}

	switch {
	case *dump >= 0:
		if *dump >= len(loops) {
			fmt.Fprintf(stderr, "vliwgen: loop %d out of range (corpus has %d)\n", *dump, len(loops))
			return 1
		}
		if err := ir.Format(stdout, loops[*dump]); err != nil {
			fmt.Fprintln(stderr, "vliwgen:", err)
			return 1
		}
	case *stats:
		printStats(stdout, loops)
	default:
		fs.Usage()
		return 2
	}
	return 0
}

// runTrace serves the -from-trace modes: lift the trace, then either dump
// one region's loop, emit the whole program as a /batch request body, or
// print the recovered region summary.
func runTrace(path, machineSpec string, batch bool, dump int, stdout, stderr io.Writer) int {
	fail := func(err error) int {
		fmt.Fprintln(stderr, "vliwgen:", err)
		return 1
	}
	f, err := os.Open(path)
	if err != nil {
		return fail(err)
	}
	defer f.Close()
	p, err := frontend.Parse(f)
	if err != nil {
		return fail(err)
	}

	switch {
	case dump >= 0:
		if dump >= len(p.Regions) {
			return fail(fmt.Errorf("region %d out of range (trace has %d regions)", dump, len(p.Regions)))
		}
		if err := ir.Format(stdout, p.Regions[dump].Loop); err != nil {
			return fail(err)
		}
	case batch:
		reqs, err := program.Requests(p, program.Options{Machine: machineSpec})
		if err != nil {
			return fail(err)
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(service.BatchRequest{Requests: reqs}); err != nil {
			return fail(err)
		}
	default:
		m, err := vliwq.ParseMachine(machineSpec)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "program %s: %d regions, %d glue instructions (machine %s)\n",
			p.Name, len(p.Regions), len(p.Glue()), m.Spec())
		for i, r := range p.Regions {
			class := "trivial"
			if program.Hard(r.Loop, m) {
				class = "hard"
			}
			fmt.Fprintf(stdout, "  region %d %-8s trip %-5d %2d ops, %2d deps (%d discharged), %s\n",
				i, r.Label, r.Trip, len(r.Loop.Ops), len(r.Deps), r.Discharged, class)
		}
	}
	return 0
}

func presetList() string {
	names := corpus.PresetNames()
	out := ""
	for i, n := range names {
		if i > 0 {
			out += ", "
		}
		out += n
	}
	return out
}

func printStats(w io.Writer, loops []*ir.Loop) {
	var sizes []int
	var ops, mem, alu, muldiv, fanned int
	recBound := 0
	cfg := machine.SingleCluster(18)
	for _, l := range loops {
		sizes = append(sizes, len(l.Ops))
		for _, op := range l.Ops {
			ops++
			switch op.Kind {
			case ir.KLoad, ir.KStore:
				mem++
			case ir.KAdd:
				alu++
			case ir.KMul, ir.KDiv:
				muldiv++
			}
		}
		if l.MaxFanout() > 1 {
			fanned++
		}
		res, err := sched.ResMII(l, cfg)
		if err == nil && sched.RecMII(l) > res {
			recBound++
		}
	}
	sort.Ints(sizes)
	pick := func(q float64) int { return sizes[int(q*float64(len(sizes)-1))] }
	fmt.Fprintf(w, "loops:            %d\n", len(loops))
	fmt.Fprintf(w, "ops total:        %d (mean %.1f per loop)\n", ops, float64(ops)/float64(len(loops)))
	fmt.Fprintf(w, "size p10/50/90:   %d / %d / %d (max %d)\n", pick(.1), pick(.5), pick(.9), sizes[len(sizes)-1])
	fmt.Fprintf(w, "op mix:           %.0f%% mem, %.0f%% alu, %.0f%% mul+div\n",
		100*float64(mem)/float64(ops), 100*float64(alu)/float64(ops), 100*float64(muldiv)/float64(ops))
	fmt.Fprintf(w, "multi-consumer:   %.0f%% of loops have a value with fanout > 1\n",
		100*float64(fanned)/float64(len(loops)))
	fmt.Fprintf(w, "recurrence-bound: %.0f%% of loops (RecMII > ResMII at 18 FUs)\n",
		100*float64(recBound)/float64(len(loops)))
}
