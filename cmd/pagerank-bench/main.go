// Command pagerank-bench regenerates Fig 6 (BigDataBench PageRank: MPI vs
// tuned Spark vs Spark-RDMA) and Fig 7 (HiBench PageRank: untuned Spark vs
// Spark-RDMA), plus the persist ablation behind the paper's "factor of 3"
// claim.
package main

import (
	"flag"
	"fmt"
	"os"

	"hpcbd"
	"hpcbd/internal/exec"
	"hpcbd/internal/gctune"
	"hpcbd/internal/profiling"
)

func main() {
	quick := flag.Bool("quick", false, "run the scaled-down test configuration")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned text")
	plot := flag.Bool("plot", false, "also render an ASCII chart")
	impl := flag.String("impl", "both", "bigdatabench (Fig 6), hibench (Fig 7), or both")
	ablate := flag.Bool("ablate", false, "also run the persist ablation")
	pool := flag.Int("pool", 0, "host worker pool size for simulated-task payloads (0 = GOMAXPROCS); results are identical for every size")
	shards := flag.Int("shards", 1, "event-queue shards per kernel; results are identical for every count")
	profiling.Flags()
	flag.Parse()
	exec.SetDefaultSize(*pool)
	hpcbd.SetShards(*shards)
	gctune.Apply()
	profiling.Start()

	o := hpcbd.FullOptions()
	if *quick {
		o = hpcbd.QuickOptions()
	}
	fail := false
	emit := func(fig hpcbd.Figure, bad []string, note string) {
		if *csv {
			fmt.Print(fig.CSV())
		} else {
			fmt.Println(fig)
		}
		if *plot {
			fmt.Println(fig.Plot(60, 12))
		}
		if len(bad) > 0 {
			fmt.Fprintln(os.Stderr, "shape violations:")
			for _, b := range bad {
				fmt.Fprintln(os.Stderr, "  "+b)
			}
			fail = true
			return
		}
		fmt.Println("shape check: OK (" + note + ")")
	}
	if *impl == "bigdatabench" || *impl == "both" {
		fig, ranks := hpcbd.Fig6(o)
		emit(fig, hpcbd.CheckFig6(fig, ranks), "MPI fast and flat; Spark scales; RDMA marginal when tuned")
	}
	if *impl == "hibench" || *impl == "both" {
		fig, ranks := hpcbd.Fig7(o)
		emit(fig, hpcbd.CheckFig7(fig, ranks), "RDMA wins when shuffle-heavy")
	}
	if *ablate {
		nodes := o.PRNodes[len(o.PRNodes)-1]
		tuned, untuned := hpcbd.AblationPersist(o, nodes)
		fmt.Printf("persist ablation @%d nodes: tuned=%.2fs untuned=%.2fs speedup=%.2fx (paper: ~3x)\n",
			nodes, tuned, untuned, untuned/tuned)
	}
	profiling.Stop()
	if fail {
		os.Exit(1)
	}
}
