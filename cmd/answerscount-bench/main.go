// Command answerscount-bench regenerates Fig 4: the StackExchange
// AnswersCount benchmark across OpenMP, MPI, Spark and Hadoop, verifying
// the paper's qualitative findings (including the MPI 2 GiB-chunk floor).
package main

import (
	"flag"
	"fmt"
	"os"

	"hpcbd/internal/core"
	"hpcbd/internal/exec"
	"hpcbd/internal/gctune"
	"hpcbd/internal/profiling"
)

func main() {
	quick := flag.Bool("quick", false, "run the scaled-down test configuration")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned text")
	gb := flag.Float64("gb", 0, "override dataset size in decimal GB")
	pool := flag.Int("pool", 0, "host worker pool size for simulated-task payloads (0 = GOMAXPROCS); results are identical for every size")
	scale := flag.Bool("scale", false, "also run the production-scale sweep (1,000+ nodes, MPI)")
	scaleNodes := flag.Int("scale-max", 4000, "largest node count of the -scale sweep (doubling from 1000; at least 1000)")
	shards := flag.Int("shards", 0, "event-queue shards per -scale point (0 = one per 8 racks); -scale only, results are identical for every count")
	workers := flag.Int("workers", 0, "parallel dispatch workers per -scale point (0 = serial; needs several shards to engage); -scale only, results are identical for every count")
	profiling.Flags()
	flag.Parse()
	if *scale && *scaleNodes < 1000 {
		fmt.Fprintf(os.Stderr, "-scale-max %d is below the sweep's first point (1000 nodes)\n", *scaleNodes)
		os.Exit(2)
	}
	exec.SetDefaultSize(*pool)
	gctune.Apply()
	profiling.Start()

	o := core.Full()
	if *quick {
		o = core.Quick()
	}
	if *gb > 0 {
		o.ACBytes = int64(*gb * 1e9)
	}
	fig, results := core.Fig4(o)
	if *csv {
		fmt.Print(fig.CSV())
	} else {
		fmt.Println(fig)
	}
	avg := results["Serial"].Average()
	fmt.Printf("average answers per question: %.3f (all frameworks agree with the serial oracle)\n", avg)
	if bad := core.CheckFig4(fig, results, o.ACBytes); len(bad) > 0 {
		fmt.Fprintln(os.Stderr, "shape violations:")
		for _, b := range bad {
			fmt.Fprintln(os.Stderr, "  "+b)
		}
		profiling.Stop()
		os.Exit(1)
	}
	fmt.Println("shape check: OK (Hadoop > Spark; MPI needs >=40 procs at 80 GB; OpenMP single-node)")

	if *scale {
		cfg := core.DefaultScaleConfig()
		cfg.NodeCounts = nil
		for n := 1000; n <= *scaleNodes; n *= 2 {
			cfg.NodeCounts = append(cfg.NodeCounts, n)
		}
		cfg.Shards, cfg.Workers = *shards, *workers
		pts := core.ScaleSweep(o, cfg)
		fmt.Println(core.ScaleTable(pts))
		for _, p := range pts {
			if !p.OK {
				fmt.Fprintf(os.Stderr, "scale sweep: %d-node point disagrees with the serial oracle\n", p.Nodes)
				profiling.Stop()
				os.Exit(1)
			}
		}
	}
	profiling.Stop()
}
