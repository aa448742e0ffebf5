// Command reduce-bench regenerates Fig 3: the OSU-style reduce
// microbenchmark across MPI, Spark and Spark-RDMA (optionally OpenSHMEM),
// and verifies the paper's qualitative findings.
package main

import (
	"flag"
	"fmt"
	"os"

	"hpcbd/internal/core"
)

func main() {
	quick := flag.Bool("quick", false, "run the scaled-down test configuration")
	shmem := flag.Bool("shmem", false, "add the OpenSHMEM series (extension)")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned text")
	plot := flag.Bool("plot", false, "also render an ASCII chart")
	nodes := flag.Int("nodes", 0, "override node count")
	ppn := flag.Int("ppn", 0, "override processes per node")
	flag.Parse()

	o := core.Full()
	if *quick {
		o = core.Quick()
	}
	if *nodes > 0 {
		o.ReduceNodes = *nodes
	}
	if *ppn > 0 {
		o.ReducePPN = *ppn
	}

	var fig core.Figure
	if *shmem {
		fig = core.Fig3Extended(o)
	} else {
		fig = core.Fig3(o)
	}
	if *csv {
		fmt.Print(fig.CSV())
	} else {
		fmt.Println(fig)
	}
	if *plot {
		fmt.Println(fig.Plot(60, 14))
	}
	if bad := core.CheckFig3(fig); len(bad) > 0 {
		fmt.Fprintln(os.Stderr, "shape violations:")
		for _, b := range bad {
			fmt.Fprintln(os.Stderr, "  "+b)
		}
		os.Exit(1)
	}
	fmt.Println("shape check: OK (MPI << Spark at all sizes; RDMA plugin marginal)")
}
