// PageRank: the paper's Figs 6/7 workload at demo scale — MPI, tuned
// (BigDataBench) Spark, and untuned (HiBench) Spark with and without the
// RDMA shuffle plugin, all verified against the serial power iteration.
//
//	go run ./examples/pagerank
package main

import (
	"fmt"
	"math"

	"hpcbd/internal/cluster"
	"hpcbd/internal/core"
	"hpcbd/internal/sim"
	"hpcbd/internal/workload"
)

func main() {
	const (
		nodes = 4
		ppn   = 16
		iters = 5
	)
	o := core.Quick()
	g := workload.NewGraph(o.Seed, 4000, 1_000_000, 8)
	serial := g.SerialPageRank(iters)

	agree := func(ranks []float64) string {
		if ranks == nil {
			return "no result"
		}
		for v := range serial {
			if math.Abs(ranks[v]-serial[v]) > 1e-6*(1+serial[v]) {
				return fmt.Sprintf("MISMATCH at vertex %d", v)
			}
		}
		return "matches serial oracle"
	}

	fmt.Printf("PageRank: %d logical vertices (%d physical), %d iterations, %d nodes x %d procs\n\n",
		g.LogicalVertices, g.NumVertices, iters, nodes, ppn)

	mpiRes := core.MPIPageRank(cluster.Comet(sim.NewKernel(o.Seed), nodes), g, nodes*ppn, ppn, iters)
	fmt.Printf("  %-34s %8.3fs  %s\n", "MPI (alltoallv exchange)", mpiRes.Seconds, agree(mpiRes.Ranks))

	tuned := core.SparkPageRank(cluster.Comet(sim.NewKernel(o.Seed), nodes), g, nodes, ppn, iters, true, false)
	fmt.Printf("  %-34s %8.3fs  %s\n", "Spark tuned (partition+persist)", tuned.Seconds, agree(tuned.Ranks))

	tunedRDMA := core.SparkPageRank(cluster.Comet(sim.NewKernel(o.Seed), nodes), g, nodes, ppn, iters, true, true)
	fmt.Printf("  %-34s %8.3fs  %s\n", "Spark tuned + RDMA shuffle", tunedRDMA.Seconds, agree(tunedRDMA.Ranks))

	untuned := core.SparkPageRank(cluster.Comet(sim.NewKernel(o.Seed), nodes), g, nodes, ppn, iters, false, false)
	fmt.Printf("  %-34s %8.3fs  %s\n", "Spark untuned (HiBench style)", untuned.Seconds, agree(untuned.Ranks))

	untunedRDMA := core.SparkPageRank(cluster.Comet(sim.NewKernel(o.Seed), nodes), g, nodes, ppn, iters, false, true)
	fmt.Printf("  %-34s %8.3fs  %s\n", "Spark untuned + RDMA shuffle", untunedRDMA.Seconds, agree(untunedRDMA.Ranks))

	fmt.Printf("\npersist speedup: %.2fx (paper §VI-C: \"a factor of 3\")\n", untuned.Seconds/tuned.Seconds)
	fmt.Printf("RDMA gain, tuned:   %.1f%%  (paper: insignificant)\n",
		100*(tuned.Seconds-tunedRDMA.Seconds)/tuned.Seconds)
	fmt.Printf("RDMA gain, untuned: %.1f%%  (paper: grows with shuffle volume)\n",
		100*(untuned.Seconds-untunedRDMA.Seconds)/untuned.Seconds)
}
