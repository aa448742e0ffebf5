package core

import (
	"fmt"
	"slices"

	"hpcbd/internal/cluster"
	"hpcbd/internal/exec"
	"hpcbd/internal/workload"
)

// newGraph builds the PageRank input for the options.
func newGraph(o Options) *workload.Graph {
	return workload.NewGraph(o.Seed, o.PRPhysVertices, o.PRLogicalVertices, o.PRAvgDegree)
}

// job is one independent simulation run, or a fault sweep's series of
// runs. size orders jobs by expected cost: the node count for PageRank,
// the element count for Fig 3's MPI and OpenSHMEM runs, 0 for its Spark
// runs, the storm size for an overload point; the other fault sweeps
// rank their kinds of job by measured cost.
type job struct {
	size int
	run  func()
}

// runLargestFirst runs the jobs concurrently on exec.ForEach, largest
// first, so the longest runs start while shorter ones remain to overlap
// them. Each job must write only its own result slot.
func runLargestFirst(jobs []job) {
	slices.SortStableFunc(jobs, func(a, b job) int { return b.size - a.size })
	exec.ForEach(len(jobs), func(i int) { jobs[i].run() })
}

// prSeries is one PageRank series: a name and how to run it on a cluster.
type prSeries struct {
	name string
	run  func(c *cluster.Cluster, g *workload.Graph, nodes int) PRResult
}

func sparkPR(o Options, name string, tuned, rdma bool) prSeries {
	return prSeries{name, func(c *cluster.Cluster, g *workload.Graph, nodes int) PRResult {
		return SparkPageRank(c, g, nodes, o.PRPPN, o.PRIters, tuned, rdma)
	}}
}

// pageRankFigure runs every series at every node count as its own job —
// own kernel and cluster, one shared read-only graph — and assembles the
// figure by index, so it is identical at any host parallelism. The ranks
// are each series' vectors at the last, largest, node count (what
// CheckFig6/7 compare with the serial oracle), plus the oracle's.
func pageRankFigure(o Options, fig Figure, series ...prSeries) (Figure, map[string][]float64) {
	g := newGraph(o)
	res := make([][]PRResult, len(series))
	var jobs []job
	for s := range series {
		res[s] = make([]PRResult, len(o.PRNodes))
		for i, nodes := range o.PRNodes {
			jobs = append(jobs, job{nodes, func() {
				res[s][i] = series[s].run(newCluster(o.Seed, nodes), g, nodes)
			}})
		}
	}
	runLargestFirst(jobs)
	ranks := map[string][]float64{"Serial": g.SerialPageRank(o.PRIters)}
	for s, sr := range series {
		fig.Series = append(fig.Series, Series{Name: sr.name})
		for i, r := range res[s] {
			fig.Series[s].Points = append(fig.Series[s].Points, Point{X: float64(o.PRNodes[i]), Y: r.Seconds, OK: r.Err == nil})
			ranks[sr.name] = r.Ranks
		}
	}
	return fig, ranks
}

// Fig6 reproduces the BigDataBench PageRank benchmark (Fig 6): execution
// time vs node count for MPI, tuned Spark, and tuned Spark with the RDMA
// shuffle plugin. The second return value carries the final ranks per
// series for cross-checking against the serial oracle.
func Fig6(o Options) (Figure, map[string][]float64) {
	mpiPR := prSeries{"MPI", func(c *cluster.Cluster, g *workload.Graph, nodes int) PRResult {
		return MPIPageRank(c, g, nodes*o.PRPPN, o.PRPPN, o.PRIters)
	}}
	return pageRankFigure(o, Figure{
		ID:     "fig6",
		Title:  fmt.Sprintf("BigDataBench PageRank, %d vertices (%d processes/node)", o.PRLogicalVertices, o.PRPPN),
		XLabel: "nodes",
		YLabel: "time (s)",
	}, mpiPR, sparkPR(o, "Spark", true, false), sparkPR(o, "Spark-RDMA", true, true))
}

// Fig7 reproduces the HiBench PageRank benchmark (Fig 7): the untuned,
// shuffle-heavy Spark variant with and without the RDMA shuffle engine.
func Fig7(o Options) (Figure, map[string][]float64) {
	return pageRankFigure(o, Figure{
		ID:     "fig7",
		Title:  fmt.Sprintf("HiBench PageRank, %d vertices (%d processes/node)", o.PRLogicalVertices, o.PRPPN),
		XLabel: "nodes",
		YLabel: "time (s)",
	}, sparkPR(o, "Spark", false, false), sparkPR(o, "Spark-RDMA", false, true))
}

// AblationPersist quantifies the paper's §VI-C claim that persisting
// intermediate RDDs improves PageRank "by a factor of 3": tuned vs
// untuned Spark at a fixed node count, run as two concurrent jobs.
func AblationPersist(o Options, nodes int) (tuned, untuned float64) {
	g := newGraph(o)
	var t, u PRResult
	runLargestFirst([]job{
		{nodes, func() { t = SparkPageRank(newCluster(o.Seed, nodes), g, nodes, o.PRPPN, o.PRIters, true, false) }},
		{nodes, func() { u = SparkPageRank(newCluster(o.Seed, nodes), g, nodes, o.PRPPN, o.PRIters, false, false) }},
	})
	return t.Seconds, u.Seconds
}
