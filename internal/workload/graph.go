package workload

import "math"

// Graph is a deterministic directed graph with a heavy-tailed out-degree
// distribution, standing in for the BigDataBench/HiBench PageRank inputs
// (1,000,000 vertices in the paper). Like the text datasets it separates
// logical size (LogicalVertices, used by cost models) from physical size
// (NumVertices, the graph actually materialized), with the same average
// degree so per-vertex work scales faithfully.
type Graph struct {
	Seed            int64
	NumVertices     int
	LogicalVertices int64
	AvgDegree       float64

	// CSR adjacency
	offsets []int32
	targets []int32
}

// NewGraph builds the graph. Out-degrees follow a truncated Pareto-like
// distribution with the requested mean; edge targets are skewed toward
// low-numbered vertices, giving the power-law in-degree typical of web
// graphs.
func NewGraph(seed int64, vertices int, logicalVertices int64, avgDegree float64) *Graph {
	if vertices <= 0 || avgDegree <= 0 {
		panic("workload: vertices and avgDegree must be positive")
	}
	g := &Graph{
		Seed:            seed,
		NumVertices:     vertices,
		LogicalVertices: logicalVertices,
		AvgDegree:       avgDegree,
	}
	g.offsets = make([]int32, vertices+1)
	// Pareto with alpha=2 has mean 2*xm; choose xm so the mean matches.
	xm := avgDegree / 2
	var total int32
	degs := make([]int32, vertices)
	for v := 0; v < vertices; v++ {
		u := float64(hash3(seed, int64(v), 7)%(1<<53)) / float64(int64(1)<<53)
		if u < 1e-12 {
			u = 1e-12
		}
		d := int32(xm / math.Sqrt(u)) // Pareto(alpha=2) sample
		if d < 1 {
			d = 1
		}
		if max := int32(vertices - 1); d > max && max > 0 {
			d = max
		}
		if d > 4096 {
			d = 4096 // truncate the tail so one vertex cannot dominate
		}
		degs[v] = d
		total += d
	}
	g.targets = make([]int32, total)
	var off int32
	for v := 0; v < vertices; v++ {
		g.offsets[v] = off
		for k := int32(0); k < degs[v]; k++ {
			var t int32
			if k == 0 {
				// Every vertex's first edge targets its successor,
				// guaranteeing minimum in-degree 1: all vertices receive
				// contributions each PageRank iteration, so the classic
				// Spark formulation (which drops keys absent from the
				// contributions) agrees exactly with the serial oracle.
				t = int32((v + 1) % vertices)
			} else {
				// Quadratic skew toward low ids: power-law in-degree.
				u := float64(hash3(seed, int64(v), int64(k)+100)%(1<<53)) / float64(int64(1)<<53)
				t = int32(u * u * float64(vertices))
				if t >= int32(vertices) {
					t = int32(vertices) - 1
				}
			}
			if int(t) == v { // avoid self loops deterministically
				t = (t + 1) % int32(vertices)
			}
			g.targets[off] = t
			off++
		}
	}
	g.offsets[vertices] = off
	return g
}

// NumEdges returns the physical edge count.
func (g *Graph) NumEdges() int { return len(g.targets) }

// Scale returns logical/physical vertex ratio.
func (g *Graph) Scale() float64 {
	return float64(g.LogicalVertices) / float64(g.NumVertices)
}

// OutEdges returns vertex v's targets (shared backing array; do not
// mutate).
func (g *Graph) OutEdges(v int) []int32 {
	return g.targets[g.offsets[v]:g.offsets[v+1]]
}

// OutDegree returns the out-degree of v.
func (g *Graph) OutDegree(v int) int {
	return int(g.offsets[v+1] - g.offsets[v])
}

// PageRank damping factor used throughout (the paper's snippets use 0.15 +
// 0.85 * rank).
const Damping = 0.85

// SerialPageRank runs the reference power iteration and returns the final
// ranks — the oracle for every framework implementation. Dangling mass is
// ignored (contributions flow only along edges), matching the Spark
// snippet in the paper's Fig 5.
func (g *Graph) SerialPageRank(iters int) []float64 {
	n := g.NumVertices
	ranks := make([]float64, n)
	for i := range ranks {
		ranks[i] = 1.0
	}
	for it := 0; it < iters; it++ {
		contrib := make([]float64, n)
		for v := 0; v < n; v++ {
			out := g.OutEdges(v)
			if len(out) == 0 {
				continue
			}
			share := ranks[v] / float64(len(out))
			for _, t := range out {
				contrib[t] += share
			}
		}
		for v := 0; v < n; v++ {
			ranks[v] = (1 - Damping) + Damping*contrib[v]
		}
	}
	return ranks
}
