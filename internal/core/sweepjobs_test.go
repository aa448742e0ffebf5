package core

import (
	"testing"

	"hpcbd/internal/cluster"
	"hpcbd/internal/dfs"
	"hpcbd/internal/workload"
)

// TestSweepBaselinesMatchFigures pins the fault sweeps' shared job
// runners to the paper implementations Table III keeps separate: at
// Quick scale and fault-free, every sweep's Spark and Hadoop AnswersCount
// run takes exactly the virtual time of the Fig 4 implementation, the
// chaos sweep's Spark PageRank that of the tuned Fig 6 implementation,
// and every caller of the plain and of the resilient MPI loop agrees
// with every other.
func TestSweepBaselinesMatchFigures(t *testing.T) {
	o := Quick()
	nodes := sweepNodes(o, 4)
	d := workload.NewStackExchange(o.Seed, o.ACBytes, o.ACRecordBytes, o.ACStride)
	want := d.SerialAnswersCount()
	dfsCluster := func() (*cluster.Cluster, *dfs.DFS) {
		c := newCluster(o.Seed, nodes)
		return c, dfs.New(c, cluster.IPoIB(), dfs.DefaultConfig())
	}

	type run struct {
		name string
		secs float64
		ok   bool
	}
	agree := func(job string, ref run, others ...run) {
		t.Helper()
		if !ref.ok || ref.secs <= 0 {
			t.Errorf("%s: reference %s did not complete (%v s)", job, ref.name, ref.secs)
		}
		for _, r := range others {
			if !r.ok || r.secs != ref.secs {
				t.Errorf("%s: %s took %v s (completed %v), %s took %v s",
					job, r.name, r.secs, r.ok, ref.name, ref.secs)
			}
		}
	}

	c, fs := dfsCluster()
	spark := SparkAnswersCount(c, fs, acFile, d, nodes, o.ACPPN, false)
	chaosAC := sparkACChaos(o, nodes, 0, 0, nil)
	netAC := sparkACTransport(o, nodes, netSpec{})
	agree("spark answerscount", run{"SparkAnswersCount", spark.Seconds, spark.Err == nil && spark.AnswersCountResult == want},
		run{"chaos", chaosAC.Seconds, chaosAC.Completed},
		run{"transport", netAC.Seconds, netAC.Completed})

	c, fs = dfsCluster()
	hadoop := HadoopAnswersCount(c, fs, acFile, d, o.ACPPN)
	netMR := hadoopACTransport(o, nodes, netSpec{})
	agree("hadoop answerscount", run{"HadoopAnswersCount", hadoop.Seconds, hadoop.AnswersCountResult == want},
		run{"transport", netMR.Seconds, netMR.Completed})

	g := workload.NewGraph(o.Seed, o.PRPhysVertices, o.PRLogicalVertices, o.PRAvgDegree)
	pr := SparkPageRank(newCluster(o.Seed, nodes), g, nodes, o.PRPPN, o.PRIters, true, false)
	chaosPR := sparkPRChaos(o, nodes, 0, 0, nil)
	agree("spark pagerank", run{"SparkPageRank", pr.Seconds, pr.Err == nil},
		run{"chaos", chaosPR.Seconds, chaosPR.Completed})

	netPlain := mpiTransportPoint(o, nodes, netSpec{}, false, 0)
	master := mpiPlainMaster(o, nodes, 0, 0)
	part := mpiPlainPartition(o, nodes, partSpec{})
	agree("plain mpi loop", run{"transport", netPlain.Seconds, netPlain.Completed},
		run{"master", master.Seconds, master.Completed},
		run{"partition", part.Seconds, part.Completed})

	netResil := mpiTransportPoint(o, nodes, netSpec{}, true, 0)
	chaosResil := mpiPRChaos(o, nodes, 8*o.PRIters, o.PRIters, 0, nil, chaosRestartPen(0))
	agree("resilient mpi loop", run{"transport", netResil.Seconds, netResil.Completed},
		run{"chaos", chaosResil.Seconds, chaosResil.Completed})
}
