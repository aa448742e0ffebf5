package hpcbd

// One benchmark per table and figure of the paper's evaluation section,
// plus the ablations supporting its Discussion (§VI). Each benchmark
// regenerates the artifact at paper scale (Full options; pass -short for
// the reduced configuration), prints the same rows/series the paper
// reports, verifies the qualitative shape, and reports the headline
// virtual-time measurement as a custom metric.
//
//	go test -bench=. -benchmem
//
// regenerates everything; see EXPERIMENTS.md for paper-vs-measured notes.

import (
	"fmt"
	"sync"
	"testing"

	"hpcbd/internal/core"
	"hpcbd/internal/sim"
)

var printOnce sync.Map

// reportHostPerf attaches host-side performance metrics to a benchmark:
// simulator throughput (kernel events retired per wall-clock second) and
// allocation counts. startEvents is sim.TotalEvents() sampled before the
// benchmark loop.
func reportHostPerf(b *testing.B, startEvents int64) {
	b.ReportAllocs()
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(sim.TotalEvents()-startEvents)/s, "sim-events/sec")
	}
}

// emit prints an artifact once per benchmark name, keeping -bench output
// readable across b.N calibration runs.
func emit(name string, artifact fmt.Stringer, violations []string) {
	if _, loaded := printOnce.LoadOrStore(name, true); loaded {
		return
	}
	fmt.Printf("\n%v", artifact)
	if len(violations) == 0 {
		fmt.Println("shape check: OK")
	} else {
		fmt.Println("shape check VIOLATIONS:")
		for _, v := range violations {
			fmt.Println("  " + v)
		}
	}
}

func benchOptions() core.Options {
	if testing.Short() {
		return core.Quick()
	}
	return core.Full()
}

func BenchmarkTable1Platform(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := core.Table1()
		emit("table1", t, nil)
	}
}

func BenchmarkFig3Reduce(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		fig := core.Fig3(o)
		emit("fig3", fig, core.CheckFig3(fig))
		if mpiS, ok := fig.Get("MPI"); ok && len(mpiS.Points) > 0 {
			b.ReportMetric(mpiS.Points[len(mpiS.Points)-1].Y*1e6, "mpi-1MiB-us")
		}
		if spark, ok := fig.Get("Spark"); ok && len(spark.Points) > 0 {
			b.ReportMetric(spark.Points[len(spark.Points)-1].Y*1e3, "spark-1MiB-ms")
		}
	}
}

func BenchmarkFig3ReduceWithSHMEM(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		fig := core.Fig3Extended(o)
		emit("fig3x", fig, core.CheckFig3(fig))
	}
}

func BenchmarkTable2FileRead(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		t := core.Table2(o)
		vals := core.Table2Values(o)
		emit("table2", t, core.CheckTable2(vals))
		last := vals[len(vals)-1]
		b.ReportMetric(last[0], "hdfs-simsec")
		b.ReportMetric(last[1], "local-simsec")
		b.ReportMetric(last[2], "mpi-simsec")
	}
}

func BenchmarkFig4AnswersCount(b *testing.B) {
	o := benchOptions()
	ev0 := sim.TotalEvents()
	defer func() { reportHostPerf(b, ev0) }()
	for i := 0; i < b.N; i++ {
		fig, results := core.Fig4(o)
		emit("fig4", fig, core.CheckFig4(fig, results, o.ACBytes))
		if spark, ok := fig.Get("Spark"); ok && len(spark.Points) > 0 {
			b.ReportMetric(spark.Points[len(spark.Points)-1].Y, "spark-simsec")
		}
		if hadoop, ok := fig.Get("Hadoop"); ok && len(hadoop.Points) > 0 {
			b.ReportMetric(hadoop.Points[len(hadoop.Points)-1].Y, "hadoop-simsec")
		}
	}
}

func BenchmarkFig6PageRankBigDataBench(b *testing.B) {
	o := benchOptions()
	ev0 := sim.TotalEvents()
	defer func() { reportHostPerf(b, ev0) }()
	for i := 0; i < b.N; i++ {
		fig, ranks := core.Fig6(o)
		emit("fig6", fig, core.CheckFig6(fig, ranks))
		if spark, ok := fig.Get("Spark"); ok && len(spark.Points) > 0 {
			b.ReportMetric(spark.Points[len(spark.Points)-1].Y, "spark-simsec")
		}
		if mpiS, ok := fig.Get("MPI"); ok && len(mpiS.Points) > 0 {
			b.ReportMetric(mpiS.Points[len(mpiS.Points)-1].Y*1e3, "mpi-simms")
		}
	}
}

func BenchmarkFig7PageRankHiBench(b *testing.B) {
	o := benchOptions()
	ev0 := sim.TotalEvents()
	defer func() { reportHostPerf(b, ev0) }()
	for i := 0; i < b.N; i++ {
		fig, ranks := core.Fig7(o)
		emit("fig7", fig, core.CheckFig7(fig, ranks))
		spark, _ := fig.Get("Spark")
		rdma, _ := fig.Get("Spark-RDMA")
		if n := len(spark.Points); n > 0 && len(rdma.Points) == n {
			gain := 100 * (spark.Points[n-1].Y - rdma.Points[n-1].Y) / spark.Points[n-1].Y
			b.ReportMetric(gain, "rdma-gain-%")
		}
	}
}

func BenchmarkTable3Maintainability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := core.Table3()
		if err != nil {
			b.Fatal(err)
		}
		emit("table3", t, nil)
	}
}

func BenchmarkAblationPersist(b *testing.B) {
	o := benchOptions()
	nodes := o.PRNodes[len(o.PRNodes)-1]
	for i := 0; i < b.N; i++ {
		tuned, untuned := core.AblationPersist(o, nodes)
		if _, loaded := printOnce.LoadOrStore("abl-persist", true); !loaded {
			fmt.Printf("\nABLATION persist @%d nodes: tuned=%.2fs untuned=%.2fs speedup=%.2fx (paper §VI-C: ~3x)\n",
				nodes, tuned, untuned, untuned/tuned)
		}
		b.ReportMetric(untuned/tuned, "speedup-x")
	}
}

func BenchmarkAblationReplication(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		t := core.AblationReplication(o)
		emit("abl-repl", t, nil)
	}
}

func BenchmarkAblationFaults(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		fa := core.AblationFaults(o)
		emit("abl-faults", fa.Table(), nil)
		b.ReportMetric(fa.SparkFailure-fa.SparkClean, "spark-recovery-simsec")
		b.ReportMetric(fa.MPIRecovery-fa.MPIClean, "mpi-recovery-simsec")
	}
}

func BenchmarkAblationRDA(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		ab := core.AblationRDA(o)
		emit("abl-rda", ab.Table(), nil)
		b.ReportMetric(ab.ReplayRecovery/ab.CkptRecovery, "replay-vs-ckpt-x")
	}
}

func BenchmarkAblationMRMPI(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		t, times := core.AblationMRMPI(o)
		emit("abl-mrmpi", t, nil)
		b.ReportMetric(times["Hadoop"]/times["MR-MPI (non-blocking)"], "vs-hadoop-x")
	}
}

func BenchmarkAblationInterconnect(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		t, times := core.AblationInterconnect(o)
		emit("abl-net", t, nil)
		b.ReportMetric(times["Ethernet 10G sockets"]/times["RDMA shuffle + IPoIB control"], "rdma-vs-eth-x")
	}
}

func BenchmarkAblationFilesystem(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		t, times := core.AblationFilesystem(o)
		emit("abl-fs", t, nil)
		b.ReportMetric(times["MPI on shared NFS"]/times["MPI on local scratch"], "scratch-vs-nfs-x")
	}
}

func BenchmarkAblationScheduler(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		t, out := core.AblationScheduler(o)
		emit("abl-sched", t, nil)
		b.ReportMetric(out["YARN-like containers"].Utilization*100, "yarn-util-%")
		b.ReportMetric(out["Slurm-like FIFO"].Utilization*100, "slurm-util-%")
	}
}

func BenchmarkAblationTopology(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		t, times := core.AblationTopology(o)
		emit("abl-topo", t, nil)
		b.ReportMetric(times["fat-tree 4:1"]/times["full bisection"], "fattree-slowdown-x")
	}
}

func BenchmarkAblationKMeans(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		t, out := core.AblationKMeans(o, 8, 8, 10)
		emit("abl-kmeans", t, nil)
		b.ReportMetric(out["Spark"].Seconds/out["MPI"].Seconds, "spark-vs-mpi-x")
	}
}

func BenchmarkAblationOffload(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		t, out := core.AblationOffload(o)
		emit("abl-gpu", t, nil)
		b.ReportMetric(out["1024"][0]/out["1024"][1], "gpu-speedup-hi-x")
	}
}

func BenchmarkAblationMemory(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		t, out := core.AblationMemory(o)
		emit("abl-mem", t, nil)
		b.ReportMetric(out["starved"][1], "evictions")
	}
}

func BenchmarkChaosSweep(b *testing.B) {
	if testing.Short() {
		b.Skip("chaos sweep at quick scale is covered by TestChaosSweep")
	}
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		a := core.ChaosSweep(o)
		r2 := core.ChaosSweep(o)
		var bad []string
		for _, tab := range core.ChaosTables(a) {
			emit(tab.ID, tab, nil)
		}
		bad = core.CheckChaosSweep(a, r2)
		if _, loaded := printOnce.LoadOrStore("chaos-check", true); !loaded {
			if len(bad) == 0 {
				fmt.Println("chaos sweep shape check: OK")
			} else {
				fmt.Println("chaos sweep shape check VIOLATIONS:")
				for _, v := range bad {
					fmt.Println("  " + v)
				}
			}
		}
		if n := len(a.MPIPR); n > 0 {
			b.ReportMetric(a.MPIPR[n-1].Seconds/a.MPIPR[0].Seconds, "mpi-worst-overhead-x")
		}
		if n := len(a.SparkPR); n > 0 {
			b.ReportMetric(a.SparkPR[n-1].Seconds/a.SparkPR[0].Seconds, "spark-worst-overhead-x")
		}
	}
}

func BenchmarkAblationConverged(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		t, out := core.AblationConverged(o)
		emit("abl-converged", t, nil)
		b.ReportMetric(out["RDA (converged model)"].Seconds/out["MPI (hand-written)"].Seconds, "rda-vs-mpi-x")
		b.ReportMetric(out["Spark (tuned)"].Seconds/out["RDA (converged model)"].Seconds, "spark-vs-rda-x")
	}
}
