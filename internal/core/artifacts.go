package core

import (
	"fmt"
	"strings"

	"hpcbd/internal/cluster"
	"hpcbd/internal/workload"
)

// Artifact is one reproducible output of this repository: a table or
// figure of the paper, a variant of one, a fault-injection sweep or a
// software-stack ablation. Run hides the result's type; Check, Show and
// Golden take what Run returned.
type Artifact struct {
	Name string
	// Scale is the preset testdata/golden.sum pins the artifact at; nil
	// when it is not pinned.
	Scale func() Options
	// Pair: Check compares two runs of one seed, so the artifact claims
	// determinism. Slow: a paired artifact too slow for `go test -short`.
	Pair, Slow bool
	Run        func(o Options) any
	// Check returns the shape violations of a result, given a second
	// run when Pair and nil otherwise; nil when the artifact claims no
	// shape. Holds says what a passing check shows.
	Check func(a, b any) []string
	Holds string
	// Show returns what a result prints, in order: Tables, Figures and
	// extra lines (strings).
	Show func(r any) []any
	// Golden returns the renderings golden.sum pins, by digest name.
	Golden func(r any) map[string]string
}

// Artifacts returns every artifact, in the order `hpcbd all` runs them:
// the paper's tables and figures, their variants, the six fault sweeps,
// the eight stack ablations and the four Discussion ablations
// (replication, faults, rda, converged).
func Artifacts() []Artifact {
	return []Artifact{
		{Name: "table1", Run: func(Options) any { return Table1() },
			Show: func(r any) []any { return []any{r, platformNotes()} }},
		fig3("fig3", Full, Fig3),
		{Name: "table2", Scale: Full,
			Run:   func(o Options) any { t, v := Table2(o); return table2Result{t, v} },
			Check: func(r, _ any) []string { return CheckTable2(r.(table2Result).Values) },
			Holds: "MPI < Spark-local < Spark-HDFS; HDFS overhead in the paper's band",
			Show:  func(r any) []any { return []any{r.(table2Result).Table} },
			Golden: func(r any) map[string]string {
				return map[string]string{"table2": fmt.Sprintf("%#v", r.(table2Result).Values)}
			}},
		{Name: "fig4", Scale: Full,
			Run: func(o Options) any { f, res := Fig4(o); return fig4Result{f, res, o.ACBytes} },
			Check: func(r, _ any) []string {
				x := r.(fig4Result)
				return CheckFig4(x.Figure, x.Results, x.acBytes)
			},
			Holds: "Hadoop > Spark; MPI needs >=40 procs at 80 GB; OpenMP single-node",
			Show: func(r any) []any {
				x := r.(fig4Result)
				return []any{x.Figure, fmt.Sprintf("average answers per question: %.3f (all frameworks agree with the serial oracle)",
					x.Results["Serial"].Average())}
			},
			Golden: func(r any) map[string]string {
				x := r.(fig4Result)
				return map[string]string{"fig4": fmt.Sprintf("%#v", x.Figure), "fig4res": fmt.Sprintf("%#v", x.Results)}
			}},
		pageRank("fig6", Fig6, CheckFig6, "MPI fast and flat; Spark scales; RDMA marginal when tuned"),
		pageRank("fig7", Fig7, CheckFig7, "RDMA wins when shuffle-heavy"),
		{Name: "table3", Scale: Full,
			Run: func(Options) any {
				t, err := Table3()
				if err != nil {
					panic(err) // the implementations are embedded: unreachable
				}
				return t
			},
			Show: func(r any) []any {
				return []any{r, "(counts cover the marked per-framework regions in internal/core/impl_*.go;\n" +
					" boilerplate = setup/teardown within bp: markers, as in the paper's Table III)"}
			},
			Golden: func(r any) map[string]string { return map[string]string{"table3": fmt.Sprintf("%#v", r)} }},
		fig3("fig3-shmem", nil, Fig3Extended),
		{Name: "persist", Run: func(o Options) any {
			nodes := o.PRNodes[len(o.PRNodes)-1]
			tuned, untuned := AblationPersist(o, nodes)
			return persistResult{nodes, tuned, untuned}
		}, Show: func(r any) []any {
			x := r.(persistResult)
			return []any{fmt.Sprintf("persist ablation @%d nodes: tuned=%.2fs untuned=%.2fs speedup=%.2fx (paper: ~3x)",
				x.Nodes, x.Tuned, x.Untuned, x.Untuned/x.Tuned)}
		}},
		{Name: "scale", Run: func(o Options) any {
			cfg := DefaultScaleConfig()
			if o.ACBytes < Full().ACBytes {
				cfg.NodeCounts = cfg.NodeCounts[:1] // the quick preset: the 1,000-node point only
			}
			return ScaleSweep(o, cfg)
		}, Check: func(r, _ any) []string {
			var bad []string
			for _, p := range r.([]ScalePoint) {
				if !p.OK {
					bad = append(bad, fmt.Sprintf("scale: %d-node point disagrees with the serial oracle", p.Nodes))
				}
			}
			return bad
		}, Holds: "every point agrees with the serial oracle",
			Show: func(r any) []any { return []any{ScaleTable(r.([]ScalePoint))} }},
		sweep("chaos", false, ChaosSweep, CheckChaosSweep, ChaosTables,
			"deterministic; Spark lineage recovery completes every job oracle-correct within its overhead bound; MPI checkpoint/restart overhead monotone in fault rate; rework monotone in checkpoint interval"),
		sweep("transport", false, TransportSweep, CheckTransportSweep, TransportTables,
			"Spark and Hadoop complete under loss, corruption and partitions with oracle-correct results; no corrupt byte served; plain MPI deadlocks on loss; resilient MPI retransmits and rolls back; overhead monotone in loss rate"),
		sweep("master", false, MasterSweep, CheckMasterSweep, MasterTables,
			"journaled masters fail over with byte-identical output while plain MPI deadlocks on a master kill"),
		sweep("partition", false, PartitionSweep, CheckPartitionSweep, PartitionTables,
			"fenced leaders isolated by a partition step down and fail over with byte-identical output and zero acknowledged-then-lost journal entries, the unfenced contrast measurably loses acknowledged writes, and plain MPI deadlocks under the same healing cut"),
		sweep("tail", true, TailSweep, CheckTailSweep, TailTables,
			"adaptive timeouts + ejection + hedging + retry budget cut gray-node p99 tails >= 2x at no material clean-run cost while plain MPI runs at the slowest rank's pace"),
		sweep("overload", true, OverloadSweep, CheckOverloadSweep, OverloadTables,
			"under memory and disk exhaustion the spill + escalation + fetch-credit + redirect + admission stack keeps completing jobs at >= 2x the unmitigated goodput while the off arm collapses into an OOM retry spiral and statically allocated MPI fails whole at its first refused reservation"),
		ablation("interconnect", AblationInterconnect),
		ablation("filesystem", AblationFilesystem),
		ablation("scheduler", AblationScheduler),
		ablation("topology", AblationTopology),
		ablation("mrmpi", AblationMRMPI),
		ablation("kmeans", func(o Options) (Table, map[string]KMResult) { return AblationKMeans(o, 8, 8, 10) }),
		ablation("offload", AblationOffload),
		ablation("memory", AblationMemory),
		ablation("replication", func(o Options) (Table, any) { return AblationReplication(o), nil }),
		ablation("faults", func(o Options) (Table, FaultAblation) { fa := AblationFaults(o); return fa.Table(), fa }),
		ablation("rda", func(o Options) (Table, RDAAblation) { ab := AblationRDA(o); return ab.Table(), ab }),
		ablation("converged", AblationConverged),
	}
}

type table2Result struct {
	Table  Table
	Values [][3]float64
}

type fig4Result struct {
	Figure  Figure
	Results map[string]workload.AnswersCountResult
	acBytes int64
}

type pageRankResult struct {
	Figure Figure
	Ranks  map[string][]float64
}

type persistResult struct {
	Nodes          int
	Tuned, Untuned float64
}

// fig3 is Fig 3 or a variant of it under CheckFig3, pinned with %#v at
// scale unless scale is nil.
func fig3(name string, scale func() Options, run func(Options) Figure) Artifact {
	a := Artifact{Name: name, Scale: scale, Run: func(o Options) any { return run(o) },
		Check: func(r, _ any) []string { return CheckFig3(r.(Figure)) },
		Holds: "MPI << Spark at all sizes; RDMA plugin marginal",
		Show:  func(r any) []any { return []any{r} }}
	if scale != nil {
		a.Golden = func(r any) map[string]string { return map[string]string{name: fmt.Sprintf("%#v", r)} }
	}
	return a
}

// pageRank is Fig 6 or Fig 7: the figure pinned with %#v, the final rank
// vectors with %v.
func pageRank(name string, run func(Options) (Figure, map[string][]float64),
	check func(Figure, map[string][]float64) []string, holds string) Artifact {
	return Artifact{Name: name, Scale: Full,
		Run: func(o Options) any { f, ranks := run(o); return pageRankResult{f, ranks} },
		Check: func(r, _ any) []string {
			x := r.(pageRankResult)
			return check(x.Figure, x.Ranks)
		},
		Holds: holds,
		Show:  func(r any) []any { return []any{r.(pageRankResult).Figure} },
		Golden: func(r any) map[string]string {
			x := r.(pageRankResult)
			return map[string]string{name: fmt.Sprintf("%#v", x.Figure), name + "ranks": fmt.Sprintf("%v", x.Ranks)}
		}}
}

// sweep is a fault-injection sweep: pinned at Quick, checked on two runs.
func sweep[R any](name string, slow bool, run func(Options) R, check func(a, b R) []string,
	tables func(R) []Table, holds string) Artifact {
	return Artifact{Name: name, Scale: Quick, Pair: true, Slow: slow,
		Run:   func(o Options) any { return run(o) },
		Check: func(a, b any) []string { return check(a.(R), b.(R)) },
		Holds: holds,
		Show: func(r any) []any {
			var out []any
			for _, t := range tables(r.(R)) {
				out = append(out, t)
			}
			return out
		},
		Golden: func(r any) map[string]string { return map[string]string{name + "-quick": fmt.Sprintf("%#v", r)} }}
}

// ablation is an ablation: one table, no shape check.
func ablation[M any](name string, run func(Options) (Table, M)) Artifact {
	return Artifact{Name: name,
		Run:  func(o Options) any { t, _ := run(o); return t },
		Show: func(r any) []any { return []any{r} }}
}

// platformNotes lists the fabric and cost-model parameters every
// experiment shares, printed under Table I.
func platformNotes() string {
	var b strings.Builder
	b.WriteString("Interconnect software paths (per message):\n")
	for _, f := range []cluster.FabricSpec{cluster.RDMAVerbsFDR(), cluster.IPoIB(), cluster.Ethernet10G(), cluster.IntraNode()} {
		fmt.Fprintf(&b, "  %-16s latency=%-8v bw=%5.1f GB/s  send+recv overhead=%v\n",
			f.Name, f.Latency, f.Bandwidth/1e9, f.SendOverhead+f.RecvOverhead)
	}
	cm := cluster.DefaultCostModel()
	b.WriteString("\nSoftware-stack cost model (DESIGN.md §5):\n")
	fmt.Fprintf(&b, "  C scan %.1f GB/s | JVM factor %.2f | JVM disk-stream efficiency %.2f\n",
		cm.ScanBW/1e9, cm.JVMFactor, cm.JVMIOFactor)
	fmt.Fprintf(&b, "  Spark: task dispatch %v, launch %v, stage %v, job %v\n",
		cm.SparkTaskDispatch, cm.SparkTaskLaunch, cm.SparkStageOverhead, cm.SparkJobOverhead)
	fmt.Fprintf(&b, "  Hadoop: task %v, job %v\n", cm.HadoopTaskOverhead, cm.HadoopJobOverhead)
	fmt.Fprintf(&b, "  HDFS: block RPC %v, stream setup %v, checksum %.1f GB/s\n",
		cm.DFSBlockRPC, cm.DFSStreamSetup, cm.DFSChecksumBW/1e9)
	fmt.Fprintf(&b, "  MPI: eager threshold %d B, per-call overhead %v", cm.MPIEagerThreshold, cm.MPIPerCallOverhead)
	return b.String()
}
