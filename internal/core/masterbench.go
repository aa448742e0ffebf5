package core

// The control-plane failover sweep: every Big Data runtime in the repo
// concentrates cluster state in one master process (HDFS namenode, Spark
// driver, MapReduce job tracker). This bench kills the master's node —
// node 0, never spared — at fixed fractions of each workload's clean
// duration and measures what the journaled-standby HA layer (internal/ha)
// buys: completion with a byte-identical result across leader
// generations, at a bounded time overhead. A plain MPI job is run under
// the same kill as the measured contrast: with its rank 0 gone the
// collective never completes and the program deadlocks.
//
// Every series runs its failure-free baseline WITH HA enabled, so the
// journal-replication overhead is part of the baseline and the kill
// points isolate the cost of recovery alone.

import (
	"fmt"
	"time"
)

// MasterKillOverheadBound is the documented ceiling on completion time
// under a master kill relative to the HA-enabled failure-free run. The
// budget covers the lease timeout, the journal replay, master-coupled
// state rebuilt from the survivors (block reports, executor
// re-registration, re-run map tasks) and the work the dead node was
// carrying.
const MasterKillOverheadBound = 8.0

// MasterPoint is one (workload, kill point) cell of the sweep.
type MasterPoint struct {
	KillFrac  float64 // node 0 dies at KillFrac x clean duration; 0 = no kill
	Seconds   float64 // virtual completion time
	Completed bool    // finished AND result matches the serial oracle
	Digest    string  // output fingerprint, comparable across leader generations

	// Control-plane recovery counters, summed over the workload's HA
	// groups (a Spark job has two: driver and namenode).
	Failovers       int
	RecoverySeconds float64 // lease wait + election + journal replay
	JournalEntries  int64

	// Workload-side recovery counters.
	ExecutorsLost int64 // Spark executors declared dead
	Rereplicated  int64 // DFS blocks re-replicated off the dead node
	MapsRerun     int   // committed map outputs invalidated and re-run
}

// MasterSweepResult holds the control-plane failover sweep.
type MasterSweepResult struct {
	Nodes    int
	DFS      []MasterPoint // metadata + read/write ops against the HA namenode
	SparkAC  []MasterPoint // Fig 4 AnswersCount; driver AND namenode on node 0
	HadoopAC []MasterPoint // MapReduce AnswersCount; tracker AND namenode on node 0
	MPIPlain []MasterPoint // plain MPI PageRank shape: no master recovery at all
}

// masterKillFracs are the points of the sweep: the master dies early
// (mid-setup), at the halfway mark, and late (most work committed).
var masterKillFracs = []float64{0.25, 0.5, 0.75}

// MasterSweep runs the control-plane failover experiment: per workload,
// a clean HA-enabled run establishes the duration T and the output
// digest oracle, then node 0 is killed at each fraction of T. The four
// series run as concurrent jobs, the plain-MPI one (the costliest)
// first. Deterministic: identical Options produce bit-identical
// results, which CheckMasterSweep verifies by comparing two runs.
func MasterSweep(o Options) MasterSweepResult {
	nodes := sweepNodes(o, 4)
	series := func(run ctlRunner) []MasterPoint {
		return faultSeries(ctlFault{}, func(f ctlFault) MasterPoint {
			r := run(o, nodes, f)
			h := foldHA(r.groups)
			return MasterPoint{KillFrac: f.kill, Seconds: r.secs, Completed: r.ok, Digest: r.digest,
				Failovers: h.failovers, RecoverySeconds: h.recovery, JournalEntries: h.journal,
				ExecutorsLost: r.execLost, Rereplicated: r.rereplicated, MapsRerun: r.mapsRerun}
		}, func(T time.Duration) []ctlFault {
			var kills []ctlFault
			for _, k := range masterKillFracs {
				kills = append(kills, ctlFault{cleanT: T, kill: k})
			}
			return kills
		})
	}
	res := MasterSweepResult{Nodes: nodes}
	runLargestFirst([]job{
		{1, func() { res.MPIPlain = series(mpiCtl) }},
		{0, func() { res.DFS = series(dfsCtl) }},
		{0, func() { res.SparkAC = series(sparkCtl) }},
		{0, func() { res.HadoopAC = series(hadoopCtl) }},
	})
	return res
}

// MasterTables renders the sweep for display.
func MasterTables(r MasterSweepResult) []Table {
	kill := func(f float64) string {
		if f == 0 {
			return "none"
		}
		return fmt.Sprintf("%.2f x T", f)
	}
	haTab := func(id, title string, pts []MasterPoint, extra ...string) Table {
		cols := append([]string{"master kill", "failovers", "recovery", "journal entries"}, extra...)
		return seriesTable(id, title, cols, pts, func(p MasterPoint) (string, []string) {
			row := []string{fmtInt(int64(p.Failovers)), fmtSeconds(p.RecoverySeconds), fmtInt(p.JournalEntries)}
			for _, col := range extra {
				switch col {
				case "exec lost":
					row = append(row, fmtInt(p.ExecutorsLost))
				case "blocks rereplicated":
					row = append(row, fmtInt(p.Rereplicated))
				case "maps rerun":
					row = append(row, fmtInt(int64(p.MapsRerun)))
				}
			}
			return kill(p.KillFrac), row
		})
	}
	return []Table{
		haTab("master-dfs", "DFS metadata ops across namenode failover (journal + block reports)", r.DFS, "blocks rereplicated"),
		haTab("master-spark-ac", "Spark AnswersCount across driver+namenode failover", r.SparkAC, "exec lost", "blocks rereplicated"),
		haTab("master-hadoop-ac", "Hadoop AnswersCount across tracker+namenode failover", r.HadoopAC, "maps rerun", "blocks rereplicated"),
		deadlockTable("master-mpi-plain", "Plain MPI PageRank under a master kill (no recovery model)", "master kill",
			r.MPIPlain, func(p MasterPoint) (string, float64, bool) { return kill(p.KillFrac), p.Seconds, p.Completed }),
	}
}
