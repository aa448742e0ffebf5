package core

// The split-brain sweep: where the master-kill sweep crashes the
// control-plane node outright, this bench CUTS it off. A network
// partition is the harder failure — the isolated leader is still alive,
// still willing to serve, and without fencing it will keep acknowledging
// writes that the rest of the cluster can never have seen. The sweep
// measures both sides of that coin:
//
//   - Fenced arms (epoch fencing + quorum-acknowledged journaling, the
//     repo's default CP posture): the isolated leader steps down the
//     moment an append fails its quorum, the majority elects a successor
//     under a new epoch, and the output digest is byte-identical to the
//     clean run with ZERO acknowledged-then-lost journal entries.
//   - The unfenced arm (split-brain modeling): the deposed leader keeps
//     acknowledging minority writes; on heal the stale suffix is
//     truncated and the sweep reports exactly how many acknowledged
//     entries were lost — the measured cost of skipping fencing.
//   - Plain MPI under the same cut deadlocks: messages dropped at the
//     partition are never retransmitted, so the collective parks forever
//     even though the cut heals.
//
// Every series runs its failure-free baseline with the same HA config
// (quorum, fencing, heartbeat) so the fault points isolate the cost of
// the partition itself.

import (
	"fmt"
	"time"
)

// PartitionOverheadBound is the documented ceiling on completion time
// under a partition relative to the HA-enabled failure-free run, over
// and above the cut window itself (work pinned to the minority can only
// resume at the heal, so the window is additive, not multiplicative).
const PartitionOverheadBound = 8.0

// partitionStartFrac places the cut: it always opens at 0.3 x the clean
// duration, after real state exists on both sides but with most of the
// work still ahead.
const partitionStartFrac = 0.3

// partitionDurFracs are the cut lengths swept, as fractions of the
// window base (the clean duration, floored so the transport retry
// ladder fits inside the cut).
var partitionDurFracs = []float64{0.25, 0.5}

// PartitionPoint is one (workload, cut) cell of the split-brain sweep.
type PartitionPoint struct {
	StartFrac     float64 // cut opens at StartFrac x clean duration; 0 = no cut
	Split         int     // nodes isolated with the leader (minority size); 0 = clean
	WindowSeconds float64 // cut length in virtual seconds
	Fenced        bool    // epoch fencing on (CP) or off (split-brain modeling)

	Seconds   float64 // virtual completion time of the client script / job
	Completed bool    // finished with every op acknowledged and the oracle matched
	Digest    string  // output fingerprint, taken AFTER any heal-time truncation
	OpsFailed int     // client ops that returned errors (fail-tolerant script)

	// Control-plane counters, summed over the workload's HA groups.
	Failovers       int
	StepDowns       int64 // fenced leaders that refused to ack and stepped down
	RecoverySeconds float64
	JournalEntries  int64
	ReplDropped     int64 // journal entries that missed >=1 standby
	QuorumFailures  int64 // appends that failed their ack quorum
	LostAcked       int64 // acknowledged entries truncated on heal (unfenced only)
	Epoch           int64 // highest leader epoch reached
}

// PartitionSweepResult holds the split-brain sweep.
type PartitionSweepResult struct {
	Nodes       int
	DFSFenced   []PartitionPoint // metadata client on the majority side, fenced namenode
	DFSUnfenced []PartitionPoint // client trapped WITH the leader: acked-then-lost writes
	SparkAC     []PartitionPoint // Fig 4 AnswersCount; driver+namenode isolated, fenced
	HadoopAC    []PartitionPoint // MapReduce AnswersCount; tracker+namenode isolated, fenced
	MPIPlain    []PartitionPoint // plain MPI PageRank: the cut heals, the job never does
}

// PartitionSweep runs the split-brain experiment. Per workload, a clean
// run with the same HA config establishes the duration T and the digest
// oracle, then the leader is isolated at 0.3 x T for each (split,
// duration) combination. The window base is floored at 4s of virtual
// time so even a short clean run leaves room for the transport retry
// ladder (and for stale minority appends, in the unfenced arm) inside
// the cut. The five series run as concurrent jobs, the plain-MPI one
// (the costliest) first. Deterministic: identical Options produce
// bit-identical results, which CheckPartitionSweep verifies by comparing
// two runs.
func PartitionSweep(o Options) PartitionSweepResult {
	nodes := sweepNodes(o, 6) // room for a minority beyond the leader and both standbys
	series := func(fenced bool, run ctlRunner) []PartitionPoint {
		return faultSeries(ctlFault{cut: true, fenced: fenced}, func(f ctlFault) PartitionPoint {
			r := run(o, nodes, f)
			h := foldHA(r.groups)
			pt := PartitionPoint{Fenced: fenced, Seconds: r.secs, Completed: r.ok, Digest: r.digest, OpsFailed: r.opsFailed,
				Failovers: h.failovers, StepDowns: h.stepDowns, RecoverySeconds: h.recovery, JournalEntries: h.journal,
				ReplDropped: h.replDropped, QuorumFailures: h.quorumFails, LostAcked: h.lostAcked, Epoch: h.epoch}
			if f.split > 0 {
				pt.StartFrac, pt.Split, pt.WindowSeconds = partitionStartFrac, f.split, f.length.Seconds()
			}
			return pt
		}, func(T time.Duration) []ctlFault {
			base := max(T, 4*time.Second)
			var cuts []ctlFault
			for _, split := range []int{1, 1 + max(nodes/3, 1)} {
				for _, df := range partitionDurFracs {
					cuts = append(cuts, ctlFault{cut: true, fenced: fenced, cleanT: T, split: split,
						at: time.Duration(partitionStartFrac * float64(T)), length: time.Duration(df * float64(base))})
				}
			}
			return cuts
		})
	}
	res := PartitionSweepResult{Nodes: nodes}
	runLargestFirst([]job{
		{1, func() { res.MPIPlain = series(false, mpiCtl) }},
		{0, func() { res.DFSFenced = series(true, dfsCtl) }},
		{0, func() { res.DFSUnfenced = series(false, dfsCtl) }},
		{0, func() { res.SparkAC = series(true, sparkCtl) }},
		{0, func() { res.HadoopAC = series(true, hadoopCtl) }},
	})
	return res
}

// PartitionTables renders the sweep for display.
func PartitionTables(r PartitionSweepResult) []Table {
	cut := func(p PartitionPoint) string {
		if p.Split == 0 {
			return "none"
		}
		return fmt.Sprintf("%d node(s), %s", p.Split, fmtSeconds(p.WindowSeconds))
	}
	haTab := func(id, title string, pts []PartitionPoint, ops bool) Table {
		cols := []string{"leader cut", "failovers", "stepdowns", "journal entries", "acked lost"}
		if ops {
			cols = append(cols, "ops failed")
		}
		return seriesTable(id, title, cols, pts, func(p PartitionPoint) (string, []string) {
			row := []string{fmtInt(int64(p.Failovers)), fmtInt(p.StepDowns), fmtInt(p.JournalEntries), fmtInt(p.LostAcked)}
			if ops {
				row = append(row, fmtInt(int64(p.OpsFailed)))
			}
			return cut(p), row
		})
	}
	return []Table{
		haTab("partition-dfs-fenced", "DFS metadata ops across a fenced namenode partition (majority client)", r.DFSFenced, true),
		haTab("partition-dfs-unfenced", "DFS metadata ops with an UNFENCED namenode (client cut off with the leader)", r.DFSUnfenced, true),
		haTab("partition-spark-ac", "Spark AnswersCount across a fenced driver+namenode partition", r.SparkAC, false),
		haTab("partition-hadoop-ac", "Hadoop AnswersCount across a fenced tracker+namenode partition", r.HadoopAC, false),
		deadlockTable("partition-mpi-plain", "Plain MPI PageRank under a healing partition (no retransmission)", "leader cut",
			r.MPIPlain, func(p PartitionPoint) (string, float64, bool) { return cut(p), p.Seconds, p.Completed }),
	}
}
