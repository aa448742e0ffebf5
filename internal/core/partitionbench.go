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

	"hpcbd/internal/chaos"
	"hpcbd/internal/cluster"
	"hpcbd/internal/dfs"
	"hpcbd/internal/ha"
	"hpcbd/internal/rdd"
	"hpcbd/internal/sim"
	"hpcbd/internal/workload"
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

// partSpec is one concrete cut: how many nodes leave with the leader,
// when the cut opens and how long it stays open. split 0 = clean run.
type partSpec struct {
	split  int
	at     time.Duration
	length time.Duration
	cleanT time.Duration // the measured clean duration (0 on the clean run)
}

// partitionSeries measures one workload: a clean run with the same HA
// config establishes the duration T and the digest oracle, then the
// leader is isolated at 0.3 x T for each (split, duration) combination.
// The window base is floored at 4s of virtual time so even a short
// clean run leaves room for the transport retry ladder (and for stale
// minority appends, in the unfenced arm) inside the cut.
func partitionSeries(nodes int, run func(spec partSpec) PartitionPoint) []PartitionPoint {
	clean := run(partSpec{})
	pts := []PartitionPoint{clean}
	T := time.Duration(clean.Seconds * float64(time.Second))
	base := T
	if base < 4*time.Second {
		base = 4 * time.Second
	}
	third := nodes / 3
	if third < 1 {
		third = 1
	}
	for _, split := range []int{1, 1 + third} {
		for _, df := range partitionDurFracs {
			pts = append(pts, run(partSpec{
				split:  split,
				at:     time.Duration(partitionStartFrac * float64(T)),
				length: time.Duration(df * float64(base)),
				cleanT: T,
			}))
		}
	}
	return pts
}

// partMinority builds the minority group: the leader's node 0, the
// client when the arm traps it on the wrong side, then filler nodes —
// never the standbys on 1 and 2 (the majority must be able to elect)
// and never the client's node unless asked.
func partMinority(nodes, split, client int, withClient bool) []int {
	min := []int{0}
	if withClient && client > 0 {
		min = append(min, client)
	}
	for n := 3; n < nodes && len(min) < split; n++ {
		if n == client {
			continue
		}
		min = append(min, n)
	}
	return min
}

// partitionCut arms the net-fault engine and installs the cut plan.
// The DFS, Spark and Hadoop arms call it from inside the driving proc
// (after untimed staging) and the MPI arm before launch, so `at` is
// measured from the start of the timed region, like masterKill.
func partitionCut(c *cluster.Cluster, seed int64, minority []int, spec partSpec) {
	if spec.split <= 0 {
		return
	}
	c.EnableNetFaults(seed)
	chaos.Install(c, chaos.SplitBrain(minority, spec.at, spec.length))
}

// partitionHACfg is masterHACfg plus the partition-tolerance knobs: a
// heartbeat so the group watches reachability (not just liveness), and
// the fencing mode under test. The clean run uses the same config — a
// heartbeat with no partition never fires.
func partitionHACfg(cleanT time.Duration, fenced bool) ha.Config {
	cfg := masterHACfg(cleanT)
	cfg.Fenced = fenced
	lease := cfg.LeaseTimeout
	if lease <= 0 {
		lease = 500 * time.Millisecond // the ha.Config default
	}
	cfg.Heartbeat = atLeast(lease/4, time.Millisecond)
	return cfg
}

// addHA folds one HA group's counters into the point.
func (pt *PartitionPoint) addHA(g *ha.Group) {
	if g == nil {
		return
	}
	pt.Failovers += g.Failovers
	pt.RecoverySeconds += g.TotalRecovery.Seconds()
	pt.JournalEntries += g.EntriesLogged
	pt.StepDowns += g.StepDowns
	pt.ReplDropped += g.ReplDropped
	pt.QuorumFailures += g.QuorumFailures
	pt.LostAcked += g.LostAcked
	if g.Epoch() > pt.Epoch {
		pt.Epoch = g.Epoch()
	}
}

// specPoint seeds the point's sweep coordinates from the spec.
func specPoint(spec partSpec, fenced bool) PartitionPoint {
	pt := PartitionPoint{Fenced: fenced}
	if spec.split > 0 {
		pt.StartFrac = partitionStartFrac
		pt.Split = spec.split
		pt.WindowSeconds = spec.length.Seconds()
	}
	return pt
}

// PartitionSweep runs the split-brain experiment. Deterministic:
// identical Options produce bit-identical results, which
// CheckPartitionSweep verifies by comparing two runs.
func PartitionSweep(o Options) PartitionSweepResult {
	nodes := sweepNodes(o, 6) // room for a minority beyond the leader and both standbys
	res := PartitionSweepResult{Nodes: nodes}
	res.DFSFenced = partitionSeries(nodes, func(spec partSpec) PartitionPoint {
		return dfsPartition(o, nodes, spec, true)
	})
	res.DFSUnfenced = partitionSeries(nodes, func(spec partSpec) PartitionPoint {
		return dfsPartition(o, nodes, spec, false)
	})
	res.SparkAC = partitionSeries(nodes, func(spec partSpec) PartitionPoint {
		return sparkACPartition(o, nodes, spec)
	})
	res.HadoopAC = partitionSeries(nodes, func(spec partSpec) PartitionPoint {
		return hadoopACPartition(o, nodes, spec)
	})
	res.MPIPlain = partitionSeries(nodes, func(spec partSpec) PartitionPoint {
		return mpiPlainPartition(o, nodes, spec)
	})
	return res
}

// dfsPartition drives the metadata client script against a namenode on
// node 0 with standbys on 1 and 2. Fenced arm: the client sits on the
// majority side, parks through the forced step-down, and finishes
// against the successor — same digest, nothing lost. Unfenced arm: the
// client is cut off WITH the leader, its writes are acknowledged by the
// stale claimant, and the heal truncates them — the digest diverges and
// LostAcked counts exactly the acknowledged entries that evaporated.
//
// Unlike the master-kill script this one is fail-tolerant: an op error
// bumps OpsFailed and the script keeps going, so every point emits a
// digest (taken after the run drains, i.e. after any heal-time
// truncation has been applied to the namespace).
func dfsPartition(o Options, nodes int, spec partSpec, fenced bool) PartitionPoint {
	pt := specPoint(spec, fenced)
	c := newCluster(o.Seed, nodes)
	cfg := dfs.DefaultConfig()
	fs := dfs.New(c, cluster.IPoIB(), cfg)
	g := fs.EnableHA([]int{1, 2}, partitionHACfg(spec.cleanT, fenced), o.Seed)
	client := nodes - 1
	minority := partMinority(nodes, spec.split, client, !fenced)
	c.K.Spawn("dfs-client", func(p *sim.Proc) {
		partitionCut(c, o.Seed, minority, spec)
		start := p.Now()
		dfsClientScript(p, fs, client, cfg.BlockSize, func(n int) bool {
			pt.OpsFailed += n
			return false
		})
		pt.Seconds = p.Now().Sub(start).Seconds()
	})
	c.K.Run()
	// The digest is taken after the kernel drains: in the unfenced arm
	// the heal-time truncation has already rolled the namespace back, so
	// this is what the CLUSTER remembers, not what the client was told.
	pt.Digest = dfsDigest(fs)
	pt.Completed = pt.Seconds > 0 && pt.OpsFailed == 0 && digestShape(pt.Digest)
	pt.addHA(g)
	return pt
}

// sparkACPartition runs the Fig 4 Spark AnswersCount job with the
// driver and the namenode both on node 0, fenced, and node 0 isolated
// mid-job. Both masters lose their quorum, step down, and fail over to
// the majority; the node-0 executor keeps its shuffle outputs hostage
// until the heal, so the retry budget is opened wide like the transport
// sweep's partition points.
func sparkACPartition(o Options, nodes int, spec partSpec) PartitionPoint {
	pt := specPoint(spec, true)
	c := newCluster(o.Seed, nodes)
	fs := dfs.New(c, cluster.IPoIB(), dfs.DefaultConfig())
	nnGroup := fs.EnableHA([]int{1, 2}, partitionHACfg(spec.cleanT, true), o.Seed+1)
	d := workload.NewStackExchange(o.Seed, o.ACBytes, o.ACRecordBytes, o.ACStride)
	conf := rdd.DefaultConfig()
	conf.CoresPerExecutor = o.ACPPN
	conf.Scale = float64(d.Stride)
	if spec.split > 0 {
		conf.HeartbeatTimeout = chaosDetect(spec.cleanT)
		// The minority executor fails fetches until the heal; don't let
		// the retry budget kill the job.
		conf.MaxTaskRetries = 1 << 20
	}
	ctx := rdd.NewContext(c, conf)
	drvGroup := ctx.EnableDriverHA([]int{1, 2}, partitionHACfg(spec.cleanT, true), o.Seed+2)
	minority := partMinority(nodes, spec.split, nodes-1, false)
	err := sparkACJob(c, fs, ctx, d, func(*sim.Proc) {
		partitionCut(c, o.Seed, minority, spec)
	}, func(total workload.AnswersCountResult, secs float64) {
		pt.Seconds = secs
		pt.Digest = fmt.Sprintf("q=%d;a=%d", total.Questions, total.Answers)
		pt.Completed = total == d.SerialAnswersCount()
	})
	if err != nil {
		pt.OpsFailed++
	}
	pt.addHA(nnGroup)
	pt.addHA(drvGroup)
	return pt
}

// hadoopACPartition runs the MapReduce AnswersCount job with the job
// tracker journaled across nodes 0-2 and the namenode likewise, fenced,
// and node 0 isolated mid-job. Stale-epoch task commits are refused and
// retried against the successor tracker.
func hadoopACPartition(o Options, nodes int, spec partSpec) PartitionPoint {
	pt := specPoint(spec, true)
	c := newCluster(o.Seed, nodes)
	fs := dfs.New(c, cluster.IPoIB(), dfs.DefaultConfig())
	nnGroup := fs.EnableHA([]int{1, 2}, partitionHACfg(spec.cleanT, true), o.Seed+3)
	d := workload.NewStackExchange(o.Seed, o.ACBytes, o.ACRecordBytes, o.ACStride)
	job := hadoopACJob(o, c, fs, d, "answerscount-part")
	if spec.split > 0 {
		// Minority-pinned fetches stall until the heal; every stall burns
		// an attempt, so the budget must outlive the window.
		job.Conf.MaxAttempts = 1 << 20
	}
	job.HA = ha.New(c, cluster.IPoIB(), "jobtracker", []int{0, 1, 2}, partitionHACfg(spec.cleanT, true), o.Seed+4)
	minority := partMinority(nodes, spec.split, nodes-1, false)
	c.K.Spawn("hadoop-client", func(p *sim.Proc) {
		ensureFile(p, fs, acFile, d.LogicalBytes()) // staging, untimed
		partitionCut(c, o.Seed, minority, spec)
		out, st := job.Run(p)
		got, digest := hadoopACResult(out)
		pt.Digest = digest
		pt.Completed = got == d.SerialAnswersCount()
		pt.Seconds = st.Elapsed.Seconds()
	})
	c.K.Run()
	pt.addHA(nnGroup)
	pt.addHA(job.HA)
	return pt
}

// mpiPlainPartition runs the PageRank-shaped plain MPI job under the
// same cut. The partition HEALS — and the job still never finishes:
// allreduce messages dropped at the cut are never retransmitted, every
// rank eventually parks in a recv that cannot be satisfied, and the
// kernel runs out of work. Same fragility contrast as the master-kill
// and transport sweeps, now for a transient network fault.
func mpiPlainPartition(o Options, nodes int, spec partSpec) PartitionPoint {
	pt := specPoint(spec, false)
	c := newCluster(o.Seed, nodes)
	partitionCut(c, o.Seed, partMinority(nodes, spec.split, -1, false), spec)
	np, perRank, _ := prLoopShape(o, c, nodes)
	l := runPlainLoop(c, np, o.PRPPN, 8*o.PRIters, perRank)
	pt.Seconds = l.secs
	if l.w.Done() {
		pt.Digest = fmt.Sprintf("sum=%g", l.sum)
	}
	pt.Completed = l.done()
	return pt
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
		cols := []string{"leader cut", "time", "x clean", "failovers", "stepdowns", "journal entries", "acked lost"}
		if ops {
			cols = append(cols, "ops failed")
		}
		t := Table{ID: id, Title: title, Columns: cols}
		clean := pts[0].Seconds
		for _, p := range pts {
			row := []string{cut(p), fmtSeconds(p.Seconds), fmtRatio(p.Seconds / clean),
				fmtInt(int64(p.Failovers)), fmtInt(p.StepDowns), fmtInt(p.JournalEntries), fmtInt(p.LostAcked)}
			if ops {
				row = append(row, fmtInt(int64(p.OpsFailed)))
			}
			t.Rows = append(t.Rows, row)
		}
		return t
	}
	mt := Table{ID: "partition-mpi-plain", Title: "Plain MPI PageRank under a healing partition (no retransmission)",
		Columns: []string{"leader cut", "time", "completed"}}
	for _, p := range r.MPIPlain {
		done := "deadlock"
		if p.Completed {
			done = "yes"
		}
		mt.Rows = append(mt.Rows, []string{cut(p), fmtSeconds(p.Seconds), done})
	}
	return []Table{
		haTab("partition-dfs-fenced", "DFS metadata ops across a fenced namenode partition (majority client)", r.DFSFenced, true),
		haTab("partition-dfs-unfenced", "DFS metadata ops with an UNFENCED namenode (client cut off with the leader)", r.DFSUnfenced, true),
		haTab("partition-spark-ac", "Spark AnswersCount across a fenced driver+namenode partition", r.SparkAC, false),
		haTab("partition-hadoop-ac", "Hadoop AnswersCount across a fenced tracker+namenode partition", r.HadoopAC, false),
		mt,
	}
}
