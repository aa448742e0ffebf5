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
	"strings"
	"time"

	"hpcbd/internal/chaos"
	"hpcbd/internal/cluster"
	"hpcbd/internal/dfs"
	"hpcbd/internal/ha"
	"hpcbd/internal/rdd"
	"hpcbd/internal/sim"
	"hpcbd/internal/workload"
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

// masterHACfg scales the HA failure detector with the measured clean
// duration T, like the chaos sweep's knobs: the lease (and so the
// fastest possible failover) is T/20. The clean run never elects, so it
// takes the defaults.
func masterHACfg(cleanT time.Duration) ha.Config {
	if cleanT <= 0 {
		return ha.Config{}
	}
	return ha.Config{LeaseTimeout: chaosDetect(cleanT)}
}

// masterSweepSeries measures one workload: a clean HA-enabled run
// establishes the duration T and the output digest oracle, then the
// master is killed at each fraction of T.
func masterSweepSeries(run func(frac float64, cleanT time.Duration) MasterPoint) []MasterPoint {
	clean := run(0, 0)
	pts := []MasterPoint{clean}
	T := time.Duration(clean.Seconds * float64(time.Second))
	for _, f := range masterKillFracs {
		pts = append(pts, run(f, T))
	}
	return pts
}

// MasterSweep runs the control-plane failover experiment. Deterministic:
// identical Options produce bit-identical results, which CheckMasterSweep
// verifies by comparing two runs.
func MasterSweep(o Options) MasterSweepResult {
	nodes := sweepNodes(o, 4)
	res := MasterSweepResult{Nodes: nodes}
	res.DFS = masterSweepSeries(func(frac float64, cleanT time.Duration) MasterPoint {
		return dfsMasterHA(o, nodes, frac, cleanT)
	})
	res.SparkAC = masterSweepSeries(func(frac float64, cleanT time.Duration) MasterPoint {
		return sparkACMasterHA(o, nodes, frac, cleanT)
	})
	res.HadoopAC = masterSweepSeries(func(frac float64, cleanT time.Duration) MasterPoint {
		return hadoopACMasterHA(o, nodes, frac, cleanT)
	})
	res.MPIPlain = masterSweepSeries(func(frac float64, cleanT time.Duration) MasterPoint {
		return mpiPlainMaster(o, nodes, frac, cleanT)
	})
	return res
}

// masterKill installs the kill plan when frac > 0: node 0 crashes at
// frac x cleanT (measured from install) and rejoins after the standard
// chaos downtime — rejoining must NOT reclaim leadership or disturb the
// result.
func masterKill(c *cluster.Cluster, frac float64, cleanT time.Duration) {
	if frac <= 0 {
		return
	}
	at := time.Duration(frac * float64(cleanT))
	chaos.Install(c, chaos.MasterKill(0, at, chaosDowntime(cleanT)))
}

// addGroup folds one HA group's recovery counters into the point.
func (pt *MasterPoint) addGroup(g *ha.Group) {
	if g == nil {
		return
	}
	pt.Failovers += g.Failovers
	pt.RecoverySeconds += g.TotalRecovery.Seconds()
	pt.JournalEntries += g.EntriesLogged
}

// dfsMasterHA drives a metadata-heavy client workload (creates, renames,
// deletes, whole-file reads) against a namenode on node 0 with standbys
// on nodes 1 and 2, from a client on the last node. The digest is the
// surviving namespace listing plus per-file sizes: it must come out
// identical whichever namenode generation served each op.
func dfsMasterHA(o Options, nodes int, frac float64, cleanT time.Duration) MasterPoint {
	pt := MasterPoint{KillFrac: frac}
	c := newCluster(o.Seed, nodes)
	cfg := dfs.DefaultConfig()
	if frac > 0 {
		cfg.RereplicationDelay = chaosDetect(cleanT)
	}
	fs := dfs.New(c, cluster.IPoIB(), cfg)
	g := fs.EnableHA([]int{1, 2}, masterHACfg(cleanT), o.Seed)
	c.K.Spawn("dfs-client", func(p *sim.Proc) {
		masterKill(c, frac, cleanT)
		start := p.Now()
		if !dfsClientScript(p, fs, nodes-1, cfg.BlockSize, func(int) bool { return true }) {
			return
		}
		pt.Seconds = p.Now().Sub(start).Seconds()
		pt.Digest = dfsDigest(fs)
		pt.Completed = digestShape(pt.Digest)
	})
	c.K.Run()
	pt.addGroup(g)
	pt.Rereplicated = fs.BlocksRereplicated()
	return pt
}

// digestShape checks the DFS digest lists exactly the six expected names
// (sizes are asserted via the digest-equality check against the clean
// run, which keeps this independent of the configured block size).
func digestShape(digest string) bool {
	want := []string{"/m/f2:", "/m/f4:", "/m/f5:", "/m/g1:", "/m/g3:", "/m/h0:"}
	rest := digest
	for _, w := range want {
		i := strings.Index(rest, w)
		if i < 0 {
			return false
		}
		rest = rest[i+len(w):]
	}
	return true
}

// sparkACMasterHA runs the Fig 4 Spark AnswersCount job with BOTH
// masters on node 0: the driver (with standby re-launch sites on nodes 1
// and 2) and the DFS namenode (same standbys). Killing node 0 takes out
// the driver, the namenode and an executor in one blow; the job must
// still produce the oracle answer.
func sparkACMasterHA(o Options, nodes int, frac float64, cleanT time.Duration) MasterPoint {
	pt := MasterPoint{KillFrac: frac}
	c := newCluster(o.Seed, nodes)
	cfg := dfs.DefaultConfig()
	if frac > 0 {
		cfg.RereplicationDelay = chaosDetect(cleanT)
	}
	fs := dfs.New(c, cluster.IPoIB(), cfg)
	nnGroup := fs.EnableHA([]int{1, 2}, masterHACfg(cleanT), o.Seed+1)
	d := workload.NewStackExchange(o.Seed, o.ACBytes, o.ACRecordBytes, o.ACStride)
	conf := rdd.DefaultConfig()
	conf.CoresPerExecutor = o.ACPPN
	conf.Scale = float64(d.Stride)
	if frac > 0 {
		conf.HeartbeatTimeout = chaosDetect(cleanT)
	}
	ctx := rdd.NewContext(c, conf)
	drvGroup := ctx.EnableDriverHA([]int{1, 2}, masterHACfg(cleanT), o.Seed+2)
	// A failed job leaves the point incomplete; the error adds nothing.
	_ = sparkACJob(c, fs, ctx, d, func(*sim.Proc) {
		masterKill(c, frac, cleanT)
	}, func(total workload.AnswersCountResult, secs float64) {
		pt.Seconds = secs
		pt.Digest = fmt.Sprintf("q=%d;a=%d", total.Questions, total.Answers)
		pt.Completed = total == d.SerialAnswersCount()
		pt.ExecutorsLost = ctx.ExecutorsLost
		pt.Rereplicated = fs.BlocksRereplicated()
	})
	pt.addGroup(nnGroup)
	pt.addGroup(drvGroup)
	return pt
}

// hadoopACMasterHA runs the MapReduce AnswersCount job with the job
// tracker journaled across nodes 0-2 and the namenode likewise. Killing
// node 0 loses the tracker, the namenode AND the map outputs committed
// to node 0's local disk — the round-based scheduler must invalidate
// and re-run exactly those.
func hadoopACMasterHA(o Options, nodes int, frac float64, cleanT time.Duration) MasterPoint {
	pt := MasterPoint{KillFrac: frac}
	c := newCluster(o.Seed, nodes)
	cfg := dfs.DefaultConfig()
	if frac > 0 {
		cfg.RereplicationDelay = chaosDetect(cleanT)
	}
	fs := dfs.New(c, cluster.IPoIB(), cfg)
	nnGroup := fs.EnableHA([]int{1, 2}, masterHACfg(cleanT), o.Seed+3)
	d := workload.NewStackExchange(o.Seed, o.ACBytes, o.ACRecordBytes, o.ACStride)
	job := hadoopACJob(o, c, fs, d, "answerscount-ha")
	job.HA = ha.New(c, cluster.IPoIB(), "jobtracker", []int{0, 1, 2}, masterHACfg(cleanT), o.Seed+4)
	c.K.Spawn("hadoop-client", func(p *sim.Proc) {
		ensureFile(p, fs, acFile, d.LogicalBytes()) // staging, untimed
		masterKill(c, frac, cleanT)
		out, st := job.Run(p)
		got, digest := hadoopACResult(out)
		pt.Digest = digest
		pt.Completed = got == d.SerialAnswersCount()
		pt.Seconds = st.Elapsed.Seconds()
		pt.MapsRerun = st.MapsRerun
	})
	c.K.Run()
	pt.addGroup(nnGroup)
	pt.addGroup(job.HA)
	pt.Rereplicated = fs.BlocksRereplicated()
	return pt
}

// mpiPlainMaster runs the PageRank-shaped plain MPI job under the same
// master kill. Plain MPI has no notion of a replaceable master: every
// rank is load-bearing, so when node 0 dies its ranks simply stop (a
// dead process cannot execute its next iteration) and the allreduce
// never completes — the survivors park forever and the kernel runs out
// of work. This is the measured fragility contrast, the same one the
// transport sweep shows for message loss.
func mpiPlainMaster(o Options, nodes int, frac float64, cleanT time.Duration) MasterPoint {
	pt := MasterPoint{KillFrac: frac}
	c := newCluster(o.Seed, nodes)
	// No recovery exists, so the node stays down (downtime 0): rejoining
	// could not revive the parked ranks anyway.
	if frac > 0 {
		at := time.Duration(frac * float64(cleanT))
		chaos.Install(c, chaos.MasterKill(0, at, 0))
	}
	np, perRank, _ := prLoopShape(o, c, nodes)
	l := runPlainLoop(c, np, o.PRPPN, 8*o.PRIters, perRank)
	pt.Seconds = l.secs
	if l.w.Done() {
		pt.Digest = fmt.Sprintf("sum=%g", l.sum)
	}
	pt.Completed = l.done()
	return pt
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
		t := Table{ID: id, Title: title,
			Columns: append([]string{"master kill", "time", "x clean", "failovers", "recovery", "journal entries"}, extra...)}
		clean := pts[0].Seconds
		for _, p := range pts {
			row := []string{kill(p.KillFrac), fmtSeconds(p.Seconds), fmtRatio(p.Seconds / clean),
				fmtInt(int64(p.Failovers)), fmtSeconds(p.RecoverySeconds), fmtInt(p.JournalEntries)}
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
			t.Rows = append(t.Rows, row)
		}
		return t
	}
	mt := Table{ID: "master-mpi-plain", Title: "Plain MPI PageRank under a master kill (no recovery model)",
		Columns: []string{"master kill", "time", "completed"}}
	for _, p := range r.MPIPlain {
		done := "deadlock"
		if p.Completed {
			done = "yes"
		}
		mt.Rows = append(mt.Rows, []string{kill(p.KillFrac), fmtSeconds(p.Seconds), done})
	}
	return []Table{
		haTab("master-dfs", "DFS metadata ops across namenode failover (journal + block reports)", r.DFS, "blocks rereplicated"),
		haTab("master-spark-ac", "Spark AnswersCount across driver+namenode failover", r.SparkAC, "exec lost", "blocks rereplicated"),
		haTab("master-hadoop-ac", "Hadoop AnswersCount across tracker+namenode failover", r.HadoopAC, "maps rerun", "blocks rereplicated"),
		mt,
	}
}
