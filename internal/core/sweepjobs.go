package core

// The building blocks the fault sweeps (chaos, transport, master,
// partition, tail, overload) share, so every sweep times the same jobs
// on the same stacks and says only what its points vary:
//
//   - sparkAC and hadoopAC run the Fig 4 AnswersCount job on a stack
//     built from the point's acSetup: its fault hooks, failure
//     detectors, retry budget and HA layout;
//   - prPlain is the PageRank-shaped plain-MPI contrast and
//     runResilientLoop its checkpoint/restart twin;
//   - sumJob is the small shuffle job the tail and overload sweeps
//     time;
//   - faultSeries runs a clean point, then fault points scaled by the
//     clean run's duration T, in order; the chaos, master and partition
//     sweeps run each series as one job on runLargestFirst;
//   - ctlFault is the control-plane fault (a master kill or a leader
//     cut) of the master and partition sweeps, which share one runner
//     per workload (dfsCtl, sparkCtl, hadoopCtl, mpiCtl).
//
// The Fig 4 and Fig 6 implementations in impl_answerscount.go and
// impl_pagerank.go stay separate because Table III counts the lines
// inside their bench: regions; TestSweepBaselinesMatchFigures pins these
// runners to them.

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"hpcbd/internal/chaos"
	"hpcbd/internal/cluster"
	"hpcbd/internal/dfs"
	"hpcbd/internal/ha"
	"hpcbd/internal/mapred"
	"hpcbd/internal/mpi"
	"hpcbd/internal/rdd"
	"hpcbd/internal/sim"
	"hpcbd/internal/transport"
	"hpcbd/internal/workload"
)

// acFile is the DFS path every AnswersCount job stages and reads.
const acFile = "/stackexchange"

// standbys host the standby masters of every journaled master on node 0.
var standbys = []int{1, 2}

// sweepNodes is the sweeps' cluster size: the largest PageRank point,
// but never fewer than least nodes.
func sweepNodes(o Options, least int) int {
	return max(o.PRNodes[len(o.PRNodes)-1], least)
}

// virtual converts a point's virtual seconds back to a duration.
func virtual(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// acSetup is what a sweep point varies in the stack its job runs on;
// the fields left zero keep the Fig 4 stack's defaults.
type acSetup struct {
	prep        func(c *cluster.Cluster)    // runs on the new cluster before anything is built on it
	rereplicate time.Duration               // DFS re-replication delay; 0 keeps the default
	heartbeat   time.Duration               // Spark executor heartbeat timeout; 0 keeps the default
	retry       bool                        // task retries never run out (a cut-off node fails work until the heal)
	ha          *ha.Config                  // journaled masters on node 0, standbys on nodes 1 and 2; nil = no HA
	arm         func(p *sim.Proc, r *acRun) // installs the faults, after untimed staging; required
	done        func(r *acRun)              // reads counters at job completion (Spark: on success only)
}

// acRun is one run on a sweep stack: the stack, for the counters a sweep
// reads after the kernel drains, and what the job returned.
type acRun struct {
	c      *cluster.Cluster
	fs     *dfs.DFS
	ctx    *rdd.Context // Spark runs only
	groups []*ha.Group  // the journaled masters, namenode first; nil without HA

	ok     bool    // completed with the oracle's answer
	secs   float64 // the timed region; 0 when a Spark job or a DFS script failed
	digest string  // the output's fingerprint

	fetchFailures int64           // shuffle fetches that exhausted their retries
	shuffle       transport.Stats // the shuffle's reliable-transport counters
	mapsRerun     int             // Hadoop map outputs invalidated and re-run
	opsFailed     int             // client ops (a failed Spark job counts one) that returned errors

	execLost, rereplicated int64 // what the master sweep reports
}

// newStack builds the point's cluster and DFS, journaling the namenode
// under HA seed haSeed when the setup asks for HA.
func (s acSetup) newStack(o Options, nodes int, haSeed int64) *acRun {
	r := &acRun{c: newCluster(o.Seed, nodes)}
	if s.prep != nil {
		s.prep(r.c)
	}
	cfg := dfs.DefaultConfig()
	if s.rereplicate > 0 {
		cfg.RereplicationDelay = s.rereplicate
	}
	r.fs = dfs.New(r.c, cluster.IPoIB(), cfg)
	if s.ha != nil {
		r.groups = append(r.groups, r.fs.EnableHA(standbys, *s.ha, haSeed))
	}
	return r
}

// acRunner is sparkAC or hadoopAC.
type acRunner func(o Options, nodes int, s acSetup) *acRun

// sparkAC runs the Fig 4 Spark AnswersCount job at o.ACPPN cores per
// executor, with the driver journaled under HA when the setup asks for
// it, and drives the kernel to quiescence. The driver stages the file
// (untimed, as the paper's methodology excludes data loading), arms the
// faults, then times DFSTextRDD → MapPartitions → Reduce.
func sparkAC(o Options, nodes int, s acSetup) *acRun {
	r := s.newStack(o, nodes, o.Seed+1)
	d := workload.NewStackExchange(o.Seed, o.ACBytes, o.ACRecordBytes, o.ACStride)
	conf := rdd.DefaultConfig()
	conf.CoresPerExecutor = o.ACPPN
	conf.Scale = float64(d.Stride)
	if s.heartbeat > 0 {
		conf.HeartbeatTimeout = s.heartbeat
	}
	if s.retry {
		conf.MaxTaskRetries = 1 << 20
	}
	r.ctx = rdd.NewContext(r.c, conf)
	if s.ha != nil {
		r.groups = append(r.groups, r.ctx.EnableDriverHA(standbys, *s.ha, o.Seed+2))
	}
	r.c.K.Spawn("spark-driver", func(p *sim.Proc) {
		ensureFile(p, r.fs, acFile, d.LogicalBytes())
		s.arm(p, r)
		start := p.Now()
		posts := DFSTextRDD(r.ctx, r.fs, acFile, d)
		counts := rdd.MapPartitions(posts, func(in []workload.Post) []workload.AnswersCountResult {
			var acc workload.AnswersCountResult
			for _, post := range in {
				if post.Question {
					acc.Questions++
				} else {
					acc.Answers++
				}
			}
			return []workload.AnswersCountResult{acc}
		})
		total, err := rdd.Reduce(p, counts, func(a, b workload.AnswersCountResult) workload.AnswersCountResult {
			return workload.AnswersCountResult{Questions: a.Questions + b.Questions, Answers: a.Answers + b.Answers}
		})
		if err != nil {
			r.opsFailed++
			return
		}
		r.ok = total == d.SerialAnswersCount()
		r.secs = p.Now().Sub(start).Seconds()
		r.digest = fmt.Sprintf("q=%d;a=%d", total.Questions, total.Answers)
		if s.done != nil {
			s.done(r)
		}
	})
	r.c.K.Run()
	r.fetchFailures, r.shuffle = r.ctx.FetchFailures, r.ctx.ShuffleTransportStats()
	return r
}

// hadoopAC runs the Fig 4 Hadoop AnswersCount job at o.ACPPN slots per
// node, with the job tracker journaled across nodes 0-2 when the setup
// asks for HA. The client stages the file untimed and arms the faults
// before submitting the job.
func hadoopAC(o Options, nodes int, s acSetup) *acRun {
	r := s.newStack(o, nodes, o.Seed+3)
	d := workload.NewStackExchange(o.Seed, o.ACBytes, o.ACRecordBytes, o.ACStride)
	mc := mapred.DefaultConfig(r.c.Size())
	mc.SlotsPerNode = o.ACPPN
	mc.PairBytes = 16 * d.Stride
	if s.retry {
		mc.MaxAttempts = 1 << 20
	}
	job := &mapred.Job[workload.Post, string, int64]{
		Cluster: r.c,
		Fabric:  cluster.IPoIB(),
		Name:    "answerscount-sweep",
		Input:   &dfsMRInput{c: r.c, fs: r.fs, file: acFile, d: d},
		Map: func(post workload.Post, emit func(string, int64)) {
			if post.Question {
				emit("q", 1)
			} else {
				emit("a", 1)
			}
		},
		Reduce: func(key string, vals []int64, emit func(string, int64)) {
			var s int64
			for _, v := range vals {
				s += v
			}
			emit(key, s)
		},
		Conf: mc,
	}
	if s.ha != nil {
		job.HA = ha.New(r.c, cluster.IPoIB(), "jobtracker", []int{0, 1, 2}, *s.ha, o.Seed+4)
		r.groups = append(r.groups, job.HA)
	}
	r.c.K.Spawn("hadoop-client", func(p *sim.Proc) {
		ensureFile(p, r.fs, acFile, d.LogicalBytes())
		s.arm(p, r)
		out, st := job.Run(p)
		got, digest := hadoopACResult(out)
		r.ok, r.secs, r.digest = got == d.SerialAnswersCount(), st.Elapsed.Seconds(), digest
		r.fetchFailures, r.mapsRerun = int64(st.FetchFailures), st.MapsRerun
		if s.done != nil {
			s.done(r)
		}
	})
	r.c.K.Run()
	r.shuffle = job.Transport.Stats
	return r
}

// hadoopACResult reads a Hadoop AnswersCount output: the q/a counts and
// a digest of every key=count in key order.
func hadoopACResult(out []mapred.Pair[string, int64]) (workload.AnswersCountResult, string) {
	kv := map[string]int64{}
	keys := make([]string, 0, len(out))
	for _, pair := range out {
		keys = append(keys, pair.Key)
		kv[pair.Key] = pair.Val
	}
	sort.Strings(keys)
	var digest string
	for _, k := range keys {
		digest += fmt.Sprintf("%s=%d;", k, kv[k])
	}
	return workload.AnswersCountResult{Questions: kv["q"], Answers: kv["a"]}, digest
}

// prLoopShape sizes the PageRank-shaped MPI job the fault sweeps contrast
// with the Big Data stacks: np ranks at o.PRPPN per node, each computing
// its share of one Fig 6 iteration's edge work, with its share of the
// rank vector as checkpoint state.
func prLoopShape(o Options, c *cluster.Cluster, nodes int) (np int, perRank float64, stateBytes int64) {
	g := workload.NewGraph(o.Seed, o.PRPhysVertices, o.PRLogicalVertices, o.PRAvgDegree)
	np = nodes * o.PRPPN
	perRank = float64(g.NumEdges()) * g.Scale() * c.Cost.PerEdgeC.Seconds() / float64(np)
	stateBytes = int64(float64(g.NumVertices) * g.Scale() * 8 / float64(np))
	return np, perRank, stateBytes
}

// plainLoop is the plain-MPI contrast job: np ranks at ppn per node, each
// running iters rounds of perRank seconds of compute and a one-value sum
// Allreduce, with no delivery guarantee and no recovery.
type plainLoop struct {
	w    *mpi.World
	ok   bool    // rank 0's last sum counted every rank
	sum  float64 // rank 0's last sum
	secs float64 // rank 0's loop time
}

// launchPlainLoop launches the loop; the caller runs the kernel. A rank
// whose node has died parks forever, as a dead process issues no further
// send — and the survivors' next collective then parks too.
func launchPlainLoop(c *cluster.Cluster, np, ppn, iters int, perRank float64) *plainLoop {
	l := &plainLoop{}
	l.w = mpi.Launch(c, np, ppn, func(r *mpi.Rank) {
		start := r.Now()
		var last []float64
		for it := 0; it < iters; it++ {
			if !c.NodeAlive(r.Node()) {
				(&sim.Signal{}).Wait(r.Proc())
			}
			r.Compute(perRank)
			last = r.World().Allreduce(r, []float64{1}, mpi.OpSum, 8)
		}
		if r.Rank() == 0 {
			l.ok = last[0] == float64(np)
			l.sum = last[0]
			l.secs = r.Now().Sub(start).Seconds()
		}
	})
	return l
}

// runPlainLoop launches the loop and runs the kernel until it runs out
// of work. A deadlocked world reports, as its seconds, the time the last
// runnable process parked.
func runPlainLoop(c *cluster.Cluster, np, ppn, iters int, perRank float64) *plainLoop {
	l := launchPlainLoop(c, np, ppn, iters, perRank)
	end := c.K.Run()
	if !l.w.Done() {
		l.secs = end.Seconds()
	}
	return l
}

// done reports whether every rank finished and rank 0's sum was exact.
func (l *plainLoop) done() bool { return l.w.Done() && l.ok }

// prPlain runs the PageRank-shaped plain-MPI contrast on c, whose faults
// the caller has installed: 8 x o.PRIters iterations of a Fig 6
// iteration's per-rank edge work and a one-value sum Allreduce.
func prPlain(o Options, c *cluster.Cluster, nodes int) *plainLoop {
	np, perRank, _ := prLoopShape(o, c, nodes)
	return runPlainLoop(c, np, o.PRPPN, 8*o.PRIters, perRank)
}

// runResilientLoop runs the PageRank-shaped job under RunResilient:
// iters iterations, a coordinated checkpoint every `every`, and penalty
// added per rollback.
func runResilientLoop(o Options, c *cluster.Cluster, nodes, iters, every int, penalty time.Duration) mpi.ResilientStats {
	np, perRank, stateBytes := prLoopShape(o, c, nodes)
	return mpi.RunResilient(c, np, o.PRPPN,
		mpi.ResilientConfig{Iters: iters, CheckpointEvery: every, StateBytes: stateBytes, RestartPenalty: penalty},
		func(r *mpi.Rank, it int) {
			r.Compute(perRank)
			r.World().Allreduce(r, []float64{1}, mpi.OpSum, 8)
		})
}

// sumJob runs one small ReduceByKey job — recs records of recBytes per
// partition, generated on every executor, shuffled into nparts buckets
// and summed — and checks the result against the closed form. A
// persisted source is cached at MemoryAndDisk for the job and dropped
// after it.
func sumJob(p *sim.Proc, ctx *rdd.Context, name string, nparts, recs int, recBytes int64, persist bool) bool {
	src := rdd.FromSource(ctx, name, nparts, nil,
		func(tv rdd.TaskView, part int) []rdd.KV[int32, int64] {
			tv.Proc().ReadScratch(int64(recs) * recBytes)
			out := make([]rdd.KV[int32, int64], recs)
			for i := range out {
				out[i] = rdd.KV[int32, int64]{K: int32(part*recs + i), V: 1}
			}
			return out
		}, recBytes)
	if persist {
		src.Persist(rdd.MemoryAndDisk)
	}
	sums := rdd.ReduceByKey(src, func(a, b int64) int64 { return a + b }, nparts)
	out, err := rdd.Collect(p, sums)
	if persist {
		src.Unpersist()
	}
	if err != nil || len(out) != nparts*recs {
		return false
	}
	var total int64
	for _, kv := range out {
		total += kv.V
	}
	return total == int64(nparts*recs)
}

// timed is a sweep point with a virtual completion time.
type timed interface{ seconds() float64 }

func (p ChaosPoint) seconds() float64     { return p.Seconds }
func (p TransportPoint) seconds() float64 { return p.Seconds }
func (p MasterPoint) seconds() float64    { return p.Seconds }
func (p PartitionPoint) seconds() float64 { return p.Seconds }

// faultSeries runs one series of a sweep: the clean point first, then
// one point per fault that faults derives from the clean run's duration
// T, so the experiment keeps its shape whether T is half a second
// (Quick) or minutes (Full).
func faultSeries[F any, P timed](clean F, run func(F) P, faults func(T time.Duration) []F) []P {
	first := run(clean)
	pts := []P{first}
	for _, f := range faults(virtual(first.seconds())) {
		pts = append(pts, run(f))
	}
	return pts
}

// ctlFault is one point of the sweeps that fault the control plane.
// Every master (namenode, Spark driver, MapReduce job tracker) sits on
// node 0, journaled to standbys on nodes 1 and 2. The master sweep kills
// node 0 at kill x the clean duration; the partition sweep (cut) isolates
// it with split-1 other nodes from at for length. A point with neither
// is its sweep's clean run.
type ctlFault struct {
	cut        bool          // the partition sweep: heartbeats, a fencing mode and a fail-tolerant client
	fenced     bool          // epoch fencing on (cut only)
	cleanT     time.Duration // the measured clean duration; 0 on the clean run
	kill       float64       // node 0 dies at kill x cleanT; 0 = no kill
	split      int           // nodes isolated with the leader; 0 = no cut
	at, length time.Duration // the cut's window, from the start of the timed region
}

// haConfig scales the HA failure detector with the clean duration, like
// the chaos sweep's knobs: the lease (and so the fastest possible
// failover) is T/20, and the clean run takes the defaults. A cut adds a
// heartbeat, so the group watches reachability and not just liveness,
// and the fencing mode under test; the clean run uses the same config,
// as a heartbeat with no partition never fires.
func (f ctlFault) haConfig() *ha.Config {
	cfg := ha.Config{}
	if f.cleanT > 0 {
		cfg.LeaseTimeout = chaosDetect(f.cleanT)
	}
	if f.cut {
		cfg.Fenced = f.fenced
		lease := cfg.LeaseTimeout
		if lease <= 0 {
			lease = 500 * time.Millisecond // the ha.Config default
		}
		cfg.Heartbeat = max(lease/4, time.Millisecond)
	}
	return &cfg
}

// install arms the fault. The runners call it from the driving process
// after untimed staging and the MPI contrast before launch, so both
// times count from the start of the timed region. A killed node 0
// rejoins after the chaos downtime, which must NOT reclaim leadership or
// disturb the result; under plain MPI (rejoin false) it stays down, as
// no recovery exists to rejoin. A cut isolates partMinority's nodes,
// with the client when the leader is unfenced.
func (f ctlFault) install(c *cluster.Cluster, seed int64, client int, rejoin bool) {
	switch {
	case f.kill > 0:
		var down time.Duration
		if rejoin {
			down = chaosDowntime(f.cleanT)
		}
		chaos.Install(c, chaos.MasterKill(0, time.Duration(f.kill*float64(f.cleanT)), down))
	case f.split > 0:
		c.EnableNetFaults(seed)
		chaos.Install(c, chaos.SplitBrain(partMinority(c.Size(), f.split, client, !f.fenced), f.at, f.length))
	}
}

// setup is the fault's stack, with the client on the last node. After a
// kill the DFS and Spark detect the dead node within T/20; under a cut
// Spark does too, and a minority-pinned executor or reducer fails work
// until the heal, so its retry budget must outlive the window.
func (f ctlFault) setup(o Options, nodes int) acSetup {
	s := acSetup{ha: f.haConfig(), arm: func(_ *sim.Proc, r *acRun) { f.install(r.c, o.Seed, nodes-1, true) }}
	switch {
	case f.kill > 0:
		s.rereplicate, s.heartbeat = chaosDetect(f.cleanT), chaosDetect(f.cleanT)
	case f.split > 0:
		s.heartbeat, s.retry = chaosDetect(f.cleanT), true
	}
	return s
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

// ctlRunner runs one workload of the control-plane sweeps.
type ctlRunner func(o Options, nodes int, f ctlFault) *acRun

// dfsCtl runs the metadata-heavy DFS client script from the last node
// (dfsClientScript) against the journaled namenode. Under a kill a
// failed op ends the script and the digest is what the client saw at
// completion. Under a cut the script is fail-tolerant, counting failed
// ops and going on, and the digest is taken after the kernel drains: in
// the unfenced arm the heal-time truncation has already rolled the
// namespace back, so it is what the CLUSTER remembers, not what the
// client was told. Either way the digest must come out identical
// whichever namenode generation served each op.
func dfsCtl(o Options, nodes int, f ctlFault) *acRun {
	s := f.setup(o, nodes)
	r := s.newStack(o, nodes, o.Seed)
	r.c.K.Spawn("dfs-client", func(p *sim.Proc) {
		s.arm(p, r)
		start := p.Now()
		if !dfsClientScript(p, r.fs, nodes-1, dfs.DefaultConfig().BlockSize, func(n int) bool {
			r.opsFailed += n
			return !f.cut
		}) {
			return
		}
		r.secs = p.Now().Sub(start).Seconds()
		if !f.cut {
			r.digest = dfsDigest(r.fs)
			r.ok = digestShape(r.digest)
		}
	})
	r.c.K.Run()
	if f.cut {
		r.digest = dfsDigest(r.fs)
		r.ok = r.secs > 0 && r.opsFailed == 0 && digestShape(r.digest)
	}
	r.rereplicated = r.fs.BlocksRereplicated()
	return r
}

// sparkCtl runs Spark AnswersCount with BOTH masters on node 0, the
// driver and the namenode, so a kill or cut of node 0 takes out both
// (and an executor) in one blow; the job must still produce the oracle
// answer. Executor losses and re-replications are read at completion.
func sparkCtl(o Options, nodes int, f ctlFault) *acRun {
	s := f.setup(o, nodes)
	s.done = func(r *acRun) { r.execLost, r.rereplicated = r.ctx.ExecutorsLost, r.fs.BlocksRereplicated() }
	return sparkAC(o, nodes, s)
}

// hadoopCtl runs Hadoop AnswersCount with the job tracker and the
// namenode on node 0. A kill also loses the map outputs committed to
// node 0's local disk, which the round-based scheduler must invalidate
// and re-run; under a cut, stale-epoch task commits are refused and
// retried against the successor tracker.
func hadoopCtl(o Options, nodes int, f ctlFault) *acRun {
	r := hadoopAC(o, nodes, f.setup(o, nodes))
	r.rereplicated = r.fs.BlocksRereplicated()
	return r
}

// mpiCtl runs the plain-MPI contrast under the fault. Plain MPI has no
// replaceable master and no retransmission: a killed node's ranks stop,
// and messages a cut drops are never resent even though the cut heals,
// so the collective never completes, the survivors park forever and the
// kernel runs out of work.
func mpiCtl(o Options, nodes int, f ctlFault) *acRun {
	r := &acRun{c: newCluster(o.Seed, nodes)}
	f.install(r.c, o.Seed, -1, false)
	l := prPlain(o, r.c, nodes)
	r.ok, r.secs = l.done(), l.secs
	if l.w.Done() {
		r.digest = fmt.Sprintf("sum=%g", l.sum)
	}
	return r
}

// haCounters sums a run's HA groups' recovery counters.
type haCounters struct {
	failovers                                      int
	recovery                                       float64 // lease wait + election + journal replay, seconds
	journal                                        int64
	stepDowns, replDropped, quorumFails, lostAcked int64
	epoch                                          int64 // the highest leader epoch reached
}

func foldHA(groups []*ha.Group) haCounters {
	var h haCounters
	for _, g := range groups {
		h.failovers += g.Failovers
		h.recovery += g.TotalRecovery.Seconds()
		h.journal += g.EntriesLogged
		h.stepDowns += g.StepDowns
		h.replDropped += g.ReplDropped
		h.quorumFails += g.QuorumFailures
		h.lostAcked += g.LostAcked
		h.epoch = max(h.epoch, g.Epoch())
	}
	return h
}

// seriesTable renders one fault series: per point its fault, time and
// slowdown over the clean first point, then the cells row adds. cols
// heads the fault column and the added ones.
func seriesTable[P timed](id, title string, cols []string, pts []P, row func(P) (fault string, cells []string)) Table {
	t := Table{ID: id, Title: title, Columns: append([]string{cols[0], "time", "x clean"}, cols[1:]...)}
	clean := pts[0].seconds()
	for _, p := range pts {
		fault, cells := row(p)
		t.Rows = append(t.Rows, append([]string{fault, fmtSeconds(p.seconds()), fmtRatio(p.seconds() / clean)}, cells...))
	}
	return t
}

// deadlockTable renders an HA sweep's plain-MPI contrast: each fault,
// the run's time and whether it completed or deadlocked.
func deadlockTable[P any](id, title, faultCol string, pts []P, row func(P) (fault string, secs float64, done bool)) Table {
	t := Table{ID: id, Title: title, Columns: []string{faultCol, "time", "completed"}}
	for _, p := range pts {
		fault, secs, done := row(p)
		state := "deadlock"
		if done {
			state = "yes"
		}
		t.Rows = append(t.Rows, []string{fault, fmtSeconds(secs), state})
	}
	return t
}

// dfsClientScript runs the metadata-heavy DFS client workload from node
// client: six creates, two renames, a delete, whole-file reads of the
// five survivors, then one more create and read (bs is the block size).
// onErr is told how many ops a failure cost — two for a failed Stat, as
// the read it would have issued is lost too — and returning true stops
// the script. It reports whether the script ran to the end.
func dfsClientScript(p *sim.Proc, fs *dfs.DFS, client int, bs int64, onErr func(n int) (stop bool)) bool {
	failed := func(err error) bool { return err != nil && onErr(1) }
	for i := 0; i < 6; i++ {
		if failed(fs.Create(p, client, fmt.Sprintf("/m/f%d", i), int64(i%3+1)*bs/2)) {
			return false
		}
	}
	if failed(fs.Rename(p, client, "/m/f1", "/m/g1")) ||
		failed(fs.Rename(p, client, "/m/f3", "/m/g3")) ||
		failed(fs.Delete(p, client, "/m/f0")) {
		return false
	}
	for _, name := range []string{"/m/g1", "/m/f2", "/m/g3", "/m/f4", "/m/f5"} {
		sz, err := fs.Stat(name)
		if err != nil {
			if onErr(2) {
				return false
			}
			continue
		}
		if failed(fs.Read(p, client, name, 0, sz)) {
			return false
		}
	}
	return !failed(fs.Create(p, client, "/m/h0", bs/2)) &&
		!failed(fs.Read(p, client, "/m/h0", 0, bs/2))
}

// dfsDigest fingerprints the client script's namespace: every name under
// /m/ with its size, in listing order.
func dfsDigest(fs *dfs.DFS) string {
	var digest string
	for _, name := range fs.List("/m/") {
		sz, _ := fs.Stat(name)
		digest += fmt.Sprintf("%s:%d;", name, sz)
	}
	return digest
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
