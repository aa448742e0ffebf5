package core

// The jobs the fault sweeps (chaos, transport, master, partition, tail,
// overload) run, one runner each, so every sweep times the same job. Each
// sweep still builds its own cluster, DFS, Spark context, HA groups and
// fault plan, and reads its own counters. The Fig 4 and Fig 6
// implementations in impl_answerscount.go and impl_pagerank.go stay
// separate because Table III counts the lines inside their bench:
// regions; TestSweepBaselinesMatchFigures pins these runners to them.

import (
	"fmt"
	"sort"
	"time"

	"hpcbd/internal/cluster"
	"hpcbd/internal/dfs"
	"hpcbd/internal/mapred"
	"hpcbd/internal/mpi"
	"hpcbd/internal/rdd"
	"hpcbd/internal/sim"
	"hpcbd/internal/workload"
)

// acFile is the DFS path every AnswersCount job stages and reads.
const acFile = "/stackexchange"

// sweepNodes is the sweeps' cluster size: the largest PageRank point,
// but never fewer than least nodes.
func sweepNodes(o Options, least int) int {
	return max(o.PRNodes[len(o.PRNodes)-1], least)
}

// sparkACJob runs the Fig 4 Spark AnswersCount job on ctx and drives the
// kernel to quiescence. The driver stages the file (untimed, as the
// paper's methodology excludes data loading), calls arm to install the
// sweep's faults, then times DFSTextRDD → MapPartitions → Reduce. On
// success, done runs inside the driver at job completion with the total
// and the timed seconds, so counters it reads exclude faults that fire
// after the job. The Reduce error, if any, is returned.
func sparkACJob(c *cluster.Cluster, fs *dfs.DFS, ctx *rdd.Context, d *workload.StackExchange,
	arm func(p *sim.Proc), done func(total workload.AnswersCountResult, secs float64)) error {
	var jobErr error
	c.K.Spawn("spark-driver", func(p *sim.Proc) {
		ensureFile(p, fs, acFile, d.LogicalBytes())
		arm(p)
		start := p.Now()
		posts := DFSTextRDD(ctx, fs, acFile, d)
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
			jobErr = err
			return
		}
		done(total, p.Now().Sub(start).Seconds())
	})
	c.K.Run()
	return jobErr
}

// hadoopACJob returns the Fig 4 Hadoop AnswersCount job over the staged
// file at o.ACPPN slots per node. Callers may adjust its Conf and HA
// before running it.
func hadoopACJob(o Options, c *cluster.Cluster, fs *dfs.DFS, d *workload.StackExchange,
	name string) *mapred.Job[workload.Post, string, int64] {
	mc := mapred.DefaultConfig(c.Size())
	mc.SlotsPerNode = o.ACPPN
	mc.PairBytes = 16 * d.Stride
	return &mapred.Job[workload.Post, string, int64]{
		Cluster: c,
		Fabric:  cluster.IPoIB(),
		Name:    name,
		Input:   &dfsMRInput{c: c, fs: fs, file: acFile, d: d},
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
