// Fault tolerance: the paper's §VI-D discussion, executable — and
// reproducible. Faults are injected by the chaos engine from scripted
// plans (a node crash at a fixed virtual time), not by ad-hoc kill calls,
// so every run of this program prints exactly the same numbers. Four
// demonstrations on the same simulated platform:
//
//  1. Spark: a node crash mid-job; the heartbeat detector declares the
//     executor lost, the DAG scheduler rebuilds lost partitions from
//     lineage, and the job finishes with the same answer.
//
//  2. HDFS: a node crash under a client; reads fail over to surviving
//     replicas transparently and replication is restored in the
//     background after the namenode's timeout.
//
//  3. MPI: classical checkpoint/restart via RunResilient — pay defensive
//     I/O up front; a crash detected at the next barrier rolls the whole
//     world back to the last checkpoint.
//
//  4. RDA (the §VIII convergence prototype): Spark-style lineage recovery
//     on the HPC runtime, compared with its own checkpoints.
//
//     go run ./examples/faulttolerance
package main

import (
	"fmt"
	"time"

	"hpcbd/internal/chaos"
	"hpcbd/internal/cluster"
	"hpcbd/internal/dfs"
	"hpcbd/internal/mpi"
	"hpcbd/internal/rda"
	"hpcbd/internal/rdd"
	"hpcbd/internal/sim"
)

func main() {
	sparkLineage()
	dfsFailover()
	mpiCheckpoint()
	rdaPrototype()
}

// sparkJob runs a count twice over a persisted shuffle; if crashAt > 0, a
// scripted plan crashes node 2 that long into the second count (and
// recovers it later). It returns the duration of the second count.
func sparkJob(crashAt time.Duration, report bool) time.Duration {
	c := cluster.Comet(sim.NewKernel(1), 4)
	conf := rdd.DefaultConfig()
	conf.HeartbeatTimeout = 10 * time.Millisecond
	ctx := rdd.NewContext(c, conf)
	var dur time.Duration
	c.K.Spawn("driver", func(p *sim.Proc) {
		data := make([]int, 10000)
		for i := range data {
			data[i] = i
		}
		pairs := rdd.Map(rdd.Parallelize(ctx, "data", data, 16, 8),
			func(v int) rdd.KV[int, int] { return rdd.KV[int, int]{K: v % 100, V: v} })
		sums := rdd.ReduceByKey(pairs, func(a, b int) int { return a + b }, 8).Persist(rdd.MemoryOnly)

		before, _ := rdd.Count(p, sums)
		var eng *chaos.Engine
		if crashAt > 0 {
			eng = chaos.Install(c, chaos.Script(
				chaos.Event{At: crashAt, Node: 2, Kind: chaos.NodeCrash},
				chaos.Event{At: crashAt + time.Second, Node: 2, Kind: chaos.NodeRecover},
			))
		}
		start := p.Now()
		after, err := rdd.Count(p, sums)
		dur = p.Now().Sub(start)
		if report {
			fmt.Printf("   count before crash: %d, after: %d (err=%v)\n", before, after, err)
			fmt.Printf("   chaos: %s\n", eng.Summary())
			fmt.Printf("   executors lost: %d, partitions recomputed from lineage: %d, tasks retried: %d\n\n",
				ctx.ExecutorsLost, ctx.RecomputedPart, ctx.TasksRetried)
		}
	})
	c.K.Run()
	return dur
}

func sparkLineage() {
	fmt.Println("1. Spark: scripted node crash -> heartbeat loss detection -> lineage recomputation")
	clean := sparkJob(0, false)
	fmt.Printf("   clean second count: %v; replaying with node 2 crashing at %v\n", clean, clean/2)
	sparkJob(clean/2, true)
}

func dfsFailover() {
	fmt.Println("2. HDFS: node crash -> transparent read failover + re-replication")
	c := cluster.Comet(sim.NewKernel(1), 4)
	cfg := dfs.DefaultConfig()
	cfg.Replication = 2
	cfg.RereplicationDelay = 2 * time.Second
	fs := dfs.New(c, cluster.IPoIB(), cfg)
	c.K.Spawn("client", func(p *sim.Proc) {
		// Write from node 1 so node 1 holds the primary replica of every
		// block, then read from node 0 and crash node 1 mid-read: each
		// block's preferred replica is suddenly dead and the client must
		// fail over to the survivor.
		if err := fs.Create(p, 1, "/data", 512<<20); err != nil {
			panic(err)
		}
		chaos.Install(c, chaos.Script(chaos.Event{At: time.Millisecond, Node: 1, Kind: chaos.NodeCrash}))
		err := fs.Read(p, 0, "/data", 0, 512<<20)
		fmt.Printf("   read across the crash: err=%v (failovers: %d, remote reads: %d)\n",
			err, fs.ReadFailovers(), fs.RemoteReads())
		p.Sleep(time.Minute) // let the namenode time out and re-replicate
		reps, _ := fs.ReplicasOf("/data")
		fmt.Printf("   live replicas per block after re-replication: %v (blocks re-replicated: %d, %d MB)\n\n",
			reps, fs.BlocksRereplicated(), fs.BytesRereplicated()>>20)
	})
	c.K.Run()
}

func mpiCheckpoint() {
	fmt.Println("3. MPI: checkpoint/restart (classical HPC defensive I/O)")
	const iters, state = 8, int64(64 << 20)
	run := func(plan *chaos.Plan) mpi.ResilientStats {
		c := cluster.Comet(sim.NewKernel(1), 2)
		if plan != nil {
			chaos.Install(c, plan)
		}
		return mpi.RunResilient(c, 8, 4, mpi.ResilientConfig{
			Iters: iters, CheckpointEvery: 2, StateBytes: state, RestartPenalty: 100 * time.Millisecond,
		}, func(r *mpi.Rank, it int) {
			r.Compute(0.05)
		})
	}
	clean := run(nil)
	// Crash node 1 three quarters of the way through the clean duration.
	at := time.Duration(0.75 * clean.Seconds * float64(time.Second))
	failed := run(chaos.Script(chaos.Event{At: at, Node: 1, Kind: chaos.NodeCrash}))
	fmt.Printf("   clean run: %.3fs (%d checkpoints)\n", clean.Seconds, clean.Checkpoints)
	fmt.Printf("   with a crash at %v: %.3fs — %d restart(s), %d iterations redone (overhead %.3fs)\n\n",
		at, failed.Seconds, failed.Restarts, failed.RedoneIters, failed.Seconds-clean.Seconds)
}

func rdaPrototype() {
	fmt.Println("4. RDA prototype: Spark-style lineage on the HPC runtime (§VIII)")
	c := cluster.Comet(sim.NewKernel(1), 2)
	mpi.Run(c, 4, 2, func(r *mpi.Rank) {
		j := rda.NewJob(r, r.World(), 1<<16)
		base := j.Generate("base", func(i int) float64 { return float64(i % 97) })
		smoothed := base.Shift(-1).ZipWith(base, func(l, c float64) float64 { return (l + c) / 2 })
		sum1 := smoothed.Reduce(mpi.OpSum)

		// Simulate losing every partition, then recover by lineage replay.
		start := r.Now()
		base.Drop()
		smoothed.Drop()
		sum2 := smoothed.Reduce(mpi.OpSum)
		if r.Rank() == 0 {
			fmt.Printf("   sum before loss: %.0f, after lineage recovery: %.0f (recovered in %v)\n",
				sum1, sum2, r.Now()-start)
		}
	})
}
