package core

// The §VI-D fault-tolerance sweep: the same workloads the paper times in
// Figs 4 and 6, re-run under a seeded chaos plan that crashes nodes at an
// MTBF-controlled rate, for Spark (lineage + DFS re-replication recovery)
// and MPI (coordinated checkpoint/restart via RunResilient). A second
// series varies the MPI checkpoint interval under a fixed failure script.
// Everything is deterministic: the same Options produce bit-identical
// results, which CheckChaosSweep verifies by comparing two runs.

import (
	"fmt"
	"time"

	"hpcbd/internal/chaos"
	"hpcbd/internal/rdd"
	"hpcbd/internal/sim"
	"hpcbd/internal/workload"
)

// SparkChaosOverheadBound is the documented ceiling on Spark completion
// time under chaos relative to the failure-free run: lineage recovery must
// finish every job, with a bit-correct result, within this factor at every
// injected failure rate — including the harshest point of the sweep,
// MTBF = T/4, where the cluster expects four node failures per
// failure-free job duration and each crash cascades (the delayed job is
// exposed to yet more crashes).
const SparkChaosOverheadBound = 16.0

// The sweep's failure-handling knobs scale with the measured failure-free
// duration T of each workload, so the experiment keeps the same shape
// whether T is half a second (Quick) or minutes (Full): crashed nodes
// rejoin after T/8, failure detectors (Spark heartbeat, DFS namenode
// timeout) fire after T/20, and an MPI restart costs T/16. The ratios
// mirror production settings (10s heartbeats, minute-scale reboots)
// relative to jobs that run tens of minutes.
func chaosDowntime(cleanT time.Duration) time.Duration   { return max(cleanT/8, time.Millisecond) }
func chaosDetect(cleanT time.Duration) time.Duration     { return max(cleanT/20, time.Millisecond) }
func chaosRestartPen(cleanT time.Duration) time.Duration { return max(cleanT/16, time.Millisecond) }

// ChaosPoint is one (workload, failure rate) cell of the sweep.
type ChaosPoint struct {
	MTBFSeconds float64 // mean time between node crashes; 0 = no injection
	Seconds     float64 // virtual completion time
	Completed   bool    // job finished AND its result matches the serial oracle
	Crashes     int     // node crashes the chaos engine actually injected

	// Spark / DFS recovery counters.
	ExecutorsLost   int64
	RecomputedParts int64
	ReadFailovers   int64
	Rereplicated    int64

	// MPI checkpoint/restart counters.
	Restarts    int
	Checkpoints int
	RedoneIters int
}

// CkptPoint is one cell of the checkpoint-interval series: the same fixed
// failure script replayed while only CheckpointEvery varies.
type CkptPoint struct {
	Every       int // iterations between checkpoints
	Seconds     float64
	Completed   bool
	Restarts    int
	Checkpoints int
	RedoneIters int
}

// ChaosSweepResult holds the full §VI-D sweep.
type ChaosSweepResult struct {
	Nodes   int
	SparkAC []ChaosPoint // AnswersCount on the DFS (Fig 4 workload)
	SparkPR []ChaosPoint // tuned PageRank (Fig 6 workload)
	MPIPR   []ChaosPoint // PageRank-shaped resilient MPI job
	Ckpt    []CkptPoint  // checkpoint-interval series, fixed failure script
}

// chaosFault is one point of a chaos series: crashes drawn from plan at
// MTBF mtbf, with the failure handling scaled by the clean duration
// cleanT. The zero value is the failure-free run.
type chaosFault struct {
	mtbf, cleanT time.Duration
	plan         *chaos.Plan
}

// detect is the point's failure-detector timeout: T/20 under crashes,
// the defaults (0) on the clean run.
func (f chaosFault) detect() time.Duration {
	if f.mtbf > 0 {
		return chaosDetect(f.cleanT)
	}
	return 0
}

// ChaosSweep measures completion time versus failure rate for the Spark
// and MPI recovery models. Each series starts failure-free to establish
// the clean duration T, then injects crashes at MTBF = T, T/2 and T/4 so
// every job sees a comparable expected failure count regardless of scale.
// The three series run as concurrent jobs, then the checkpoint-interval
// points, which need the clean MPI run's duration.
func ChaosSweep(o Options) ChaosSweepResult {
	nodes := sweepNodes(o, 4)
	res := ChaosSweepResult{Nodes: nodes}

	// Each chaotic point gets a nested MTBF plan: the T crashes are a
	// subset of the T/2 crashes, which are a subset of the T/4 crashes,
	// all at identical times — so raising the failure rate can only add
	// faults, making overhead monotonicity exactly checkable.
	series := func(spare []int, run func(chaosFault) ChaosPoint) []ChaosPoint {
		return faultSeries(chaosFault{}, run, func(T time.Duration) []chaosFault {
			mtbfs := []time.Duration{T, T / 2, T / 4}
			plans := chaos.MTBFNested(o.Seed, nodes, mtbfs, 64*T,
				chaos.CrashOpts{Spare: spare, Downtime: chaosDowntime(T)})
			faults := make([]chaosFault, len(mtbfs))
			for i, m := range mtbfs {
				faults[i] = chaosFault{mtbf: m, cleanT: T, plan: plans[i]}
			}
			return faults
		})
	}
	spare := []int{0} // node 0 hosts the Spark driver and the namenode
	iters := 8 * o.PRIters
	ckptEvery := o.PRIters
	runLargestFirst([]job{
		{2, func() {
			res.MPIPR = series(nil, func(f chaosFault) ChaosPoint { return mpiPRChaos(o, nodes, iters, ckptEvery, f) })
		}},
		{1, func() {
			res.SparkPR = series(spare, func(f chaosFault) ChaosPoint { return sparkPRChaos(o, nodes, f) })
		}},
		{0, func() {
			res.SparkAC = series(spare, func(f chaosFault) ChaosPoint { return sparkACChaos(o, nodes, f) })
		}},
	})

	// Checkpoint-interval series: three crashes at fixed virtual times
	// (fractions of the clean duration), replayed for each interval.
	cleanT := virtual(res.MPIPR[0].Seconds)
	script := chaosFault{cleanT: cleanT, plan: chaos.Script(
		chaos.Event{At: 3 * cleanT / 10, Node: 1, Kind: chaos.NodeCrash},
		chaos.Event{At: 6 * cleanT / 10, Node: 2, Kind: chaos.NodeCrash},
		chaos.Event{At: 9 * cleanT / 10, Node: 3, Kind: chaos.NodeCrash},
	)}
	intervals := []int{iters, ckptEvery, (ckptEvery + 1) / 2, 1}
	res.Ckpt = make([]CkptPoint, len(intervals))
	var jobs []job
	for i, every := range intervals {
		jobs = append(jobs, job{0, func() {
			pt := mpiPRChaos(o, nodes, iters, every, script)
			res.Ckpt[i] = CkptPoint{
				Every: every, Seconds: pt.Seconds, Completed: pt.Completed,
				Restarts: pt.Restarts, Checkpoints: pt.Checkpoints, RedoneIters: pt.RedoneIters,
			}
		}})
	}
	runLargestFirst(jobs)
	return res
}

// sparkACChaos runs the Fig 4 Spark AnswersCount job on the DFS with an
// MTBF crash plan installed after staging (so data loading, which the
// paper excludes from measurements, is not disturbed). Node 0 is spared:
// it hosts the driver and the staged file's primary replicas.
func sparkACChaos(o Options, nodes int, f chaosFault) ChaosPoint {
	pt := ChaosPoint{MTBFSeconds: f.mtbf.Seconds()}
	var eng *chaos.Engine
	// A failed job leaves the point incomplete.
	sparkAC(o, nodes, acSetup{rereplicate: f.detect(), heartbeat: f.detect(),
		arm: func(_ *sim.Proc, r *acRun) {
			if f.plan != nil {
				eng = chaos.Install(r.c, f.plan)
			}
		},
		done: func(r *acRun) {
			pt.Completed, pt.Seconds = r.ok, r.secs
			// Counters are read here, at job completion, so chaos events
			// that fire after the job (the plan outlives it) are not
			// attributed.
			pt.ExecutorsLost, pt.RecomputedParts = r.ctx.ExecutorsLost, r.ctx.RecomputedPart
			pt.ReadFailovers, pt.Rereplicated = r.fs.ReadFailovers(), r.fs.BlocksRereplicated()
			if eng != nil {
				pt.Crashes = eng.Crashes
			}
		}})
	return pt
}

// sparkPRChaos runs the Fig 6 tuned Spark PageRank (partitioned +
// persisted links and ranks) under an MTBF crash plan. Losing an executor
// here costs cached partitions, so recovery exercises lineage recompute
// through the iteration chain, not just source re-reads.
func sparkPRChaos(o Options, nodes int, f chaosFault) ChaosPoint {
	pt := ChaosPoint{MTBFSeconds: f.mtbf.Seconds()}
	c := newCluster(o.Seed, nodes)
	g := workload.NewGraph(o.Seed, o.PRPhysVertices, o.PRLogicalVertices, o.PRAvgDegree)
	want := g.SerialPageRank(o.PRIters)
	conf := rdd.DefaultConfig()
	conf.CoresPerExecutor = o.PRPPN
	conf.Scale = g.Scale()
	if d := f.detect(); d > 0 {
		conf.HeartbeatTimeout = d
	}
	ctx := rdd.NewContext(c, conf)
	nparts := nodes * o.PRPPN
	avgDeg := float64(g.NumEdges()) / float64(g.NumVertices)
	adjBytes := int64(48 + 16*avgDeg)
	var eng *chaos.Engine
	c.K.Spawn("spark-driver", func(p *sim.Proc) {
		if f.plan != nil {
			eng = chaos.Install(c, f.plan)
		}
		start := p.Now()
		n := g.NumVertices
		links := rdd.FromSource(ctx, "links", nparts, nil,
			func(tv rdd.TaskView, part int) []rdd.KV[int32, []int32] {
				lo, hi := part*n/nparts, (part+1)*n/nparts
				tv.Proc().ReadScratch(int64(float64(hi-lo) * ctx.Conf.Scale * float64(adjBytes)))
				out := make([]rdd.KV[int32, []int32], 0, hi-lo)
				for v := lo; v < hi; v++ {
					out = append(out, rdd.KV[int32, []int32]{K: int32(v), V: g.OutEdges(v)})
				}
				return out
			}, adjBytes)
		links = rdd.PartitionBy(links, nparts).Persist(rdd.MemoryOnly)
		ranks := rdd.MapValues(links, func([]int32) float64 { return 1.0 })
		for it := 0; it < o.PRIters; it++ {
			joined := rdd.Join(links, ranks, nparts)
			contribs := rdd.FlatMap(joined, func(kv rdd.KV[int32, rdd.JoinPair[[]int32, float64]]) []rdd.KV[int32, float64] {
				urls, rank := kv.V.Left, kv.V.Right
				share := rank / float64(len(urls))
				out := make([]rdd.KV[int32, float64], len(urls))
				for i, u := range urls {
					out[i] = rdd.KV[int32, float64]{K: u, V: share}
				}
				return out
			}).WithRecordBytes(12)
			contribs.Persist(rdd.MemoryAndDisk)
			sums := rdd.ReduceByKey(contribs, func(a, b float64) float64 { return a + b }, nparts)
			ranks = rdd.MapValues(sums, func(s float64) float64 {
				return (1 - workload.Damping) + workload.Damping*s
			})
			ranks.Persist(rdd.MemoryAndDisk)
		}
		final, err := rdd.Collect(p, ranks)
		if err != nil {
			return
		}
		pt.Seconds = p.Now().Sub(start).Seconds()
		got := make([]float64, n)
		for i := range got {
			got[i] = 1 - workload.Damping
		}
		for _, kv := range final {
			got[kv.K] = kv.V
		}
		pt.Completed = len(got) == len(want) && rankMismatch(got, want) < 0
		pt.ExecutorsLost = ctx.ExecutorsLost
		pt.RecomputedParts = ctx.RecomputedPart
		if eng != nil {
			pt.Crashes = eng.Crashes
		}
	})
	c.K.Run()
	return pt
}

// mpiPRChaos runs a PageRank-shaped iterative MPI job (the Fig 6
// per-iteration compute volume plus one allreduce) under RunResilient
// with the point's chaos plan. Node crashes are detected at iteration
// barriers and roll the whole world back to the last checkpoint, at a
// restart penalty of T/16.
func mpiPRChaos(o Options, nodes, iters, every int, f chaosFault) ChaosPoint {
	pt := ChaosPoint{MTBFSeconds: f.mtbf.Seconds()}
	c := newCluster(o.Seed, nodes)
	if f.plan != nil {
		chaos.Install(c, f.plan)
	}
	st := runResilientLoop(o, c, nodes, iters, every, chaosRestartPen(f.cleanT))
	pt.Seconds = st.Seconds
	pt.Completed = st.Completed
	pt.Restarts = st.Restarts
	pt.Checkpoints = st.Checkpoints
	pt.RedoneIters = st.RedoneIters
	if f.plan != nil {
		// The plan outlives the job (the kernel drains the remaining
		// events); report only the crashes the job was exposed to.
		pt.Crashes = f.plan.CrashesWithin(virtual(st.Seconds))
	}
	return pt
}

func fmtInt(v int64) string { return fmt.Sprintf("%d", v) }

// ChaosTables renders the sweep as report tables.
func ChaosTables(r ChaosSweepResult) []Table {
	mtbf := func(s float64) string {
		if s == 0 {
			return "none"
		}
		return fmtSeconds(s)
	}
	spark := func(id, title string, pts []ChaosPoint, dfsCols bool) Table {
		cols := []string{"MTBF", "crashes", "exec lost", "parts recomputed"}
		if dfsCols {
			cols = append(cols, "read failovers", "blocks rereplicated")
		}
		return seriesTable(id, title, cols, pts, func(p ChaosPoint) (string, []string) {
			row := []string{fmtInt(int64(p.Crashes)), fmtInt(p.ExecutorsLost), fmtInt(p.RecomputedParts)}
			if dfsCols {
				row = append(row, fmtInt(p.ReadFailovers), fmtInt(p.Rereplicated))
			}
			return mtbf(p.MTBFSeconds), row
		})
	}
	out := []Table{
		spark("chaos-spark-ac", "Spark AnswersCount under node crashes (lineage + DFS recovery)", r.SparkAC, true),
		spark("chaos-spark-pr", "Spark PageRank (tuned) under node crashes (lineage recovery)", r.SparkPR, false),
	}
	mt := seriesTable("chaos-mpi", "MPI resilient PageRank under node crashes (checkpoint/restart)",
		[]string{"MTBF", "crashes", "restarts", "checkpoints", "iters redone"}, r.MPIPR, func(p ChaosPoint) (string, []string) {
			return mtbf(p.MTBFSeconds), []string{fmtInt(int64(p.Crashes)), fmtInt(int64(p.Restarts)),
				fmtInt(int64(p.Checkpoints)), fmtInt(int64(p.RedoneIters))}
		})
	ct := Table{ID: "chaos-ckpt", Title: "MPI checkpoint interval vs rework (fixed 3-crash script)",
		Columns: []string{"ckpt every", "time", "restarts", "checkpoints", "iters redone"}}
	for _, p := range r.Ckpt {
		ct.Rows = append(ct.Rows, []string{fmtInt(int64(p.Every)), fmtSeconds(p.Seconds),
			fmtInt(int64(p.Restarts)), fmtInt(int64(p.Checkpoints)), fmtInt(int64(p.RedoneIters))})
	}
	return append(out, mt, ct)
}
