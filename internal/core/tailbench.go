package core

// The tail-latency (gray-failure) sweep: a sustained, seeded read +
// shuffle workload measured while a growing fraction of the cluster is
// gray — nodes that answer every heartbeat yet serve degraded (slow
// disk, limping compute, lossy NIC), so crash detection, speculation and
// HA all pass them by. The sweep runs every point twice, once with the
// latency-aware mitigations off (the stack as it ships) and once with
// them on (adaptive ack timeouts, outlier ejection, hedged replica
// reads, hedged shuffle fetches, a cluster-wide retry budget), and
// reports p50/p95/p99 latency plus goodput for each arm. A plain-MPI
// allreduce loop under the same gray plan (loss-free variant, so the
// job can finish at all) is the measured contrast: a BSP world is gated
// by its slowest rank, so one gray node costs the full slowdown factor.
// Everything is deterministic: CheckTailSweep compares two runs.

import (
	"fmt"
	"sort"
	"time"

	"hpcbd/internal/chaos"
	"hpcbd/internal/cluster"
	"hpcbd/internal/dfs"
	"hpcbd/internal/rdd"
	"hpcbd/internal/sim"
	"hpcbd/internal/transport"
)

// TailGrayFracs are the gray-node fractions the sweep injects (index 0
// is the all-healthy baseline). Victim sets are nested: the 10% victims
// are a subset of the 20% victims, and so on, at identical times.
var TailGrayFracs = []float64{0, 0.10, 0.20, 0.30}

// TailP99CutFactor is the documented floor on the mitigation win: at the
// 20% gray point, the mitigations-on arm must cut p99 read and shuffle
// latency by at least this factor versus mitigations-off.
const TailP99CutFactor = 2.0

// TailCleanP50Slack is the documented ceiling on what the mitigations
// may cost a perfectly healthy cluster: the on-arm p50 must stay within
// this factor of the off-arm p50 at the 0% gray point.
const TailCleanP50Slack = 1.05

// TailPoint is one (gray fraction, arm) cell of the sweep.
type TailPoint struct {
	GrayPct   float64
	Mitigate  bool // adaptive timeouts + ejection + hedging + retry budget
	Completed bool // every read served and every job oracle-correct

	ReadP50, ReadP95, ReadP99 float64 // seconds, pctile quantiles (round(q·n)-th smallest)
	JobP50, JobP95, JobP99    float64 // seconds, per shuffle job
	GoodputOps                float64 // completed ops per virtual second

	// Mitigation counters (all zero on the off arm).
	HedgesSent, HedgeWins        int64 // DFS reads + shuffle fetches
	PeersEjected, PeersRestored  int64
	RetriesBudgeted              int64
	Retries, Timeouts            int64 // transport recovery activity
	FetchFailures, ReadFailovers int64
	Grays                        int // gray-start events the engine injected
}

// TailMPIPoint is one gray fraction of the plain-MPI contrast series.
type TailMPIPoint struct {
	GrayPct   float64
	Seconds   float64
	Slowdown  float64 // x the gray-free run
	Completed bool
}

// TailSweepResult holds the full gray-failure sweep.
type TailSweepResult struct {
	Nodes    int
	GrayPcts []float64
	Off, On  []TailPoint    // aligned with GrayPcts
	MPI      []TailMPIPoint // plain MPI under the loss-free gray plan
}

// TailSweep measures tail latency and goodput versus gray-node fraction
// for both arms, plus the plain-MPI contrast. Unlike the other sweeps'
// points, these run one after another: a point's live heap is mostly its
// rdd context's shuffle buckets, and two points in flight raised the
// chaos ledger workload's peak RSS by 11 % (EXPERIMENTS.md).
func TailSweep(o Options) TailSweepResult {
	nodes := max(o.TailNodes, 6)
	res := TailSweepResult{Nodes: nodes}
	for _, f := range TailGrayFracs {
		count := int(f*float64(nodes) + 0.5)
		res.GrayPcts = append(res.GrayPcts, f*100)
		res.Off = append(res.Off, tailPoint(o, nodes, count, false))
		res.On = append(res.On, tailPoint(o, nodes, count, true))
		res.MPI = append(res.MPI, tailMPI(o, nodes, count))
	}
	clean := res.MPI[0].Seconds
	for i := range res.MPI {
		res.MPI[i].Slowdown = res.MPI[i].Seconds / clean
	}
	return res
}

// tailGrayPlan builds the sweep's gray plan: `count` victims (nested
// across counts by the shared seed), slowed by TailGrayFactor on disk,
// compute and NIC, with a TailGrayLoss per-message loss floor, starting
// 1ms after install and outliving any workload. Node 0 — the measuring
// client, the namenode and the Spark driver — is spared: the sweep
// studies gray servers, not a gray observer.
func tailGrayPlan(o Options, nodes, count int, loss float64) *chaos.Plan {
	return chaos.GrayNodes(o.Seed, nodes, count, o.TailGrayFactor, loss,
		time.Millisecond, 1000*time.Hour, chaos.CrashOpts{Spare: []int{0}})
}

// tailPoint runs the read + shuffle workload at one gray fraction with
// the mitigations on or off. Both arms enable the message-fault model
// (so both pay the identical ack/verify bookkeeping) and both run with
// speculation on — speculation watches task runtimes, not fetch and read
// tails, which is exactly the gap the gray sweep probes.
func tailPoint(o Options, nodes, gray int, mitigate bool) TailPoint {
	pt := TailPoint{GrayPct: 100 * float64(gray) / float64(nodes), Mitigate: mitigate}
	c := newCluster(o.Seed, nodes)
	c.EnableNetFaults(o.Seed)

	dcfg := dfs.DefaultConfig()
	dcfg.BlockSize = o.TailBlockBytes
	conf := rdd.DefaultConfig()
	conf.CoresPerExecutor = 2
	conf.Speculation = true
	if mitigate {
		// One token bucket shared by every reliable flow caps cluster-wide
		// retry amplification: when gray loss exhausts it, a send fails
		// over (reads) or recomputes (fetches) instead of retrying.
		bud := transport.NewRetryBudget(5, 8)
		for _, rc := range []*transport.Config{&dcfg.Retry, &conf.ShuffleRetry} {
			rc.Adaptive = true
			rc.EjectFactor = 4
			rc.EjectMinSamples = 16
			rc.Budget = bud
		}
		dcfg.Hedge = true
		conf.HedgedFetch = true
	}
	fs := dfs.New(c, cluster.IPoIB(), dcfg)
	ctx := rdd.NewContext(c, conf)
	nparts := nodes * conf.CoresPerExecutor

	// One small shuffle job: map outputs on gray nodes make the
	// reduce-side fetches the tail (slow source disk, stretched NIC,
	// bursty loss).
	job := func(p *sim.Proc, id int) bool {
		return sumJob(p, ctx, fmt.Sprintf("tail-src-%d", id), nparts, 1024, 512, false)
	}
	var eng *chaos.Engine
	var readLats, jobLats []time.Duration
	c.K.Spawn("tail-driver", func(p *sim.Proc) {
		// Stage one small file per non-client node (staging is untimed, as
		// everywhere in the suite). placeReplicas puts the first replica on
		// the writer, so each file's preferred replica lands away from the
		// measuring client and a rotating read schedule exercises every
		// server — including, later, the gray ones.
		for w := 1; w < nodes; w++ {
			if err := fs.Create(p, w, tailFile(w), int64(o.TailBlocks)*o.TailBlockBytes); err != nil {
				panic(err)
			}
		}
		if gray > 0 {
			eng = chaos.Install(c, tailGrayPlan(o, nodes, gray, o.TailGrayLoss))
			p.Sleep(2 * time.Millisecond) // let the gray plan arm
		}
		start := p.Now()
		ok := true
		for i := 0; i < o.TailReads; i++ {
			w := 1 + i%(nodes-1)
			blk := (i / (nodes - 1)) % o.TailBlocks
			t0 := p.Now()
			if err := fs.Read(p, 0, tailFile(w), int64(blk)*o.TailBlockBytes, o.TailBlockBytes); err != nil {
				ok = false
			}
			readLats = append(readLats, p.Now().Sub(t0))
		}
		elapsed := p.Now().Sub(start)
		// One untimed warmup job before the measured window, in both arms:
		// the sweep measures the sustained workload, not the cold start, so
		// the adaptive latency profiles (mitigated arm only) converge on the
		// same footing the off arm gets for free by having nothing to warm.
		if !job(p, -1) {
			ok = false
		}
		start = p.Now()
		for j := 0; j < o.TailJobs; j++ {
			t0 := p.Now()
			if !job(p, j) {
				ok = false
			}
			jobLats = append(jobLats, p.Now().Sub(t0))
		}
		elapsed += p.Now().Sub(start)
		pt.Completed = ok
		if el := elapsed.Seconds(); el > 0 {
			pt.GoodputOps = float64(o.TailReads+o.TailJobs) / el
		}
	})
	c.K.Run()

	pt.ReadP50, pt.ReadP95, pt.ReadP99 = pctile(readLats, 0.50), pctile(readLats, 0.95), pctile(readLats, 0.99)
	pt.JobP50, pt.JobP95, pt.JobP99 = pctile(jobLats, 0.50), pctile(jobLats, 0.95), pctile(jobLats, 0.99)
	pt.HedgesSent = fs.HedgesSent() + ctx.HedgesSent
	pt.HedgeWins = fs.HedgeWins() + ctx.HedgeWins
	meta, _ := fs.TransportStats()
	sh := ctx.ShuffleTransportStats()
	pt.PeersEjected = meta.PeersEjected + sh.PeersEjected
	pt.PeersRestored = meta.PeersRestored + sh.PeersRestored
	pt.RetriesBudgeted = meta.RetriesBudgeted + sh.RetriesBudgeted
	pt.Retries = meta.Retries + sh.Retries
	pt.Timeouts = meta.Timeouts + sh.Timeouts
	pt.FetchFailures = ctx.FetchFailures
	pt.ReadFailovers = fs.ReadFailovers()
	if eng != nil {
		pt.Grays = eng.Grays
	}
	return pt
}

func tailFile(w int) string { return fmt.Sprintf("/tail-%d", w) }

// tailMPI runs the plain-MPI contrast: an iterative compute + allreduce
// loop under the loss-free variant of the same gray plan. Plain MPI has
// no delivery guarantee, so the lossy plan would deadlock it on the
// first dropped frame; the loss-free variant isolates the paradigm-level
// finding — a bulk-synchronous world cannot route around a slow member,
// it simply runs at the slowest rank's pace.
func tailMPI(o Options, nodes, gray int) TailMPIPoint {
	pt := TailMPIPoint{GrayPct: 100 * float64(gray) / float64(nodes)}
	c := newCluster(o.Seed, nodes)
	c.EnableNetFaults(o.Seed)
	if gray > 0 {
		chaos.Install(c, tailGrayPlan(o, nodes, gray, 0))
	}
	l := runPlainLoop(c, nodes*2, 2, o.TailMPIIters, 0.001) // 1ms of compute per rank per iteration
	pt.Completed = l.done()
	pt.Seconds = l.secs
	return pt
}

// pctile returns the q-quantile of lats in seconds as the
// round(q·n)-th smallest sample (rank q·n rounded half up, clamped to
// 1..n). This is not the nearest rank ⌈q·n⌉: with 80 samples the p99 is
// the 79th, not the largest.
func pctile(lats []time.Duration, q float64) float64 {
	if len(lats) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), lats...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := int(q*float64(len(s))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return s[idx].Seconds()
}

// CheckTailSweep verifies the gray-failure findings on two independently
// executed sweeps:
//
//   - determinism: identical seeds produce bit-identical latencies and
//     counters;
//   - both arms complete every point with oracle-correct results;
//   - honesty: the off arm never hedges, ejects or draws on a budget;
//   - the gray injection bites: the off arm's p99 read latency at the top
//     fraction is well above its clean p99;
//   - clean-run safety: at 0% gray the mitigations cost < 5% p50;
//   - the headline cut: at 20% gray the mitigations reduce p99 read and
//     shuffle latency by at least TailP99CutFactor, and goodput does not
//     drop;
//   - the machinery demonstrably engaged: hedges fired and won, outliers
//     were ejected, the retry budget clipped at least one storm at the
//     top fraction;
//   - plain MPI pays roughly the full gray factor at every nonzero
//     fraction — the contrast the mitigations are measured against.
func CheckTailSweep(a, b TailSweepResult) []string {
	bad := determinism("tail", a, b)
	if len(a.Off) != len(TailGrayFracs) || len(a.On) != len(TailGrayFracs) || len(a.MPI) != len(TailGrayFracs) {
		return append(bad, "tail: series incomplete")
	}
	for i := range a.Off {
		off, on := a.Off[i], a.On[i]
		if !off.Completed || !on.Completed {
			bad = append(bad, fmt.Sprintf("tail: point %.0f%% did not complete (off=%v on=%v)",
				off.GrayPct, off.Completed, on.Completed))
		}
		if off.HedgesSent != 0 || off.PeersEjected != 0 || off.RetriesBudgeted != 0 {
			bad = append(bad, fmt.Sprintf("tail: mitigations-off arm at %.0f%% hedged/ejected/budgeted (h=%d e=%d b=%d)",
				off.GrayPct, off.HedgesSent, off.PeersEjected, off.RetriesBudgeted))
		}
	}

	// Clean-run safety: the mitigations may not tax a healthy cluster.
	off0, on0 := a.Off[0], a.On[0]
	if on0.ReadP50 > off0.ReadP50*TailCleanP50Slack {
		bad = append(bad, fmt.Sprintf("tail: clean read p50 regressed %.1f%% with mitigations on (bound %.0f%%)",
			100*(on0.ReadP50/off0.ReadP50-1), 100*(TailCleanP50Slack-1)))
	}
	if on0.JobP50 > off0.JobP50*TailCleanP50Slack {
		bad = append(bad, fmt.Sprintf("tail: clean job p50 regressed %.1f%% with mitigations on (bound %.0f%%)",
			100*(on0.JobP50/off0.JobP50-1), 100*(TailCleanP50Slack-1)))
	}

	// The injection must actually hurt the unmitigated stack.
	top := len(a.Off) - 1
	if a.Off[top].ReadP99 < 2*a.Off[0].ReadP99 {
		bad = append(bad, fmt.Sprintf("tail: off-arm p99 at %.0f%% gray (%s) not >2x clean (%s) — injection too weak",
			a.Off[top].GrayPct, fmtSeconds(a.Off[top].ReadP99), fmtSeconds(a.Off[0].ReadP99)))
	}
	if a.Off[top].Grays == 0 {
		bad = append(bad, "tail: no gray events injected at the top fraction")
	}

	// The headline: >= TailP99CutFactor p99 cut at 20% gray, both paths.
	i20 := -1
	for i, pct := range a.GrayPcts {
		if pct == 20 {
			i20 = i
		}
	}
	if i20 < 0 {
		bad = append(bad, "tail: sweep has no 20% gray point")
	} else {
		off, on := a.Off[i20], a.On[i20]
		if on.ReadP99 <= 0 || off.ReadP99/on.ReadP99 < TailP99CutFactor {
			bad = append(bad, fmt.Sprintf("tail: read p99 cut at 20%% gray is %.2fx (off %s / on %s), need >= %.1fx",
				off.ReadP99/on.ReadP99, fmtSeconds(off.ReadP99), fmtSeconds(on.ReadP99), TailP99CutFactor))
		}
		if on.JobP99 <= 0 || off.JobP99/on.JobP99 < TailP99CutFactor {
			bad = append(bad, fmt.Sprintf("tail: shuffle p99 cut at 20%% gray is %.2fx (off %s / on %s), need >= %.1fx",
				off.JobP99/on.JobP99, fmtSeconds(off.JobP99), fmtSeconds(on.JobP99), TailP99CutFactor))
		}
		if on.GoodputOps < off.GoodputOps {
			bad = append(bad, fmt.Sprintf("tail: goodput fell with mitigations on at 20%% gray (%.1f vs %.1f ops/s)",
				on.GoodputOps, off.GoodputOps))
		}
		if on.HedgesSent == 0 || on.HedgeWins == 0 {
			bad = append(bad, fmt.Sprintf("tail: no hedge fired/won at 20%% gray (sent=%d won=%d)", on.HedgesSent, on.HedgeWins))
		}
		if on.PeersEjected == 0 {
			bad = append(bad, "tail: no latency outlier ejected at 20% gray")
		}
	}
	if a.On[top].RetriesBudgeted == 0 {
		bad = append(bad, "tail: the retry budget never clipped a retry at the top gray fraction")
	}

	// Plain MPI: gated by its slowest rank at every nonzero fraction.
	if !a.MPI[0].Completed {
		bad = append(bad, "tail: gray-free plain MPI did not complete")
	}
	for _, m := range a.MPI[1:] {
		if !m.Completed {
			bad = append(bad, fmt.Sprintf("tail: plain MPI at %.0f%% gray (loss-free) did not complete", m.GrayPct))
		}
		if m.Slowdown < 2 {
			bad = append(bad, fmt.Sprintf("tail: plain MPI at %.0f%% gray slowed only %.2fx — gray rank did not gate the BSP loop",
				m.GrayPct, m.Slowdown))
		}
	}
	return bad
}

// TailTables renders the sweep as report tables.
func TailTables(r TailSweepResult) []Table {
	arm := func(id, title string, pts []TailPoint) Table {
		t := Table{ID: id, Title: title,
			Columns: []string{"gray", "read p50", "read p95", "read p99", "job p50", "job p99",
				"goodput", "hedges", "wins", "ejected", "budgeted", "retries", "fetch fails"}}
		for _, p := range pts {
			t.Rows = append(t.Rows, []string{fmt.Sprintf("%.0f%%", p.GrayPct),
				fmtSeconds(p.ReadP50), fmtSeconds(p.ReadP95), fmtSeconds(p.ReadP99),
				fmtSeconds(p.JobP50), fmtSeconds(p.JobP99),
				fmt.Sprintf("%.1f/s", p.GoodputOps),
				fmtInt(p.HedgesSent), fmtInt(p.HedgeWins), fmtInt(p.PeersEjected),
				fmtInt(p.RetriesBudgeted), fmtInt(p.Retries), fmtInt(p.FetchFailures)})
		}
		return t
	}
	out := []Table{
		arm("tail-off", "Gray-failure sweep, mitigations OFF (fixed timeouts, no hedging)", r.Off),
		arm("tail-on", "Gray-failure sweep, mitigations ON (adaptive timeouts + ejection + hedging + retry budget)", r.On),
	}
	mt := Table{ID: "tail-mpi", Title: "Plain MPI under the loss-free gray plan (BSP gated by slowest rank)",
		Columns: []string{"gray", "time", "x clean", "done"}}
	for _, m := range r.MPI {
		mt.Rows = append(mt.Rows, []string{fmt.Sprintf("%.0f%%", m.GrayPct),
			fmtSeconds(m.Seconds), fmtRatio(m.Slowdown), fmt.Sprintf("%v", m.Completed)})
	}
	return append(out, mt)
}
