package core

import (
	"fmt"
	"time"

	"hpcbd/internal/chaos"
	"hpcbd/internal/cluster"
	"hpcbd/internal/dfs"
	"hpcbd/internal/rdd"
	"hpcbd/internal/rm"
	"hpcbd/internal/sim"
)

// The overload sweep measures resource-exhaustion resilience: a seeded
// job storm is submitted against a cluster whose RAM and scratch disks
// are squeezed by external hogs (chaos.MemPressure + chaos.DiskFull),
// and two arms of the elastic stack are compared. The mitigations-off
// arm runs the PR-9 stack as-is: every task claims its full working set
// or dies, OOM kills burn the stage retry budget, full disks silently
// fail replica writes, and every storm job is admitted at once. The
// mitigations-on arm turns on the resilience machinery this sweep
// exists to measure: task-memory spill (claim what fits, stream the
// shortfall through scratch), OOM retry escalation with memory-aware
// placement, credit-bounded shuffle fetches, full-disk write redirect,
// and a deterministic admission gate that sheds offered load the
// cluster cannot hold. The plain-MPI contrast allocates its working set
// statically up front — the paradigm-level finding is that the first
// refused allocation fails the whole job, where the elastic stack
// degrades through spill and shedding.
//
// Axes: offered load (jobs per storm) x pressure fraction (RAM hogged
// on every node; scratch filled completely on half the nodes, the same
// seeded victim prefix). All arms run the identical workload.

// OverloadPressures is the pressure axis: the fraction of each node's
// RAM claimed by the external hog. Scratch disks on half the nodes are
// filled completely at every nonzero pressure. 0.90 leaves 12.8 GB free
// per 128 GB node — one 8 GB task fits, a second concurrent claim does
// not; 0.97 leaves 3.8 GB — no full claim ever fits, so the off arm can
// only die and the on arm can only spill.
var OverloadPressures = []float64{0, 0.90, 0.97}

// OverloadGoodputFactor is the headline bound: at the top pressure and
// top offered load the mitigated arm must complete at least this many
// times the jobs-per-minute of the unmitigated arm.
const OverloadGoodputFactor = 2.0

// overloadHogAt/overloadStormAt order the chaos timeline: hogs arm
// first, the storm breaks over an already-squeezed cluster.
const (
	overloadHogAt   = time.Millisecond
	overloadStormAt = 5 * time.Millisecond
)

// OverloadPoint is one (load, pressure, arm) cell of the sweep.
type OverloadPoint struct {
	Load        int     // jobs submitted by the storm
	PressurePct float64 // RAM fraction hogged per node, percent
	Mitigate    bool

	JobsDone   int  // completed with an oracle-correct result
	JobsFailed int  // admitted but failed (OOM spiral, stage abort)
	JobsShed   int  // refused by the admission gate (on arm only)
	Completed  bool // every submitted job accounted for

	JobP50     float64 // seconds, over completed jobs
	JobP99     float64
	GoodputJPM float64 // completed jobs per minute of storm wall-clock

	OOMKills    int64 // tasks killed by a refused working-set claim
	OOMRetries  int64 // re-dispatches with an escalated memory request
	TaskSpills  int64 // tasks that ran in external-spill mode
	SpillBytes  int64 // working-set bytes streamed through scratch
	CacheSpills int64 // cached blocks demoted to disk by memory pressure
	FetchStalls int64 // windowed fetches that waited for a credit

	Redirects      int64 // replica writes redirected off a full disk
	FullWriteFails int64 // replica writes lost to a full disk

	Admitted  int // jobs the gate let through (on arm)
	Waited    int // jobs that queued before admission
	PeakQueue int // deepest admission queue observed

	MemHogs   int // chaos: memory hogs armed
	DiskFills int // chaos: disk fillers armed
}

// OverloadMPIPoint is the static-allocation contrast at one pressure.
type OverloadMPIPoint struct {
	PressurePct   float64
	Seconds       float64 // allreduce-loop wall-clock when it ran
	Completed     bool
	FailedAtAlloc bool // the first refused rank allocation failed the job
}

// OverloadSweepResult holds both arms plus the MPI contrast.
// Off and On are load-major: for each load in Loads, one point per
// entry of Pressures.
type OverloadSweepResult struct {
	Nodes     int
	Loads     []int
	Pressures []float64
	Off       []OverloadPoint
	On        []OverloadPoint
	MPI       []OverloadMPIPoint
}

// OverloadSweep runs the full grid. Every point is a job of its own, the
// largest storms first, and builds a cold cluster, so neither the job
// width nor the pool sizing of any outer harness can perturb results.
func OverloadSweep(o Options) OverloadSweepResult {
	res := OverloadSweepResult{Nodes: o.OverNodes, Loads: o.OverLoads, Pressures: OverloadPressures}
	np := len(OverloadPressures)
	res.Off, res.On = make([]OverloadPoint, len(o.OverLoads)*np), make([]OverloadPoint, len(o.OverLoads)*np)
	res.MPI = make([]OverloadMPIPoint, np)
	var jobs []job
	for l, load := range o.OverLoads {
		for p, frac := range OverloadPressures {
			i := l*np + p
			jobs = append(jobs,
				job{load, func() { res.Off[i] = overloadPoint(o, load, frac, false) }},
				job{load, func() { res.On[i] = overloadPoint(o, load, frac, true) }})
		}
	}
	for p, frac := range OverloadPressures {
		jobs = append(jobs, job{0, func() { res.MPI[p] = overloadMPI(o, frac) }})
	}
	runLargestFirst(jobs)
	return res
}

// overloadHogs is the pressure half of the chaos timeline, nil at zero
// pressure. The memory hog squeezes every node — sparing any would let
// the off arm's blacklist walk its tasks to the unpressured island and
// dodge the collapse the sweep measures. The disk filler takes half the
// nodes (the same seeded prefix, so disk pressure lands on already
// RAM-squeezed machines), leaving the other half with scratch headroom
// the mitigated arm's spill path and write redirect can actually use.
func overloadHogs(o Options, nodes int, frac float64) *chaos.Plan {
	if frac <= 0 {
		return nil
	}
	plan := chaos.MemPressure(o.Seed, nodes, nodes, frac, overloadHogAt, 0, chaos.CrashOpts{})
	plan.Add(chaos.DiskFull(o.Seed, nodes, nodes/2, 1, overloadHogAt, 0, chaos.CrashOpts{}).Events...)
	return plan
}

// overloadCluster builds a point's cluster, every scratch disk capped at
// o.OverDiskCap.
func overloadCluster(o Options) *cluster.Cluster {
	c := newCluster(o.Seed, o.OverNodes)
	for i := 0; i < o.OverNodes; i++ {
		c.Node(i).Scratch.SetCapacity(o.OverDiskCap)
	}
	return c
}

func overloadPoint(o Options, load int, frac float64, mitigate bool) OverloadPoint {
	nodes := o.OverNodes
	pt := OverloadPoint{Load: load, PressurePct: 100 * frac, Mitigate: mitigate}
	c := overloadCluster(o)

	// Disk accounting is real in both arms — a full disk is a fact about
	// the cluster, not a mitigation. Only the redirect response is gated.
	dcfg := dfs.DefaultConfig()
	dcfg.TrackDisk = true
	dcfg.WriteRedirect = mitigate
	fs := dfs.New(c, cluster.IPoIB(), dcfg)

	conf := rdd.DefaultConfig()
	conf.CoresPerExecutor = 2
	conf.TaskMemory = o.OverTaskMem
	if mitigate {
		conf.OOMMitigate = true
		conf.FetchWindow = o.OverFetchWindow
	}
	ctx := rdd.NewContext(c, conf)
	nparts := nodes * conf.CoresPerExecutor

	var adm *rm.Admission
	if mitigate {
		adm = rm.NewAdmission(c.K, o.OverAdmit, o.OverQueue)
	}

	type outcome struct {
		done, failed, shed bool
		end                sim.Time
		lat                time.Duration
	}
	outs := make([]outcome, load)
	// The storm breaks over a cluster the hogs have already squeezed.
	plan := chaos.JobStorm(o.Seed, load, overloadStormAt, o.OverSpread)
	if hogs := overloadHogs(o, nodes, frac); hogs != nil {
		plan.Add(hogs.Events...)
	}
	eng := chaos.Install(c, plan)
	eng.OnJob = func(job int) {
		c.K.Spawn(fmt.Sprintf("overload.job.%d", job), func(p *sim.Proc) {
			t0 := p.Now()
			if adm != nil {
				if err := adm.Acquire(p); err != nil {
					outs[job] = outcome{shed: true, end: p.Now()}
					return
				}
			}
			ok := overloadJob(p, ctx, fs, o, job, nparts)
			if adm != nil {
				adm.Release()
			}
			outs[job] = outcome{done: ok, failed: !ok, end: p.Now(), lat: p.Now().Sub(t0)}
		})
	}
	c.K.Run()

	var lats []time.Duration
	var lastEnd sim.Time
	for _, out := range outs {
		switch {
		case out.done:
			pt.JobsDone++
			lats = append(lats, out.lat)
		case out.failed:
			pt.JobsFailed++
		case out.shed:
			pt.JobsShed++
		}
		if out.end > lastEnd {
			lastEnd = out.end
		}
	}
	pt.Completed = pt.JobsDone+pt.JobsFailed+pt.JobsShed == load
	pt.JobP50, pt.JobP99 = pctile(lats, 0.50), pctile(lats, 0.99)
	if el := lastEnd.Sub(sim.Time(overloadStormAt)).Seconds(); el > 0 {
		pt.GoodputJPM = 60 * float64(pt.JobsDone) / el
	}

	pt.OOMKills, pt.OOMRetries = ctx.OOMKills, ctx.OOMRetries
	pt.TaskSpills, pt.SpillBytes = ctx.TaskSpills, ctx.SpillBytes
	pt.CacheSpills, _ = ctx.CacheSpills()
	pt.FetchStalls = ctx.FetchStalls
	pt.Redirects, pt.FullWriteFails = fs.RedirectedWrites(), fs.WritesFailedFull()
	if adm != nil {
		pt.Admitted, pt.Waited, pt.PeakQueue = adm.Admitted, adm.Waited, adm.PeakQueue
	}
	pt.MemHogs, pt.DiskFills = eng.MemHogs, eng.DiskFills
	return pt
}

// overloadJob is one storm job: a sumJob over OverRecsPerPart records
// per partition (each task claiming OverTaskMem of RAM), then a DFS
// output file written and deleted. The persisted source keeps its
// partitions cached so memory pressure also squeezes the block
// managers, and the DFS output exercises the full-disk write path on
// every job.
func overloadJob(p *sim.Proc, ctx *rdd.Context, fs *dfs.DFS, o Options, jobID, nparts int) bool {
	if !sumJob(p, ctx, fmt.Sprintf("over-src-%d", jobID), nparts, o.OverRecsPerPart, o.OverRecBytes, true) {
		return false
	}
	name := fmt.Sprintf("/over-out-%d", jobID)
	if err := fs.Create(p, 0, name, o.OverOutBytes); err != nil {
		return false
	}
	return fs.Delete(p, 0, name) == nil
}

// overloadMPI is the static-allocation contrast: every rank reserves
// its full working set up front (MPI_Alloc_mem at init, the classic
// HPC pattern — memory is provisioned, not negotiated). Under the same
// hog plan, the first node that cannot honor a reservation fails the
// whole job before a single iteration runs; there is no partial
// degrade in a statically allocated world.
func overloadMPI(o Options, frac float64) OverloadMPIPoint {
	nodes := o.OverNodes
	pt := OverloadMPIPoint{PressurePct: 100 * frac}
	c := overloadCluster(o)
	if hogs := overloadHogs(o, nodes, frac); hogs != nil {
		chaos.Install(c, hogs)
	}
	np := nodes * 2
	perRank := o.OverMPIRankMem
	var l *plainLoop
	claimed := 0 // ranks holding their reservation
	// The launch happens after the hogs arm — the job meets the cluster
	// as the storm jobs do, not a nanosecond before the squeeze.
	c.K.After(overloadStormAt, func() {
		for ; claimed < np; claimed++ {
			if !c.Node(claimed % nodes).AllocMem(perRank) {
				pt.FailedAtAlloc = true
				return
			}
		}
		l = launchPlainLoop(c, np, 2, o.OverMPIIters, 0.001)
	})
	c.K.Run()
	for r := 0; r < claimed; r++ {
		c.Node(r % nodes).FreeMem(perRank)
	}
	if !pt.FailedAtAlloc {
		pt.Completed, pt.Seconds = l.done(), l.secs
	}
	return pt
}

// CheckOverloadSweep verifies the overload findings on two
// independently executed sweeps:
//
//   - determinism: identical seeds produce bit-identical points;
//   - accounting: every submitted job is done, failed, or shed;
//   - honesty: the off arm never spills, escalates, stalls on a fetch
//     credit, redirects a write, or sheds — its machinery is truly off;
//   - clean-run safety: at zero pressure neither arm OOM-kills, the
//     off arm completes every job, and the on arm completes every job
//     it admits (shedding above gate capacity is the design, not a
//     failure);
//   - the squeeze bites: at the top pressure the unmitigated arm
//     OOM-kills tasks and fails jobs at every load;
//   - the headline: at the top pressure and top load the mitigated
//     arm's goodput is >= OverloadGoodputFactor x the unmitigated
//     arm's, and it completes strictly more jobs;
//   - the machinery engaged: at the top pressure the on arm spilled,
//     escalated, stalled on credits, and redirected writes, and the
//     chaos engine armed the planned hogs;
//   - the contrast: statically allocated MPI completes cleanly at zero
//     pressure and fails at allocation time at every nonzero pressure.
func CheckOverloadSweep(a, b OverloadSweepResult) []string {
	bad := determinism("overload", a, b)
	nP := len(a.Pressures)
	if len(a.Off) != len(a.Loads)*nP || len(a.On) != len(a.Off) || len(a.MPI) != nP || nP == 0 {
		return append(bad, "overload: series incomplete")
	}
	at := func(arm []OverloadPoint, li, pi int) OverloadPoint { return arm[li*nP+pi] }
	for i := range a.Off {
		off, on := a.Off[i], a.On[i]
		tag := fmt.Sprintf("load %d @ %.0f%%", off.Load, off.PressurePct)
		if !off.Completed || !on.Completed {
			bad = append(bad, fmt.Sprintf("overload: %s lost jobs (off=%v on=%v)", tag, off.Completed, on.Completed))
		}
		if off.TaskSpills != 0 || off.OOMRetries != 0 || off.FetchStalls != 0 ||
			off.Redirects != 0 || off.JobsShed != 0 || off.Waited != 0 {
			bad = append(bad, fmt.Sprintf(
				"overload: mitigations-off arm at %s engaged machinery (spills=%d esc=%d stalls=%d redir=%d shed=%d waited=%d)",
				tag, off.TaskSpills, off.OOMRetries, off.FetchStalls, off.Redirects, off.JobsShed, off.Waited))
		}
	}

	top := nP - 1
	for li, load := range a.Loads {
		off0, on0 := at(a.Off, li, 0), at(a.On, li, 0)
		if off0.OOMKills != 0 || on0.OOMKills != 0 {
			bad = append(bad, fmt.Sprintf("overload: clean point at load %d OOM-killed (off=%d on=%d)",
				load, off0.OOMKills, on0.OOMKills))
		}
		if off0.JobsDone != load {
			bad = append(bad, fmt.Sprintf("overload: clean off arm finished %d/%d jobs", off0.JobsDone, load))
		}
		if on0.JobsFailed != 0 || on0.JobsDone != load-on0.JobsShed {
			bad = append(bad, fmt.Sprintf("overload: clean on arm at load %d failed jobs (done=%d shed=%d failed=%d)",
				load, on0.JobsDone, on0.JobsShed, on0.JobsFailed))
		}

		offTop := at(a.Off, li, top)
		if offTop.OOMKills == 0 || offTop.JobsFailed == 0 {
			bad = append(bad, fmt.Sprintf(
				"overload: top pressure did not bite the off arm at load %d (kills=%d failed=%d)",
				load, offTop.OOMKills, offTop.JobsFailed))
		}
	}

	// The headline cut, at the heaviest cell of the grid.
	liTop := len(a.Loads) - 1
	offH, onH := at(a.Off, liTop, top), at(a.On, liTop, top)
	headTag := fmt.Sprintf("load %d @ %.0f%%", offH.Load, offH.PressurePct)
	if onH.JobsDone <= offH.JobsDone {
		bad = append(bad, fmt.Sprintf("overload: %s — mitigations completed %d jobs vs %d off, need strictly more",
			headTag, onH.JobsDone, offH.JobsDone))
	}
	if offH.GoodputJPM > 0 && onH.GoodputJPM < OverloadGoodputFactor*offH.GoodputJPM {
		bad = append(bad, fmt.Sprintf("overload: %s — goodput %.1f vs %.1f jobs/min, need >= %.1fx",
			headTag, onH.GoodputJPM, offH.GoodputJPM, OverloadGoodputFactor))
	}
	if offH.GoodputJPM == 0 && onH.GoodputJPM == 0 {
		bad = append(bad, fmt.Sprintf("overload: %s — neither arm completed a job", headTag))
	}
	if onH.TaskSpills == 0 || onH.OOMRetries == 0 || onH.FetchStalls == 0 || onH.Redirects == 0 || onH.JobsShed == 0 {
		bad = append(bad, fmt.Sprintf(
			"overload: %s — mitigation machinery idle (spills=%d esc=%d stalls=%d redir=%d shed=%d)",
			headTag, onH.TaskSpills, onH.OOMRetries, onH.FetchStalls, onH.Redirects, onH.JobsShed))
	}
	if onH.MemHogs != a.Nodes || onH.DiskFills != a.Nodes/2 {
		bad = append(bad, fmt.Sprintf("overload: %s — chaos armed %d/%d hogs, %d/%d fills",
			headTag, onH.MemHogs, a.Nodes, onH.DiskFills, a.Nodes/2))
	}

	// Plain MPI: static allocation has no middle ground.
	if !a.MPI[0].Completed || a.MPI[0].FailedAtAlloc {
		bad = append(bad, "overload: pressure-free plain MPI did not complete")
	}
	for _, m := range a.MPI[1:] {
		if !m.FailedAtAlloc || m.Completed {
			bad = append(bad, fmt.Sprintf(
				"overload: plain MPI at %.0f%% pressure survived static allocation (failed=%v done=%v)",
				m.PressurePct, m.FailedAtAlloc, m.Completed))
		}
	}
	return bad
}

// OverloadTables renders the sweep as report tables.
func OverloadTables(r OverloadSweepResult) []Table {
	arm := func(id, title string, pts []OverloadPoint) Table {
		t := Table{ID: id, Title: title,
			Columns: []string{"load", "pressure", "done", "failed", "shed", "goodput",
				"job p50", "job p99", "kills", "esc", "spills", "cache", "stalls", "redir", "diskfail"}}
		for _, p := range pts {
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%d", p.Load), fmt.Sprintf("%.0f%%", p.PressurePct),
				fmt.Sprintf("%d", p.JobsDone), fmt.Sprintf("%d", p.JobsFailed), fmt.Sprintf("%d", p.JobsShed),
				fmt.Sprintf("%.1f/min", p.GoodputJPM),
				fmtSeconds(p.JobP50), fmtSeconds(p.JobP99),
				fmtInt(p.OOMKills), fmtInt(p.OOMRetries), fmtInt(p.TaskSpills), fmtInt(p.CacheSpills),
				fmtInt(p.FetchStalls), fmtInt(p.Redirects), fmtInt(p.FullWriteFails)})
		}
		return t
	}
	out := []Table{
		arm("overload-off", "Overload sweep, mitigations OFF (full claims, unbounded fetch, no admission)", r.Off),
		arm("overload-on", "Overload sweep, mitigations ON (spill + escalation + fetch credits + redirect + admission)", r.On),
	}
	mt := Table{ID: "overload-mpi", Title: "Plain MPI under the same pressure (static allocation: all-or-nothing)",
		Columns: []string{"pressure", "time", "done", "failed at alloc"}}
	for _, m := range r.MPI {
		mt.Rows = append(mt.Rows, []string{fmt.Sprintf("%.0f%%", m.PressurePct),
			fmtSeconds(m.Seconds), fmt.Sprintf("%v", m.Completed), fmt.Sprintf("%v", m.FailedAtAlloc)})
	}
	return append(out, mt)
}
