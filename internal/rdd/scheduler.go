package rdd

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"hpcbd/internal/sim"
)

// executorLost marks task output discarded because its executor died (or
// was restarted) while the task ran — zombie work. Loss errors are always
// retried and never charged against the executor's failure record or the
// stage's retry budget; heartbeat detection bounds how long the scheduler
// can keep feeding a dead executor.
type executorLost struct{ exec int }

func (e executorLost) Error() string { return fmt.Sprintf("rdd: executor %d lost", e.exec) }

// driverLost marks work orphaned by a driver failover: a task launched
// by (or a dispatch loop running under) a driver incarnation whose node
// died. Like executorLost it is never charged to anyone's failure record
// — the outer stage loops recover the driver and re-dispatch.
type driverLost struct{ gen int }

func (d driverLost) Error() string { return fmt.Sprintf("rdd: driver incarnation %d lost", d.gen) }

// oomError marks a task killed because its node could not supply its
// working-set claim (TaskMemory accounting). It is a genuine, countable
// failure — the JVM died — so repeated OOMs burn the stage's retry
// budget and charge the executor's blacklist record, which is exactly
// the mitigations-off retry spiral the overload sweep measures.
type oomError struct {
	exec int
	req  int64
}

func (e oomError) Error() string {
	return fmt.Sprintf("rdd: executor %d OOM-killed task (working set %d bytes)", e.exec, e.req)
}

// taskMemKey identifies a task for OOM request escalation.
func taskMemKey(name string, part int) string { return fmt.Sprintf("%s/%d", name, part) }

// taskMemReq returns the working-set claim for a task of the named
// stage: the configured TaskMemory, or the escalated request recorded
// after an earlier incarnation of the task was OOM-killed.
func (ctx *Context) taskMemReq(name string, part int) int64 {
	req := ctx.Conf.TaskMemory
	if req <= 0 {
		return 0
	}
	if esc := ctx.memReqs[taskMemKey(name, part)]; esc > req {
		req = esc
	}
	return req
}

// claimTaskMemory reserves a task's working set on its node. With
// mitigation off a refused claim OOM-kills the task. With mitigation on
// the executor first spills cached blocks to disk (freeing node RAM
// while keeping the data) and retries; if RAM is still short the task
// runs in external-spill mode — it claims whatever is free and streams
// the shortfall through scratch, paying disk I/O instead of dying. Only
// when the disk has no room either does the mitigated task OOM.
// Returns the RAM claimed and the scratch bytes reserved for spill mode;
// the caller releases both when the task ends.
func (ctx *Context) claimTaskMemory(tp *sim.Proc, exec *executor, req int64) (claimed, spillStream int64, err error) {
	node := ctx.C.Node(exec.node)
	if node.AllocMem(req) {
		return req, 0, nil
	}
	if !ctx.Conf.OOMMitigate {
		ctx.OOMKills++
		return 0, 0, oomError{exec: exec.id, req: req}
	}
	if short := req - node.MemFree(); short > 0 {
		if spilled := exec.bm.spillToDisk(short); spilled > 0 {
			tp.Charge(ctx.C.Cost.SerTime(spilled))
			node.Scratch.Write(tp, spilled)
		}
	}
	if node.AllocMem(req) {
		return req, 0, nil
	}
	claimed = node.AllocMemUpTo(req)
	short := req - claimed
	if !node.Scratch.Alloc(short) {
		// No RAM and no scratch space: nothing left to degrade into.
		if claimed > 0 {
			node.FreeMem(claimed)
		}
		ctx.OOMKills++
		return 0, 0, oomError{exec: exec.id, req: req}
	}
	ctx.TaskSpills++
	ctx.SpillBytes += short
	tp.Charge(ctx.C.Cost.SerTime(short))
	node.Scratch.Write(tp, short)
	return claimed, short, nil
}

// collectShuffles gathers every shuffle dependency reachable from m in
// dependency-first (post) order, deduplicated — the DAG scheduler's stage
// list.
func collectShuffles(m *meta) []*shuffleDep {
	var out []*shuffleDep
	seenShuf := map[int]bool{}
	seenMeta := map[int]bool{}
	var visitMeta func(*meta)
	var visitDep func(*shuffleDep)
	visitMeta = func(mm *meta) {
		if seenMeta[mm.id] {
			return
		}
		seenMeta[mm.id] = true
		for _, p := range mm.narrow {
			visitMeta(p)
		}
		for _, d := range mm.wide {
			visitDep(d)
		}
	}
	visitDep = func(d *shuffleDep) {
		if seenShuf[d.shuffleID] {
			return
		}
		seenShuf[d.shuffleID] = true
		visitMeta(d.parent) // parents of this stage first
		out = append(out, d)
	}
	visitMeta(m)
	return out
}

// pickExecutor chooses an executor for a task: the least-loaded live,
// non-blacklisted executor among the preferred nodes (Spark spreads work
// over a block's replicas), falling back to the least-loaded live executor
// overall. Ties rotate by task index for determinism without pile-up.
// Executors on nodes the shuffle transport has ejected as latency
// outliers are treated like blacklisted ones — gray nodes stay
// heartbeat-alive, so this is the only channel that steers new tasks,
// recomputes, and speculative copies away from them. Blacklisted and
// ejected executors are used only when nothing else is alive; `exclude`
// names an executor id to avoid (speculative copies must not land next
// to the original), -1 for none.
//
// memReq is the task's working-set claim. With OOM mitigation on, nodes
// that cannot currently supply it are passed over (memory-aware
// placement: an escalated retry steers away from pressured nodes), with
// a final ignore-memory tier so a uniformly-pressured cluster still
// dispatches rather than stranding the stage. With mitigation off (or
// memReq zero) placement ignores memory entirely — the legacy behavior.
func (ctx *Context) pickExecutor(prefs []int, taskIdx int, exclude int, memReq int64) (*executor, error) {
	honorMem := memReq > 0 && ctx.Conf.OOMMitigate
	best := func(cands []int, allowBlacklisted, needMem bool) *executor {
		var pick *executor
		var pickLoad int64
		for _, id := range cands {
			if id < 0 || id >= len(ctx.executors) || id == exclude {
				continue
			}
			e := ctx.executors[id]
			if !e.alive || ((e.blacklisted || ctx.shuffleNet.Ejected(e.node)) && !allowBlacklisted) {
				continue
			}
			if needMem && ctx.C.Node(e.node).MemFree() < memReq {
				continue
			}
			load := e.cores.InUse() + int64(e.cores.QueueLen())
			if pick == nil || load < pickLoad {
				pick, pickLoad = e, load
			}
		}
		return pick
	}
	// Rotate preference order by task index so equal-load replicas spread.
	if len(prefs) > 0 {
		rot := make([]int, 0, len(prefs))
		for i := 0; i < len(prefs); i++ {
			rot = append(rot, prefs[(i+taskIdx)%len(prefs)])
		}
		if e := best(rot, false, honorMem); e != nil {
			return e, nil
		}
	}
	alive := ctx.aliveExecutors()
	if len(alive) == 0 {
		return nil, errors.New("rdd: no live executors")
	}
	rot := make([]int, 0, len(alive))
	for i := 0; i < len(alive); i++ {
		rot = append(rot, alive[(i+taskIdx)%len(alive)])
	}
	if honorMem {
		if e := best(rot, false, true); e != nil {
			return e, nil
		}
	}
	if e := best(rot, false, false); e != nil {
		return e, nil
	}
	// Everything usable is blacklisted (or excluded): fall back rather
	// than strand the stage.
	if e := best(rot, true, false); e != nil {
		return e, nil
	}
	return nil, errors.New("rdd: no live executors")
}

// noteTaskFailure charges a genuine task failure to an executor and
// blacklists it past the threshold. Loss and fetch failures are not the
// executor's fault and go uncharged.
func (ctx *Context) noteTaskFailure(e *executor, err error) {
	var el executorLost
	var ff fetchFailure
	var dl driverLost
	if errors.As(err, &el) || errors.As(err, &ff) || errors.As(err, &dl) {
		return
	}
	e.failures++
	if th := ctx.Conf.BlacklistThreshold; th > 0 && e.failures >= th && !e.blacklisted {
		e.blacklisted = true
		ctx.ExecutorsBlacklisted++
	}
}

// taskState tracks one logical task of a stage across its (possibly
// speculative) attempt copies. All mutation happens under the
// single-threaded sim kernel, so no locking is needed.
type taskState struct {
	part       int
	idx        int // index into the stage's parts/errs slices
	copies     int // attempts in flight
	resolved   bool
	speculated bool
	firstExec  *executor
	started    sim.Time
	finished   sim.Time
	memReq     int64 // working-set claim (0 = no memory accounting)
}

// runTasks dispatches one task per entry of parts and waits for all of
// them. The driver serializes dispatch work (its real bottleneck); tasks
// execute concurrently on executor cores. Returned errors are indexed
// like parts (nil = success).
//
// Two hardening layers ride on the basic dispatch loop. Zombie detection:
// a task whose executor died or restarted while it ran has its output
// discarded and reports executorLost. Speculation (when enabled): a
// monitor process re-launches straggling tasks on a second executor and
// the first copy to finish wins.
func (ctx *Context) runTasks(p *sim.Proc, name string, parts []int,
	prefs func(part int) []int, run func(tc *taskContext, part int) error) []error {

	cm := ctx.C.Cost
	errs := make([]error, len(parts))
	wg := sim.NewWaitGroup(ctx.C.K)
	var states []*taskState

	launch := func(t *taskState, exec *executor, speculative bool) {
		t.copies++
		ctx.TasksLaunched++
		startEpoch := exec.epoch
		startDown := ctx.C.DownCount(exec.node)
		startGen := ctx.driverGen
		ctx.C.SpawnOnNode(exec.node, fmt.Sprintf("task.%s.%d", name, t.part), func(tp *sim.Proc) {
			// Task descriptor travels driver -> executor over sockets.
			ctx.C.Xfer(tp, ctx.driverNode, exec.node, cm.SparkCtrlBytes, ctx.Conf.CtrlTransport)
			exec.cores.Acquire(tp, 1)
			tp.Sleep(cm.SparkTaskLaunch) // deserialize + start the closure
			var claimed, spillStream int64
			var err error
			if t.memReq > 0 {
				claimed, spillStream, err = ctx.claimTaskMemory(tp, exec, t.memReq)
			}
			if err == nil {
				tc := &taskContext{ctx: ctx, exec: exec, p: tp, epoch: startEpoch}
				err = run(tc, t.part)
				if err == nil && spillStream > 0 {
					// Stream the externally-spilled working set back in.
					ctx.C.Node(exec.node).Scratch.Read(tp, spillStream)
				}
			}
			if claimed > 0 {
				ctx.C.Node(exec.node).FreeMem(claimed)
			}
			if spillStream > 0 {
				ctx.C.Node(exec.node).Scratch.Free(spillStream)
			}
			// Deferred accounting elapses on the task before its core slot
			// frees — successors must see the slot at the correct time.
			tp.FlushCharge()
			exec.cores.Release(1)
			if exec.epoch != startEpoch || !exec.alive || ctx.C.DownCount(exec.node) != startDown {
				// The executor (or its node) died while the task ran:
				// whatever it produced is zombie output.
				err = executorLost{exec: exec.id}
			} else if !ctx.driverHealthy() || ctx.driverGen != startGen {
				// The driver died (or moved) while the task ran: there is
				// no one to report status to. The executor holds the
				// result; the recovered driver's re-dispatch reclaims it.
				err = driverLost{gen: startGen}
			} else {
				// Status update back to the driver (lost executors go
				// silent; the driver learns via the heartbeat timeout).
				ctx.C.Xfer(tp, exec.node, ctx.driverNode, cm.SparkCtrlBytes, ctx.Conf.CtrlTransport)
			}
			t.copies--
			if t.resolved {
				return
			}
			if err == nil {
				t.resolved = true
				t.finished = tp.Now()
				errs[t.idx] = nil
				if speculative {
					ctx.SpeculativeWins++
				}
				wg.Done()
				return
			}
			ctx.noteTaskFailure(exec, err)
			var oe oomError
			if errors.As(err, &oe) && ctx.Conf.OOMMitigate {
				// Escalate the next incarnation's request (doubling,
				// capped at half the node) so the retry both reserves
				// headroom and steers placement toward roomier nodes.
				next := t.memReq * 2
				if limit := ctx.C.Node(exec.node).Spec.MemBytes / 2; next > limit {
					next = limit
				}
				if next > t.memReq {
					ctx.memReqs[taskMemKey(name, t.part)] = next
				}
			}
			if t.copies == 0 {
				// Last attempt in flight failed: the task fails.
				t.resolved = true
				t.finished = tp.Now()
				errs[t.idx] = err
				wg.Done()
			}
		})
	}

	for i, part := range parts {
		if !ctx.driverHealthy() {
			// The driver's node died mid-dispatch: the rest of the stage
			// never leaves the (dead) driver. The outer loop recovers and
			// re-dispatches.
			errs[i] = driverLost{gen: ctx.driverGen}
			continue
		}
		var pf []int
		if prefs != nil {
			pf = prefs(part)
		}
		memReq := ctx.taskMemReq(name, part)
		if memReq > ctx.Conf.TaskMemory {
			// Re-dispatch of an OOM-killed task at an escalated request.
			ctx.OOMRetries++
		}
		exec, err := ctx.pickExecutor(pf, i, -1, memReq)
		if err != nil {
			errs[i] = err
			continue
		}
		// Driver-side scheduling cost is serial in the driver.
		p.Sleep(cm.SparkTaskDispatch)
		wg.Add(1)
		t := &taskState{part: part, idx: i, firstExec: exec, started: p.Now(), memReq: memReq}
		states = append(states, t)
		launch(t, exec, false)
	}
	if ctx.Conf.Speculation && len(states) > 1 {
		ctx.speculate(name, states, launch)
	}
	wg.Wait(p)
	return errs
}

// Speculation thresholds, as in Spark's defaults.
const (
	speculationQuantile   = 0.75 // fraction of a stage's tasks finished before speculating
	speculationMultiplier = 1.5  // a task slower than this x the median gets a copy
)

// speculate runs the straggler monitor for one stage: every interval it
// checks whether at least speculationQuantile of the tasks have finished,
// and if so launches a duplicate of any task running longer than
// speculationMultiplier x the median completed duration on a different
// executor.
func (ctx *Context) speculate(name string, states []*taskState,
	launch func(t *taskState, exec *executor, speculative bool)) {

	ctx.C.K.Spawn("speculate."+name, func(mp *sim.Proc) {
		for {
			mp.Sleep(ctx.Conf.SpeculationInterval)
			done := 0
			var durs []time.Duration
			for _, t := range states {
				if t.resolved {
					done++
					durs = append(durs, time.Duration(t.finished-t.started))
				}
			}
			if done == len(states) {
				return
			}
			if float64(done) < speculationQuantile*float64(len(states)) {
				continue
			}
			sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
			threshold := time.Duration(float64(durs[len(durs)/2]) * speculationMultiplier)
			if threshold <= 0 {
				continue
			}
			for _, t := range states {
				if t.resolved || t.speculated {
					continue
				}
				if time.Duration(mp.Now()-t.started) < threshold {
					continue
				}
				exec, err := ctx.pickExecutor(nil, t.idx+1, t.firstExec.id, t.memReq)
				if err != nil {
					continue
				}
				t.speculated = true
				ctx.SpeculativeLaunched++
				mp.Sleep(ctx.C.Cost.SparkTaskDispatch)
				launch(t, exec, true)
			}
		}
	})
}

// ensureShuffle makes every map output of dep available, running (or
// re-running) map tasks as needed — including recursively repairing its
// own missing ancestors when map tasks hit fetch failures.
func (ctx *Context) ensureShuffle(p *sim.Proc, dep *shuffleDep) error {
	ss := ctx.shuffles[dep.shuffleID]
	retry := 0
	for attempt := 0; ; attempt++ {
		ctx.recoverDriver(p)
		missing := ss.missingParts(ctx)
		if len(missing) == 0 {
			ss.everComplete = true
			// Stage commit: the map output locations reach the journal, so
			// a later driver incarnation re-dispatches nothing here.
			ctx.journalAppend(p, 1)
			return nil
		}
		if retry >= ctx.Conf.MaxTaskRetries {
			return fmt.Errorf("rdd: shuffle %d incomplete after %d retries", dep.shuffleID, retry)
		}
		if ss.everComplete {
			// Outputs that existed before were lost (executor death):
			// this is lineage-driven recomputation.
			ctx.RecomputedPart += int64(len(missing))
		}
		if attempt > 0 {
			ctx.TasksRetried += int64(len(missing))
		}
		ctx.StagesRun++
		p.Sleep(ctx.C.Cost.SparkStageOverhead)
		prefs := dep.parent.prefs
		errs := ctx.runTasks(p, fmt.Sprintf("shufmap%d", dep.shuffleID), missing, prefs, dep.runMapTask)
		done := int64(0)
		for _, e := range errs {
			if e == nil {
				done++
			}
		}
		ctx.journalAppend(p, done) // map-output registrations
		countable, err := ctx.repairFailures(p, errs)
		if err != nil {
			return err
		}
		if countable || !anyFailed(errs) {
			retry++
		}
	}
}

// repairFailures reruns ancestor shuffles named in fetch failures and
// absorbs executor-loss errors (the surrounding retry loops simply re-run
// those tasks). It reports whether any failure should count against the
// stage's retry budget: losses do not — Spark, too, only counts genuine
// task failures, and heartbeat detection bounds how long dead executors
// can keep eating tasks.
func (ctx *Context) repairFailures(p *sim.Proc, errs []error) (countable bool, _ error) {
	for _, err := range errs {
		if err == nil {
			continue
		}
		var ff fetchFailure
		if errors.As(err, &ff) {
			ctx.RecomputedPart++
			if e := ctx.ensureShuffle(p, ctx.shuffles[ff.shuffleID].dep); e != nil {
				return countable, e
			}
			continue
		}
		var el executorLost
		if errors.As(err, &el) {
			continue
		}
		var dl driverLost
		if errors.As(err, &dl) {
			ctx.recoverDriver(p)
			continue
		}
		countable = true
	}
	return countable, nil
}

func anyFailed(errs []error) bool {
	for _, e := range errs {
		if e != nil {
			return true
		}
	}
	return false
}

// runJob executes an action over r: all ancestor shuffle stages in
// dependency order, then the result stage, shipping each partition's
// result to the driver. each is invoked on the driver, in partition order
// indices (but completion order of invocation is partition-indexed, so
// callers index by part).
func runJob[T any](p *sim.Proc, r *RDD[T], each func(part int, data []T)) error {
	ctx := r.m.ctx
	ctx.JobsRun++
	p.Sleep(ctx.C.Cost.SparkJobOverhead)

	for _, dep := range collectShuffles(r.m) {
		if err := ctx.ensureShuffle(p, dep); err != nil {
			return err
		}
	}

	parts := make([]int, r.m.nparts)
	for i := range parts {
		parts[i] = i
	}
	results := make([][]T, r.m.nparts)
	retry := 0
	for {
		ctx.recoverDriver(p)
		if retry >= ctx.Conf.MaxTaskRetries {
			return fmt.Errorf("rdd: result stage of %s failed after %d retries", r.m.name, retry)
		}
		ctx.StagesRun++
		p.Sleep(ctx.C.Cost.SparkStageOverhead)
		errs := ctx.runTasks(p, fmt.Sprintf("result%d", r.m.id), parts, r.m.prefs,
			func(tc *taskContext, part int) error {
				data, err := r.part(tc, part)
				if err != nil {
					return err
				}
				// Ship the partition result to the driver.
				bytes := tc.logicalBytes(len(data), r.recBytes)
				tc.p.Sleep(tc.ctx.C.Cost.SerTime(bytes))
				tc.ctx.C.Xfer(tc.p, tc.exec.node, tc.ctx.driverNode, bytes+tc.ctx.C.Cost.SparkCtrlBytes, tc.ctx.Conf.CtrlTransport)
				results[part] = data
				return nil
			})
		if !anyFailed(errs) {
			ctx.journalAppend(p, 1) // job commit
			break
		}
		countable, err := ctx.repairFailures(p, errs)
		if err != nil {
			return err
		}
		if countable {
			retry++
		}
		// Retry only the failed partitions.
		var failedParts []int
		for i, e := range errs {
			if e != nil {
				failedParts = append(failedParts, parts[i])
			}
		}
		parts = failedParts
	}
	// Driver-side deserialization of results: per-partition charges
	// accumulate and elapse as one kernel event after the loop.
	for part, data := range results {
		p.Charge(ctx.C.Cost.DeserTime(int64(float64(len(data)) * ctx.Conf.Scale * float64(r.recBytes))))
		each(part, data)
	}
	p.FlushCharge()
	return nil
}

// ---- actions ----

// Collect returns all records, in partition order.
func Collect[T any](p *sim.Proc, r *RDD[T]) ([]T, error) {
	parts := make([][]T, r.m.nparts)
	err := runJob(p, r, func(part int, data []T) { parts[part] = data })
	if err != nil {
		return nil, err
	}
	var out []T
	for _, d := range parts {
		out = append(out, d...)
	}
	return out, nil
}

// Reduce combines all records with op (must be associative and
// commutative), computing per-partition partials on the executors and the
// final fold on the driver — exactly the semantics of the paper's Spark
// reduce microbenchmark (Fig 2: one scalar from a distributed array).
func Reduce[T any](p *sim.Proc, r *RDD[T], op func(T, T) T) (T, error) {
	var zero T
	// Per-partition partial reduction happens inside a map-partitions
	// wrapper so executors do the heavy combining.
	partials := MapPartitions(r, func(in []T) []T {
		if len(in) == 0 {
			return nil
		}
		acc := in[0]
		for _, v := range in[1:] {
			acc = op(acc, v)
		}
		return []T{acc}
	})
	partials.recBytes = r.recBytes
	var acc T
	first := true
	err := runJob(p, partials, func(_ int, data []T) {
		for _, v := range data {
			if first {
				acc, first = v, false
			} else {
				acc = op(acc, v)
			}
		}
	})
	if err != nil {
		return zero, err
	}
	if first {
		return zero, errors.New("rdd: reduce of empty RDD")
	}
	return acc, nil
}

// Count returns the number of physical records.
func Count[T any](p *sim.Proc, r *RDD[T]) (int64, error) {
	counts := MapPartitions(r, func(in []T) []int64 { return []int64{int64(len(in))} })
	counts.recBytes = 8
	var total int64
	err := runJob(p, counts, func(_ int, data []int64) {
		for _, v := range data {
			total += v
		}
	})
	return total, err
}

// Foreach runs the action and hands each partition to f on the driver.
func Foreach[T any](p *sim.Proc, r *RDD[T], f func(part int, data []T)) error {
	return runJob(p, r, f)
}

func secsToDur(s float64) time.Duration { return time.Duration(s * 1e9) }
func nsToDur(ns int64) time.Duration    { return time.Duration(ns) }
