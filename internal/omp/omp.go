// Package omp models an OpenMP-style shared-memory runtime (the paper's
// single-node HPC baseline): fork-join parallel regions, worksharing loops
// with static/dynamic/guided schedules, reductions, critical sections,
// single/master constructs and explicit tasks — executing on the simulated
// cores of one cluster node.
//
// As the paper notes (§II-A), OpenMP "cannot target multiple system
// nodes"; the API enforces that by construction, which is why the
// AnswersCount experiment (Fig 4) has OpenMP results only at 8 and 16
// cores.
package omp

import (
	"fmt"
	"time"

	"hpcbd/internal/cluster"
	"hpcbd/internal/sim"
)

// Schedule selects a worksharing loop schedule.
type Schedule int

// Worksharing schedules, mirroring OpenMP's schedule(...) clause.
const (
	Static Schedule = iota
	Dynamic
	Guided
)

func (s Schedule) String() string {
	switch s {
	case Static:
		return "static"
	case Dynamic:
		return "dynamic"
	case Guided:
		return "guided"
	}
	return fmt.Sprintf("Schedule(%d)", int(s))
}

// team is the shared state of one parallel region.
type team struct {
	k        *sim.Kernel
	node     *cluster.Node
	nthreads int

	// barrier state (central, sense-counting)
	arrived int
	release *sim.Signal

	criticals map[string]*sim.Resource
	tasks     []func(t *Thread)

	// worksharing state
	forNext     int
	singleTaken bool
	redVal      float64
	redEmpty    bool
}

// Thread is one member of a parallel region's team.
type Thread struct {
	p    *sim.Proc
	id   int
	team *team
}

// ID returns the thread number within the team (0 = master).
func (t *Thread) ID() int { return t.id }

// NumThreads returns the team size.
func (t *Thread) NumThreads() int { return t.team.nthreads }

// Proc exposes the underlying simulated process.
func (t *Thread) Proc() *sim.Proc { return t.p }

// Now returns the current virtual time.
func (t *Thread) Now() sim.Time { return t.p.Now() }

// forkOverhead is the cost of creating/waking one worker at region entry.
const forkOverhead = 2 * time.Microsecond

// barrierBase and barrierPerThread approximate a central barrier's cost.
const (
	barrierBase      = 500 * time.Nanosecond
	barrierPerThread = 40 * time.Nanosecond
)

// Parallel runs a fork-join parallel region with nthreads threads on the
// given node. It blocks the calling process until the region completes
// (the implicit barrier at region end). Threads occupy node cores while
// computing, so oversubscribed teams contend.
func Parallel(p *sim.Proc, c *cluster.Cluster, nodeID, nthreads int, body func(t *Thread)) {
	if nthreads <= 0 {
		panic("omp: nthreads must be positive")
	}
	node := c.Node(nodeID)
	tm := &team{
		k:         c.K,
		node:      node,
		nthreads:  nthreads,
		release:   sim.NewSignal(c.K),
		criticals: map[string]*sim.Resource{},
		redEmpty:  true,
	}
	p.Sleep(time.Duration(nthreads) * forkOverhead)
	wg := sim.NewWaitGroup(c.K)
	for i := 0; i < nthreads; i++ {
		i := i
		wg.Add(1)
		c.K.Spawn(fmt.Sprintf("omp.t%d", i), func(tp *sim.Proc) {
			t := &Thread{p: tp, id: i, team: tm}
			body(t)
			t.Barrier() // implicit barrier at region end
			wg.Done()
		})
	}
	wg.Wait(p)
}

// Compute charges the thread seconds of single-core compute, holding a
// core of the node (so oversubscription and co-located work contend).
func (t *Thread) Compute(seconds float64) {
	t.team.node.Cores.UseFor(t.p, 1, time.Duration(seconds*1e9))
}

// Offload charges the thread `seconds` of single-core compute — holding a
// core, exactly like Compute — while fn runs on the host worker pool; the
// result is returned when the virtual charge elapses. The event footprint
// is identical to `v := fn(); t.Compute(seconds)`, so virtual times are
// unchanged by pool size. fn must be a pure payload (no kernel
// primitives, no shared-state writes — see sim.OffloadStart). A package
// function rather than a method because Go methods cannot add type
// parameters.
func Offload[T any](t *Thread, seconds float64, fn func() T) T {
	t.team.node.Cores.Acquire(t.p, 1)
	v := sim.OffloadTimed(t.p, time.Duration(seconds*1e9), fn)
	t.team.node.Cores.Release(1)
	return v
}

// ReadScratch charges a read of n bytes from the node's local scratch
// disk; concurrent threads contend for its channels — the single-node I/O
// bottleneck visible in the OpenMP AnswersCount results.
func (t *Thread) ReadScratch(n int64) {
	t.team.node.Scratch.Read(t.p, n)
}

// Barrier synchronizes the team.
func (t *Thread) Barrier() {
	tm := t.team
	t.p.Sleep(barrierBase + time.Duration(tm.nthreads)*barrierPerThread)
	tm.arrived++
	if tm.arrived == tm.nthreads {
		tm.arrived = 0
		tm.release.Broadcast()
		t.p.Yield()
		return
	}
	tm.release.Wait(t.p)
}

// Critical executes fn under the named critical section's lock.
func (t *Thread) Critical(name string, fn func()) {
	r, ok := t.team.criticals[name]
	if !ok {
		r = sim.NewResource(t.team.k, "omp.critical."+name, 1)
		t.team.criticals[name] = r
	}
	r.Acquire(t.p, 1)
	t.p.Sleep(100 * time.Nanosecond) // lock acquire cost
	fn()
	r.Release(1)
}

// Atomic charges the cost of one atomic read-modify-write and runs fn.
func (t *Thread) Atomic(fn func()) {
	t.p.Sleep(30 * time.Nanosecond)
	fn()
}

// Master runs fn on thread 0 only (no implied barrier).
func (t *Thread) Master(fn func(t *Thread)) {
	if t.id == 0 {
		fn(t)
	}
}

// Single runs fn on the first thread to arrive; all threads synchronize
// afterwards (OpenMP single has an implicit barrier). Teams must execute
// Single constructs in the same order on every thread.
func (t *Thread) Single(fn func(t *Thread)) {
	tm := t.team
	if !tm.singleTaken {
		tm.singleTaken = true
		fn(t)
	}
	t.Barrier()
	t.Master(func(*Thread) { tm.singleTaken = false })
	t.Barrier()
}

// chunkRange is a contiguous iteration range handed to loop bodies.
type chunkRange struct{ lo, hi int }

// For executes a worksharing loop over [0,n) with the given schedule and
// chunk size (0 = implementation default). body receives contiguous
// [lo,hi) ranges and should charge compute via t.Compute. An implicit
// barrier ends the loop (OpenMP default, no nowait).
func (t *Thread) For(n int, sched Schedule, chunk int, body func(lo, hi int)) {
	tm := t.team
	switch sched {
	case Static:
		if chunk <= 0 {
			// One contiguous block per thread.
			lo := t.id * n / tm.nthreads
			hi := (t.id + 1) * n / tm.nthreads
			if lo < hi {
				body(lo, hi)
			}
		} else {
			// Round-robin chunks.
			for lo := t.id * chunk; lo < n; lo += tm.nthreads * chunk {
				hi := lo + chunk
				if hi > n {
					hi = n
				}
				body(lo, hi)
			}
		}
	case Dynamic:
		if chunk <= 0 {
			chunk = 1
		}
		for {
			var r chunkRange
			got := false
			// Shared counter via the loop descriptor on the team.
			t.Atomic(func() {
				if tm.forNext < n {
					r = chunkRange{tm.forNext, min(tm.forNext+chunk, n)}
					tm.forNext = r.hi
					got = true
				}
			})
			if !got {
				break
			}
			body(r.lo, r.hi)
		}
	case Guided:
		if chunk <= 0 {
			chunk = 1
		}
		for {
			var r chunkRange
			got := false
			t.Atomic(func() {
				remaining := n - tm.forNext
				if remaining > 0 {
					sz := remaining / (2 * tm.nthreads)
					if sz < chunk {
						sz = chunk
					}
					r = chunkRange{tm.forNext, min(tm.forNext+sz, n)}
					tm.forNext = r.hi
					got = true
				}
			})
			if !got {
				break
			}
			body(r.lo, r.hi)
		}
	}
	t.Barrier()
	// Reset the shared counter once everyone has left the loop.
	t.Master(func(*Thread) { tm.forNext = 0 })
	t.Barrier()
}

// ForReduce runs a worksharing loop where each thread produces a partial
// float64 combined with op into a single result, returned on every thread
// (the OpenMP reduction clause).
func (t *Thread) ForReduce(n int, sched Schedule, chunk int,
	body func(lo, hi int) float64, op func(a, b float64) float64) float64 {
	var local float64
	first := true
	t.For(n, sched, chunk, func(lo, hi int) {
		v := body(lo, hi)
		if first {
			local, first = v, false
		} else {
			local = op(local, v)
		}
	})
	tm := t.team
	if !first {
		t.Critical("__reduce", func() {
			if tm.redEmpty {
				tm.redVal, tm.redEmpty = local, false
			} else {
				tm.redVal = op(tm.redVal, local)
			}
		})
	}
	t.Barrier()
	v := tm.redVal
	t.Barrier()
	t.Master(func(*Thread) { tm.redEmpty = true; tm.redVal = 0 })
	t.Barrier()
	return v
}

// Task enqueues an explicit task for the team.
func (t *Thread) Task(fn func(t *Thread)) {
	t.p.Sleep(300 * time.Nanosecond) // task creation cost
	t.team.tasks = append(t.team.tasks, fn)
}

// TaskWait executes queued tasks until the queue drains. Any thread may
// call it; concurrent callers share the queue.
func (t *Thread) TaskWait() {
	tm := t.team
	for len(tm.tasks) > 0 {
		fn := tm.tasks[0]
		tm.tasks = tm.tasks[1:]
		fn(t)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// Sections executes each function exactly once, distributed across the
// team (the OpenMP sections construct, dynamic assignment); an implicit
// barrier ends the construct.
func (t *Thread) Sections(fns ...func(t *Thread)) {
	t.For(len(fns), Dynamic, 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			fns[i](t)
		}
	})
}
