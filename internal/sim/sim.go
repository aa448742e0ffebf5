// Package sim implements a deterministic, process-oriented discrete-event
// simulation kernel with a virtual clock.
//
// Simulated processes are ordinary goroutines, but the kernel guarantees
// that exactly one process executes at a time: control is handed to the
// process whose next event is earliest in virtual time, with FIFO
// tie-breaking by event sequence number. Because only one process ever
// runs, processes may freely share data structures without locks; the only
// scheduling points are the blocking kernel primitives (Sleep, resource
// acquisition, channel operations, futures).
//
// The kernel is the substrate for every hardware and software model in this
// repository: cluster nodes, network fabrics, disks, and the MPI, OpenMP,
// OpenSHMEM, MapReduce and RDD runtimes are all built from sim processes and
// sim resources. All reported "execution times" are virtual time.
package sim

import (
	"fmt"
	"iter"
	"math/rand"
	"runtime"
	"sync/atomic"
	"time"

	"hpcbd/internal/exec"
)

// Time is a point in virtual time, in nanoseconds since the start of the
// simulation.
type Time int64

// Seconds converts a virtual time to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / 1e9 }

// Duration returns the virtual time as a duration since time zero.
func (t Time) Duration() time.Duration { return time.Duration(t) }

func (t Time) String() string { return time.Duration(t).String() }

// Add returns the time offset by d.
func (t Time) Add(d time.Duration) Time { return t + Time(d) }

// Sub returns the duration between two times.
func (t Time) Sub(u Time) time.Duration { return time.Duration(t - u) }

// procKilled is panicked inside a parked process when the kernel shuts
// down, so its goroutine unwinds and exits.
type procKilled struct{}

// Kernel is a discrete-event simulation engine. The zero value is not
// usable; construct with NewKernel.
type Kernel struct {
	now     Time
	seq     uint64
	dead    bool    // set by reclaim before stopping coroutines
	procs   []*Proc // every Proc with a live coroutine (for reclaim)
	free    []*Proc // finished procs whose coroutines await reuse
	handoff *Proc   // proc a yielding coroutine asks Run to resume
	live    int     // processes spawned and not yet finished
	parked  int     // processes parked without a pending event
	nextID  int
	rng     *rand.Rand
	ran     bool
	nev     int64      // events processed by Run
	pool    *exec.Pool // host workers for offloaded payloads (see offload.go)

	// Event queue (see shard.go): per-shard run queues and cross-shard
	// inboxes, merged in global (time, seq) order. Always at least one
	// shard.
	shards      []shardQ
	mins        []evKey // per-shard head keys, the merge front
	nq          int     // pending events across all shards
	curShard    int     // shard of the executing context (routing origin)
	lookahead   Time    // conservative cross-shard lookahead bound
	crossEvents int64
	drains      int64
	indepEvents int64

	// Parallel window dispatch (see parallel.go). par is the configured
	// worker count; windowed is Run's one-time decision that windows can
	// open at all (par > 1, several shards, a positive lookahead). The
	// gang, contexts and telemetry are built lazily by the first window.
	// inWindow is true exactly while a gang round is executing shard
	// windows; it is written only by the serial coordinator around the
	// gang barrier, so window workers read a stable value.
	par       int
	windowed  bool
	gang      *exec.Gang
	win       []*winCtx // per-shard window contexts, built lazily
	winAt     []*winCtx // active context per shard during a window
	winRun    []*winCtx // contexts participating in the current window
	inWindow  bool
	windows   int64
	winEvents int64

	// commitAudit, when non-nil, observes every committed event key in
	// commit order — serial pops as they execute, window commits as the
	// barrier fold resolves them. Test-only (the property suite asserts
	// the keys form a strictly increasing (time, seq) sequence).
	commitAudit func(key evKey, window bool)
}

// NewKernel returns a kernel with the given deterministic random seed and
// one event shard. The kernel attaches to the process-wide default worker
// pool (exec.Default) for payload offloading; SetPool overrides it.
func NewKernel(seed int64) *Kernel {
	k := &Kernel{
		rng:  rand.New(rand.NewSource(seed)),
		pool: exec.Default(),
	}
	k.SetShards(1)
	return k
}

// SetPool attaches a specific worker pool (nil or size 1 = serial
// payload execution). Virtual times and outputs are identical for every
// pool size; only host wall-clock changes.
func (k *Kernel) SetPool(p *exec.Pool) { k.pool = p }

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// Rand returns the kernel's deterministic random source. It must only be
// used from simulated processes (or before Run), never concurrently. RNG
// draw order is part of the determinism contract, so confined processes
// executing inside a parallel window must not draw randomness; Rand
// panics there.
func (k *Kernel) Rand() *rand.Rand {
	if k.inWindow {
		panic("sim: Kernel.Rand inside a parallel window (confined code must not draw randomness)")
	}
	return k.rng
}

// Proc is a simulated process. A Proc is only valid inside the function it
// was spawned with, and all of its methods must be called from that
// function's goroutine.
type Proc struct {
	k     *Kernel
	id    int
	name  string
	shard int // event shard this proc's wake events route to
	// confined marks a process whose body only ever touches state owned
	// by its own shard (its node's resources, its rank's queues, its own
	// futures) and only interacts across shards through cross-shard
	// event posts. Confined processes' wake events are confined-class
	// and may execute inside a parallel window (see parallel.go); the
	// flag is fixed at spawn — inherited through Proc.Spawn — so an
	// event's class never changes while queued.
	confined bool
	// ctx is the window context executing this process, non-nil exactly
	// while it runs inside a parallel window; set by the window worker
	// before resuming the coroutine, cleared when the process yields.
	ctx *winCtx
	// next resumes the proc's coroutine (called only by Run's dispatcher
	// loop); yield suspends it, returning control to that next call;
	// stop tears the coroutine down (Shutdown). Control transfer is a
	// direct coroutine switch — it never enters the goroutine scheduler,
	// which is what makes the per-event handoff cheap.
	next  func() (struct{}, bool)
	yield func(struct{}) bool
	stop  func()
	// pending reports whether the proc has a wake event in the queue.
	// A proc parked without a pending event must be woken by another
	// proc via k.wake.
	pending bool
	// finished marks the body as returned, so the Proc is on the free
	// list awaiting its next incarnation.
	finished bool
	// body is the current incarnation's function; coro runs it and then
	// returns the Proc to the kernel's free list for reuse.
	body func(p *Proc)
	// charge accumulates virtual-time charges deferred by Charge. The
	// next Sleep consumes it (one kernel event for the whole run of
	// charges) and every blocking primitive flushes it first, so the
	// process can never interact with shared state — resource queues,
	// channels, futures — before its accumulated time has elapsed.
	// Durations are summed, never reordered: absolute virtual
	// timestamps at every synchronization point are identical to
	// charging each duration with its own Sleep.
	charge time.Duration
}

// ID returns the process's unique id within its kernel.
func (p *Proc) ID() int { return p.id }

// Name returns the name given at Spawn.
func (p *Proc) Name() string { return p.name }

// Shard returns the event shard this process's wake events route to.
func (p *Proc) Shard() int { return p.shard }

// SetShard moves the process's future wake events to shard s (clamped
// into range; a no-op on a one-shard kernel). An already-pending wake
// stays where it is — commit order is global, so placement is purely a
// locality hint and never observable in simulated results.
func (p *Proc) SetShard(s int) { p.shard = p.k.clampShard(s) }

// Confined reports whether the process was spawned shard-confined (see
// Kernel.SpawnOnConfined).
func (p *Proc) Confined() bool { return p.confined }

// Now returns the current virtual time as observed by this process —
// inside a parallel window, the window's local clock.
func (p *Proc) Now() Time {
	if w := p.ctx; w != nil {
		return w.now
	}
	return p.k.now
}

// event is either a process wake-up or a callback.
type event struct {
	t   Time
	seq uint64
	p   *Proc  // non-nil: wake this process
	fn  func() // non-nil: run this callback inline (must not block)
}

// Spawn creates a new simulated process executing body. The process begins
// running at the current virtual time, after the spawner next yields.
// Spawn may be called before Run or from any running process.
//
// Host-side, the kernel recycles coroutines: a finished process parks its
// coroutine (and Proc struct) on a free list, and the next Spawn reuses it
// instead of creating one. Short-lived protocol processes — MPI progress
// engines, shuffle fetchers — are spawned by the hundreds of thousands per
// simulation, and reuse removes the goroutine/stack creation from that
// path. Virtual time is untouched: each incarnation gets a fresh id and a
// fresh start event at the current time, exactly as a newly created
// process would.
func (k *Kernel) Spawn(name string, body func(p *Proc)) *Proc {
	if k.inWindow {
		panic("sim: Kernel.Spawn inside a parallel window (use Proc.Spawn)")
	}
	return k.spawn(name, body, k.curShard, false)
}

// SpawnOn is Spawn with an explicit event-shard placement (clamped into
// range; equivalent to Spawn on a one-shard kernel). Use it for
// long-lived node-resident processes so their events land on their
// rack's shard; short-lived children inherit the spawner's shard.
func (k *Kernel) SpawnOn(shard int, name string, body func(p *Proc)) *Proc {
	if k.inWindow {
		panic("sim: Kernel.SpawnOn inside a parallel window (use Proc.Spawn)")
	}
	return k.spawn(name, body, k.clampShard(shard), false)
}

// SpawnOnConfined is SpawnOn for a shard-confined process: the caller
// asserts that body touches only state owned by shard — its node's
// resources, its own message queues and futures — and reaches other
// shards only through cross-shard posts (which the kernel classes
// synchronized). Confined processes are eligible to execute inside
// parallel windows under SetParallel; the flag changes nothing at all
// about serial semantics or results, it only widens what the window
// executor may run concurrently. Children spawned via Proc.Spawn and
// callbacks posted via Proc.After inherit the confinement.
func (k *Kernel) SpawnOnConfined(shard int, name string, body func(p *Proc)) *Proc {
	if k.inWindow {
		panic("sim: Kernel.SpawnOnConfined inside a parallel window (use Proc.Spawn)")
	}
	return k.spawn(name, body, k.clampShard(shard), true)
}

// Spawn creates a child process on the spawner's shard, inheriting its
// confinement class. It is the only way to spawn from inside a parallel
// window (protocol shadows: progress engines, fetchers), and is
// equivalent to Kernel.Spawn for unconfined processes elsewhere.
func (p *Proc) Spawn(name string, body func(q *Proc)) *Proc {
	if w := p.ctx; w != nil {
		return w.spawn(name, body, p.shard, p.confined)
	}
	return p.k.spawn(name, body, p.shard, p.confined)
}

func (k *Kernel) spawn(name string, body func(p *Proc), shard int, confined bool) *Proc {
	var p *Proc
	if n := len(k.free); n > 0 {
		p = k.free[n-1]
		k.free = k.free[:n-1]
		p.id = k.nextID
		p.name = name
		p.pending = false
		p.finished = false
		p.charge = 0
		p.body = body
	} else {
		p = &Proc{
			k:    k,
			id:   k.nextID,
			name: name,
			body: body,
		}
		p.next, p.stop = iter.Pull(p.coro)
		k.procs = append(k.procs, p)
	}
	p.shard = shard
	p.confined = confined
	k.nextID++
	k.live++
	k.schedule(k.now, p)
	return p
}

// coro is the long-lived coroutine behind a Proc: the first resume runs
// the current incarnation's body; when it returns, the Proc rejoins the
// kernel's free list and the coroutine suspends until Spawn assigns the
// next body (or Shutdown stops it). A kill while the body is parked
// arrives as a procKilled panic out of park, unwound here.
func (p *Proc) coro(yield func(struct{}) bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(procKilled); ok {
				return
			}
			panic(fmt.Sprintf("sim: process %q panicked: %v", p.name, r))
		}
	}()
	p.yield = yield
	k := p.k
	for {
		p.body(p)
		p.body = nil
		p.FlushCharge() // a deferred charge still elapses before exit
		p.finished = true
		if w := p.ctx; w != nil {
			// Finished inside a parallel window: rejoin that shard's
			// context-local free list so the next in-window spawn on
			// this shard reuses the coroutine without touching kernel
			// state. The context keeps its pool across windows.
			w.liveDelta--
			p.ctx = nil
			w.free = append(w.free, p)
		} else {
			k.live--
			k.free = append(k.free, p)
		}
		if !yield(struct{}{}) || k.dead {
			return
		}
	}
}

// After schedules fn to run at virtual time now+d. fn executes inline in
// the kernel loop and must not block on any kernel primitive; it is intended
// for lightweight completions such as message delivery. fn may wake parked
// processes and schedule further callbacks.
func (k *Kernel) After(d time.Duration, fn func()) {
	k.AfterOn(k.curShard, d, fn)
}

// AfterOn is After with an explicit event-shard placement (clamped into
// range). Cross-shard deliveries — fabric messages arriving at a remote
// rack — should name the destination's shard so the event enqueues into
// that shard's inbox; plain After inherits the executing context's
// shard. Kernel callbacks are synchronized-class: they run only on the
// serial loop (confined code posts via Proc.After / Proc.AfterOn).
func (k *Kernel) AfterOn(shard int, d time.Duration, fn func()) {
	if k.inWindow {
		panic("sim: Kernel.After/AfterOn inside a parallel window (use Proc.After or Proc.AfterOn)")
	}
	if d < 0 {
		d = 0
	}
	k.pushEvent(event{t: k.now.Add(d), seq: k.seq, fn: fn}, k.clampShard(shard), true)
	k.seq++
}

// After schedules fn at the process's time plus d, on the process's own
// shard, inheriting the process's confinement class: a callback posted
// by a confined process (a same-rack message delivery, a device
// completion) is itself confined and may run inside a parallel window.
// For unconfined processes this is exactly Kernel.After.
func (p *Proc) After(d time.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	if w := p.ctx; w != nil {
		w.push(event{t: w.now.Add(d), fn: fn})
		return
	}
	k := p.k
	k.pushEvent(event{t: k.now.Add(d), seq: k.seq, fn: fn}, p.shard, !p.confined)
	k.seq++
}

// AfterOn schedules fn at the process's time plus d on an explicit
// shard. Cross-shard posts are synchronized-class — they execute on the
// serial loop — and from inside a parallel window they must land at or
// beyond the window bound, which the conservative lookahead guarantees
// whenever d is at least the configured lookahead (the minimum
// cross-shard fabric latency); a shorter post panics, surfacing a
// misconfigured lookahead instead of corrupting the event order.
func (p *Proc) AfterOn(shard int, d time.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	k := p.k
	sh := k.clampShard(shard)
	if w := p.ctx; w != nil {
		t := w.now.Add(d)
		if sh == w.shard {
			w.push(event{t: t, fn: fn})
			return
		}
		if t < w.bound.t {
			panic(fmt.Sprintf("sim: cross-shard post at %v below window bound %v (lookahead exceeds the posting latency)", t, w.bound.t))
		}
		w.pushRemote(event{t: t, fn: fn}, sh)
		return
	}
	k.pushEvent(event{t: k.now.Add(d), seq: k.seq, fn: fn}, sh, true)
	k.seq++
}

// Serial runs fn exactly once at this event's position in the committed
// global order: immediately when the process is executing serially, or
// replayed at the barrier in commit order when it is executing inside a
// parallel window. Use it for the rare touch of kernel-global or
// cross-shard state on an otherwise confined path (a run-wide counter,
// a WaitGroup). fn must not block; state it touches must not also be
// read by confined code inside the same window.
func (p *Proc) Serial(fn func()) {
	if w := p.ctx; w != nil {
		w.ops = append(w.ops, winOp{kind: opSerial, fn: fn})
		return
	}
	fn()
}

// schedule enqueues a wake event for p on p's shard, confined-class iff
// p is confined. Inside a parallel window the wake routes to p's
// shard's window context; by the confinement discipline the waker is on
// that same shard, so the context clock is the waker's clock.
func (k *Kernel) schedule(t Time, p *Proc) {
	if w := k.winOf(p); w != nil {
		w.schedule(t, p)
		return
	}
	if k.inWindow {
		panic(fmt.Sprintf("sim: wake of %q outside its window (cross-shard or unconfined wake from confined code)", p.name))
	}
	if p.pending {
		panic(fmt.Sprintf("sim: process %q scheduled twice", p.name))
	}
	p.pending = true
	k.pushEvent(event{t: t, seq: k.seq, p: p}, p.shard, !p.confined)
	k.seq++
}

// winOf returns the window context executing p's shard, or nil outside
// windows (and for shards not participating in the current window).
func (k *Kernel) winOf(p *Proc) *winCtx {
	if !k.inWindow || k.winAt == nil {
		return nil
	}
	return k.winAt[p.shard]
}

// wake makes a parked process runnable at the current virtual time.
// It is the low-level primitive used by resources, channels and futures.
func (k *Kernel) wake(p *Proc) {
	if w := k.winOf(p); w != nil {
		w.parkedDelta--
		w.schedule(w.now, p)
		return
	}
	k.parked--
	k.schedule(k.now, p)
}

// park suspends the calling process until it is resumed. The caller must
// have arranged for a future wake: either a pending event (Sleep) or
// registration with a waker (resource queue, channel, future).
//
// The parking process advances the event loop itself: callbacks run
// inline, and when the first wake event it pops is its own, it simply
// keeps running — no switch at all. Otherwise it deposits the woken
// process in k.handoff and yields its coroutine; Run's dispatcher loop
// resumes the target with a direct coroutine switch. If the queue drains,
// it yields with no handoff and Run returns. Shutdown stops suspended
// coroutines, which surfaces here as yield returning false.
func (p *Proc) park() {
	k := p.k
	if w := p.ctx; w != nil {
		// Parking inside a parallel window: advance this shard's window
		// instead of the global loop. ctx is cleared before yielding —
		// the process may be resumed serially later; a window worker
		// re-establishes it before resuming.
		if w.dispatchFrom(p) == dispSelf {
			return
		}
		p.ctx = nil
		if !p.yield(struct{}{}) || k.dead {
			panic(procKilled{})
		}
		return
	}
	if k.windowed {
		// Windows can open: always yield to Run, so the dispatcher can
		// attempt one between events. Same committed order as the
		// self-dispatch fast path, one extra coroutine switch.
		if !p.yield(struct{}{}) || k.dead {
			panic(procKilled{})
		}
		return
	}
	if k.dispatchFrom(p) == dispSelf {
		return
	}
	if !p.yield(struct{}{}) || k.dead {
		panic(procKilled{})
	}
}

// Sleep advances the process's virtual time by d plus any accumulated
// Charge backlog (consumed here, as one event). Negative durations sleep
// for zero time (still yielding to the scheduler).
func (p *Proc) Sleep(d time.Duration) {
	if d < 0 {
		d = 0
	}
	if p.charge > 0 {
		d += p.charge
		p.charge = 0
	}
	if w := p.ctx; w != nil {
		w.schedule(w.now.Add(d), p)
	} else {
		p.k.schedule(p.k.now.Add(d), p)
	}
	p.park()
}

// Charge defers a virtual-time charge: d is added to an accumulator that
// the process's next Sleep consumes (durations summed, never reordered),
// and that every blocking primitive — resource acquisition, channel
// operations, futures, signals — flushes before touching shared state.
// Consecutive pure-compute/IO charges therefore cost one kernel event at
// the next synchronization point instead of one each, with bit-identical
// virtual timestamps everywhere the process interacts with the world.
func (p *Proc) Charge(d time.Duration) {
	if d > 0 {
		p.charge += d
	}
}

// FlushCharge converts any accumulated Charge backlog into an immediate
// Sleep. Use it before observing shared state that a blocking primitive
// would not flush for you (e.g. releasing a resource, publishing a
// result). No-op when nothing is pending.
func (p *Proc) FlushCharge() {
	if p.charge > 0 {
		p.Sleep(0) // Sleep consumes the backlog
	}
}

// Yield lets any other process scheduled at the current time run first.
func (p *Proc) Yield() { p.Sleep(0) }

// block parks the process with no pending event; some other process or
// callback must wake it via Kernel.wake.
func (p *Proc) block() {
	if w := p.ctx; w != nil {
		w.parkedDelta++
	} else {
		p.k.parked++
	}
	p.park()
}

// dispatchFrom outcomes.
const (
	dispHanded  = iota // token delivered to another process
	dispDrained        // queue emptied without a handoff
	dispSelf           // next wake is the dispatching process itself
)

// dispatchFrom advances the event loop: callbacks run inline; the first
// process-wake event either resumes the dispatching process itself
// (dispSelf — the caller just keeps running, no switch) or deposits the
// woken process in k.handoff for Run's dispatcher loop (dispHanded). It
// is called by whichever goroutine is ceding control — Run, or a parking
// process about to yield — so exactly one goroutine executes model code
// at any moment.
func (k *Kernel) dispatchFrom(self *Proc) int {
	for {
		e, ok := k.popEvent()
		if !ok {
			break
		}
		k.nev++
		if e.t < k.now {
			panic("sim: event queue went backwards")
		}
		if k.commitAudit != nil {
			k.commitAudit(evKey{t: e.t, seq: e.seq}, false)
		}
		k.now = e.t
		if e.fn != nil {
			e.fn()
			continue
		}
		e.p.pending = false
		if e.p == self {
			return dispSelf
		}
		k.handoff = e.p
		return dispHanded
	}
	return dispDrained
}

// Run executes events until the queue is empty, then returns the final
// virtual time. It is the dispatcher: every process that parks or
// finishes yields its coroutine back here (leaving the next process to
// resume, if any, in k.handoff), and Run performs the switch. Processes
// still parked on resources, channels or futures when the queue drains
// are deadlocked (or simply never signalled); Run returns anyway,
// reclaiming their coroutines on the way out.
func (k *Kernel) Run() Time {
	if k.ran {
		panic("sim: Kernel.Run called twice")
	}
	k.ran = true
	defer func() {
		totalEvents.Add(k.nev)
		k.closeGang()
		k.reclaim()
	}()
	yieldEvery := int64(2048)
	nextYield := k.nev + yieldEvery
	k.windowed = k.par > 1 && len(k.shards) > 1 && k.lookahead > 0
	for {
		if k.handoff == nil {
			if k.windowed && k.tryWindow() {
				continue
			}
			if k.dispatchFrom(nil) != dispHanded {
				return k.now
			}
		}
		p := k.handoff
		k.handoff = nil
		p.next()
		// Coroutine switches never pass through the goroutine scheduler,
		// so a long dispatch chain looks to sysmon like one goroutine
		// monopolizing the P and draws a stream of async preemption
		// signals. A periodic Gosched resets the scheduler tick for a
		// few hundred nanoseconds every couple of milliseconds of
		// dispatching.
		if k.nev >= nextYield {
			nextYield = k.nev + yieldEvery
			runtime.Gosched()
		}
	}
}

// Events returns the number of events this kernel's Run has processed —
// the simulator's unit of work for throughput metrics.
func (k *Kernel) Events() int64 { return k.nev }

// totalEvents accumulates events across all kernels in the process; each
// Run adds its count once on return, so the per-event cost is nil.
var totalEvents atomic.Int64

// TotalEvents returns the number of events processed by all completed
// kernel runs in this process. The ledger reports deltas of this as
// events per second.
func TotalEvents() int64 { return totalEvents.Load() }

// Blocked returns the number of processes parked with no pending event.
// After Run returns, a non-zero value means some processes never finished
// (typically a deliberate simulation cut-off, or a bug in the model).
func (k *Kernel) Blocked() int { return k.parked }

// reclaim stops every coroutine the kernel created: suspended in park
// (not finished), idling on a free list in coro (finished), or never
// started (spawned but never dispatched). stop makes the suspended yield
// return false on the first two paths and marks the third exhausted
// without ever running it. Run reclaims on return — a kernel cannot run
// twice, so nothing could resume them, and a parked goroutine is a GC
// root that would pin the whole simulation behind it. What callers read
// after Run stays: Events, ShardStats and every pending event are
// untouched (only drained queues hand their storage on, see
// eventQueue.release), and Blocked keeps its end-of-run value even when
// an unwinding body's deferred calls wake other processes.
func (k *Kernel) reclaim() {
	k.dead = true
	parked := k.parked
	for _, p := range k.procs {
		p.stop()
	}
	k.parked = parked
	k.procs = nil
	k.free = nil
	for i := range k.shards {
		k.shards[i].conf.release()
		k.shards[i].synq.release()
	}
	for _, w := range k.win {
		if w != nil {
			w.gen.release()
		}
	}
}

// Shutdown releases a kernel's coroutines and queued events. Run already
// reclaims the coroutines when it returns; Shutdown is for a kernel that
// was never run, and empties the queues (dropping their fn closures for
// GC) while keeping the shard layout and ShardStats. Every step is a
// no-op the second time, so Shutdown is idempotent.
func (k *Kernel) Shutdown() {
	k.reclaim()
	for i := range k.shards {
		k.shards[i] = shardQ{pops: k.shards[i].pops}
		k.shards[i].init()
		k.mins[i] = maxKey
	}
	k.nq = 0
	k.closeGang()
	k.win = nil
	k.winAt = nil
	k.winRun = nil
}
