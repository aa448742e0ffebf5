package sim

import (
	"fmt"
	"iter"

	"hpcbd/internal/exec"
)

// Conservative-window parallel dispatch.
//
// With SetParallel(n > 1) on a kernel with several shards and a positive
// lookahead, Run interleaves two modes:
//
//   - Serial dispatch: the ordinary one-event-at-a-time loop. All
//     synchronized-class events (cross-shard deliveries, kernel
//     callbacks, wakes of unconfined processes) execute here.
//
//   - Windows: when at least two shards hold confined-class events
//     strictly below the safe bound
//
//         B = min( earliest synchronized event anywhere,
//                  (earliest confined event time + lookahead, seq 0) )
//
//     each such shard's confined prefix below B runs on its own gang
//     worker, concurrently with the other shards. The bound is safe by
//     the standard conservative (Chandy–Misra–Bryant) argument: every
//     cross-shard interaction costs at least the lookahead in virtual
//     latency, so nothing any shard does inside the window can produce
//     an event below B on another shard; and capping B at the earliest
//     synchronized event keeps every event whose handler may touch
//     non-shard-local state on the serial loop, in exact global order.
//
// The committed event order is byte-identical to serial execution at
// every worker count. Mechanically:
//
//   - Events generated inside a window carry provisional sequence
//     numbers (>= 1<<63, above every real sequence number, assigned in
//     shard-local execution order). At equal timestamps a pre-existing
//     event therefore sorts before a generated one — exactly as in
//     serial execution, where the generated event would have been
//     pushed later and drawn a larger sequence number.
//
//   - Each window context logs its commits and its side effects that
//     need global state (sequence numbers, process ids, cross-shard
//     posts, Serial thunks) in execution order. At the barrier the
//     coordinator replays the logs in merged commit order — which a
//     straightforward induction shows is the serial commit order — and
//     assigns real sequence numbers and ids exactly as the serial
//     kernel would have. Leftover generated events move to the shard's
//     confined queue with their provisional numbers resolved; the
//     rewrite is monotone per shard, so their relative order holds.
//
//   - A window opens (or not) as a pure function of the queue state,
//     never of worker count or host timing, so the window schedule —
//     and with it every internal counter — is identical at every
//     worker count >= 2, and the committed order is identical to the
//     serial kernel at any worker count including 1.
//
// Whether code may run inside a window is a static classification (see
// Proc.Confined); the kernel panics on the common violations — drawing
// randomness, kernel-level spawns/callbacks, bare Resource.Release,
// waking a process outside the window — and the race detector catches
// the rest (the tier-1 suite soaks sim, exec and cluster under -race
// with 4 workers and 4 shards).

// SetParallel configures dispatch with n host workers (n <= 1 restores
// pure serial dispatch, the default). Windows open only on a kernel with
// several shards and a positive lookahead; Run decides that once, and
// otherwise dispatches exactly as if n were 1. It is a host-side tuning
// knob only, with no effect on simulated results. Must be called before
// Run.
func (k *Kernel) SetParallel(n int) {
	if k.ran {
		panic("sim: SetParallel after Run")
	}
	if n < 1 {
		n = 1
	}
	k.par = n
}

// Parallel returns the configured dispatch worker count.
func (k *Kernel) Parallel() int {
	if k.par < 1 {
		return 1
	}
	return k.par
}

// provBase is the first provisional sequence number. Real sequence
// numbers count committed pushes and stay far below it, so provisional
// keys sort after every real key at equal time.
const provBase uint64 = 1 << 63

// winOp kinds: the side effects a window context defers to the barrier.
const (
	opPush   = iota // an event push needing a real sequence number
	opSpawn         // a process creation needing a real id
	opSerial        // a Proc.Serial thunk
)

// winOp is one logged side effect. Pushes are logged in execution
// order; the j-th push of a context resolves provisional number
// provBase+j. Local (same-shard) pushes log only the slot — the event
// itself sits in the context's generated-event queue. Cross-shard posts
// carry the full event and destination; they are withheld from the
// destination until the fold, where they arrive with a real sequence
// number (and, being at or beyond the bound, cannot have been needed
// sooner).
type winOp struct {
	kind int
	sh   int    // opPush: destination shard; -1 = same-shard
	e    event  // opPush with sh >= 0: the withheld cross-shard event
	fn   func() // opSerial
	p    *Proc  // opSpawn
}

// winCommit marks one committed event: its key as committed (possibly
// provisional) and where its side-effect span starts in the op log.
type winCommit struct {
	key     evKey
	opStart int
}

// winCtx executes one shard's confined window. Exactly one gang worker
// runs a context at a time; everything it touches — the shard's
// confined queue and inbox, the context's own logs and pools, the
// processes it resumes — is owned by that worker for the duration of
// the window. The context persists across windows to reuse its
// allocations (logs, generated-event queue, coroutine pool).
type winCtx struct {
	k     *Kernel
	shard int

	// Per-window state.
	bound    evKey      // window bound B; commits must be strictly below
	now      Time       // shard-local virtual clock
	handoff  *Proc      // next process to resume, deposited by a parking proc
	gen      eventQueue // events generated in-window (provisional seqs)
	commits  []winCommit
	ops      []winOp
	npush    int      // provisional numbers minted this window
	resolved []uint64 // provisional -> real sequence numbers (fold)
	ci, oi   int      // fold cursors

	// Deltas folded into kernel counters at the barrier.
	nev         int64
	nqDelta     int
	parkedDelta int
	liveDelta   int
	drainsDelta int64

	// Coroutine reuse, context-local so in-window spawns never touch
	// the kernel free list. newProcs collects first-incarnation procs
	// for k.procs at the fold.
	free     []*Proc
	newProcs []*Proc
}

// reset prepares the context for a new window with the given bound.
func (w *winCtx) reset(bound evKey) {
	w.bound = bound
	w.now = w.k.now
	w.handoff = nil
	w.commits = w.commits[:0]
	for i := range w.ops {
		w.ops[i] = winOp{} // release closures and proc refs
	}
	w.ops = w.ops[:0]
	w.npush = 0
	w.resolved = w.resolved[:0]
	w.ci, w.oi = 0, 0
	w.nev, w.nqDelta, w.parkedDelta, w.liveDelta, w.drainsDelta = 0, 0, 0, 0, 0
}

// push enqueues a same-shard event generated inside the window,
// minting a provisional sequence number in shard-local execution order.
func (w *winCtx) push(e event) {
	e.seq = provBase + uint64(w.npush)
	w.npush++
	w.ops = append(w.ops, winOp{kind: opPush, sh: -1})
	w.gen.push(e)
	w.nqDelta++
}

// pushRemote logs a cross-shard synchronized-class post. The event is
// withheld until the barrier fold delivers it with a real sequence
// number.
func (w *winCtx) pushRemote(e event, sh int) {
	e.seq = provBase + uint64(w.npush)
	w.npush++
	w.ops = append(w.ops, winOp{kind: opPush, sh: sh, e: e})
}

// schedule enqueues a wake for p inside the window. The confinement
// discipline means wakes from window code target processes of the same
// shard; anything else is a data race the -race soak catches.
func (w *winCtx) schedule(t Time, p *Proc) {
	if p.pending {
		panic(fmt.Sprintf("sim: process %q scheduled twice", p.name))
	}
	if p.shard != w.shard {
		panic(fmt.Sprintf("sim: wake of %q crosses shards inside a parallel window", p.name))
	}
	p.pending = true
	w.push(event{t: t, p: p})
}

// spawn creates a process inside the window: context-local coroutine
// reuse, provisional id (renumbered at the fold), start event in the
// window's generated queue.
func (w *winCtx) spawn(name string, body func(p *Proc), shard int, confined bool) *Proc {
	if shard != w.shard {
		panic(fmt.Sprintf("sim: spawn of %q crosses shards inside a parallel window", name))
	}
	k := w.k
	var p *Proc
	if n := len(w.free); n > 0 {
		p = w.free[n-1]
		w.free = w.free[:n-1]
		p.name = name
		p.pending = false
		p.finished = false
		p.charge = 0
		p.body = body
	} else {
		p = &Proc{k: k, name: name, body: body}
		p.next, p.stop = iter.Pull(p.coro)
		w.newProcs = append(w.newProcs, p)
	}
	p.id = -1 // provisional; the fold assigns the real id
	p.shard = shard
	p.confined = confined
	w.liveDelta++
	w.ops = append(w.ops, winOp{kind: opSpawn, p: p})
	w.schedule(w.now, p)
	return p
}

// run executes the shard's confined window to its bound: fold the
// confined inbox once (no confined cross-shard traffic can arrive
// mid-window), then dispatch exactly like Run's serial loop, but
// against the shard's confined queue and the window's generated queue.
func (w *winCtx) run() {
	s := &w.k.shards[w.shard]
	if len(s.cinbox) > 0 {
		s.drainConf()
		w.drainsDelta++
	}
	for {
		if w.handoff == nil {
			if w.dispatchFrom(nil) != dispHanded {
				return
			}
		}
		p := w.handoff
		w.handoff = nil
		p.ctx = w
		p.next()
	}
}

// dispatchFrom is the window-local analogue of Kernel.dispatchFrom: pop
// the earliest event below the bound from the shard's confined queue or
// the window's generated queue, run callbacks inline, hand process
// wakes off (or keep running on dispSelf).
func (w *winCtx) dispatchFrom(self *Proc) int {
	s := &w.k.shards[w.shard]
	for {
		src, hk := &s.conf, s.conf.minKey()
		if gk := w.gen.minKey(); gk.less(hk) {
			src, hk = &w.gen, gk
		}
		if !hk.less(w.bound) {
			return dispDrained
		}
		e := src.pop()
		if e.t < w.now {
			panic("sim: window event queue went backwards")
		}
		w.commits = append(w.commits, winCommit{key: hk, opStart: len(w.ops)})
		w.nev++
		w.nqDelta--
		w.now = e.t
		if e.fn != nil {
			e.fn()
			continue
		}
		e.p.pending = false
		if e.p == self {
			return dispSelf
		}
		w.handoff = e.p
		return dispHanded
	}
}

// tryWindow computes the safe bound, opens a window across every shard
// with confined work below it (when at least two have any — otherwise
// serial dispatch is at least as good), runs the gang round, and folds
// the results. Returns whether a window ran. Every decision here is a
// pure function of queue state, never of worker count or timing.
func (k *Kernel) tryWindow() bool {
	minConf, minSync := maxKey, maxKey
	for i := range k.shards {
		s := &k.shards[i]
		if ck := s.confMin(); ck.less(minConf) {
			minConf = ck
		}
		if sk := s.syncMin(); sk.less(minSync) {
			minSync = sk
		}
	}
	if minConf == maxKey {
		return false
	}
	bound := evKey{t: minConf.t + k.lookahead}
	if minSync.less(bound) {
		bound = minSync
	}
	if !minConf.less(bound) {
		return false
	}
	if k.win == nil {
		k.win = make([]*winCtx, len(k.shards))
		k.winAt = make([]*winCtx, len(k.shards))
	}
	k.winRun = k.winRun[:0]
	for i := range k.shards {
		if !k.shards[i].confMin().less(bound) {
			continue
		}
		w := k.win[i]
		if w == nil {
			w = &winCtx{k: k, shard: i}
			k.win[i] = w
		}
		w.reset(bound)
		k.winRun = append(k.winRun, w)
	}
	if len(k.winRun) < 2 {
		return false
	}
	if k.gang == nil {
		n := k.par
		if n > len(k.shards) {
			n = len(k.shards)
		}
		k.gang = exec.NewGang(n)
	}
	for _, w := range k.winRun {
		k.winAt[w.shard] = w
	}
	k.inWindow = true
	defer func() {
		k.inWindow = false
		for _, w := range k.winRun {
			k.winAt[w.shard] = nil
		}
	}()
	k.gang.Run(len(k.winRun), func(i int) { k.winRun[i].run() })
	k.fold()
	return true
}

// fold merges the window contexts back into the kernel at the barrier:
// replay the per-context logs in globally merged commit order, assigning
// real sequence numbers and process ids exactly as serial execution
// would have, running Serial thunks at their committed positions, and
// delivering withheld cross-shard posts; then rewrite leftover
// provisional numbers and merge all counters.
func (k *Kernel) fold() {
	for {
		// Pick the context whose next commit is globally earliest. A
		// provisional key's parent push replayed earlier in the same
		// context, so resolution is always available.
		var best *winCtx
		bk := maxKey
		for _, w := range k.winRun {
			if w.ci >= len(w.commits) {
				continue
			}
			key := w.commits[w.ci].key
			if key.seq >= provBase {
				key.seq = w.resolved[key.seq-provBase]
			}
			if key.less(bk) {
				bk = key
				best = w
			}
		}
		if best == nil {
			break
		}
		w := best
		if k.commitAudit != nil {
			k.commitAudit(bk, true)
		}
		k.now = bk.t
		k.curShard = w.shard
		end := len(w.ops)
		if w.ci+1 < len(w.commits) {
			end = w.commits[w.ci+1].opStart
		}
		for ; w.oi < end; w.oi++ {
			op := &w.ops[w.oi]
			switch op.kind {
			case opPush:
				seq := k.seq
				k.seq++
				w.resolved = append(w.resolved, seq)
				if op.sh >= 0 {
					e := op.e
					e.seq = seq
					k.foldRemote(e, op.sh)
				}
			case opSpawn:
				op.p.id = k.nextID
				k.nextID++
			case opSerial:
				op.fn()
			}
		}
		w.ci++
	}
	for _, w := range k.winRun {
		s := &k.shards[w.shard]
		for w.gen.len() > 0 {
			e := w.gen.pop()
			e.seq = w.resolved[e.seq-provBase]
			s.conf.push(e)
		}
		k.nev += w.nev
		k.winEvents += w.nev
		// Window events are independent by construction — each shard
		// advanced to them without cross-shard coordination.
		k.indepEvents += w.nev
		s.pops += w.nev
		k.nq += w.nqDelta
		k.parked += w.parkedDelta
		k.live += w.liveDelta
		k.drains += w.drainsDelta
		if len(w.newProcs) > 0 {
			k.procs = append(k.procs, w.newProcs...)
			w.newProcs = w.newProcs[:0]
		}
		k.mins[w.shard] = s.minKey()
	}
	// The serial clock resumes at the last committed time (the merge loop
	// left k.now there — exactly where serial execution would stand),
	// held back to the earliest pending event when a barrier-replayed
	// Serial thunk scheduled work below it: the dispatcher's
	// monotonicity guard requires the clock to trail every pending key.
	for i := range k.mins {
		if t := k.mins[i].t; t < k.now {
			k.now = t
		}
	}
	k.windows++
}

// foldRemote delivers a withheld cross-shard post from a window into
// the destination shard's synchronized inbox, exactly as a serial
// cross-shard push would have.
func (k *Kernel) foldRemote(e event, sh int) {
	s := &k.shards[sh]
	k.crossEvents++
	ek := evKey{t: e.t, seq: e.seq}
	s.sinbox = append(s.sinbox, e)
	if ek.less(s.smin) {
		s.smin = ek
	}
	if ek.less(k.mins[sh]) {
		k.mins[sh] = ek
	}
	k.nq++
}

// closeGang releases the dispatch gang's workers (idempotent).
func (k *Kernel) closeGang() {
	if k.gang != nil {
		k.gang.Close()
		k.gang = nil
	}
}
