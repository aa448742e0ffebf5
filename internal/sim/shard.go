package sim

import (
	"fmt"
	"math"
	"time"
)

// Sharded event kernel.
//
// The kernel's event queue is a set of event shards — one by default,
// one per rack or group of racks when a cluster asks for more — each
// holding its own 4-ary event heaps plus inboxes for events that cross
// shard boundaries. The dispatcher merges shard heads in strict
// (time, seq) order; one shard is simply the degenerate merge front, and
// there is no other serial dispatch path. The committed event order is
// the global (time, seq) total order, bit for bit, at every shard count:
// shards change the queue's memory layout and batching, never what the
// simulation computes. That invariant is the determinism contract the
// host-invariance tests and golden digests enforce (outputs, timestamps,
// RNG draw order and counters are identical for shards = 1, 2, 4,
// NumCPU), and it is what lets shard counts be a pure tuning knob.
//
// Each shard keeps its pending events in two class-separated structures:
//
//   - conf/cinbox hold confined-class events: wakes of processes marked
//     shard-confined at spawn (their handlers touch only state owned by
//     their own shard) and callbacks posted by confined processes to
//     their own shard. These are the events the conservative-window
//     parallel executor (see parallel.go) may run off the serial loop.
//
//   - synq/sinbox hold synchronized-class events: everything else —
//     wakes of ordinary processes, kernel callbacks, cross-shard
//     deliveries. These only ever execute on the serial dispatch loop,
//     at a window barrier.
//
// The class split changes nothing serially: pops always take the global
// (time, seq) minimum across all four structures. It exists so the
// window executor can bound a safe window in O(shards) — the earliest
// pending synchronized event is one comparison per shard — and steal a
// shard's confined prefix without touching the synchronized events.
//
// Why shard at all, when commits stay globally ordered? Three reasons:
//
//   - Heap locality. A 10,000-node sweep keeps hundreds of thousands of
//     pending events; one 4-ary heap that size walks cache-missing
//     sift chains on every operation. Per-rack heaps are a few thousand
//     entries each — sift paths stay in cache — and the merge front is a
//     flat array of per-shard (time, seq) keys scanned in one or two
//     cache lines.
//
//   - Cross-shard batching. An event posted to another shard (a fabric
//     delivery, a remote wake) appends to the destination's inbox in
//     O(1) instead of sifting into its heap immediately. The inbox is
//     folded in only when the merge front actually needs that shard's
//     head, so bursts of remote traffic heapify in batches.
//
//   - Conservative-lookahead parallel execution. Each shard publishes
//     the lower bound on its future sends (LBTS: its next event time
//     plus the minimum cross-shard fabric latency). Serially the
//     dispatcher uses it for the independence accounting in ShardStats;
//     with SetParallel(n>1) the window executor uses the same bound to
//     run each shard's confined event prefix on its own host worker
//     between commit barriers (see parallel.go).

// evKey is the global ordering key of a queued event. seq is unique, so
// (t, seq) is a total order and shard merge is deterministic.
type evKey struct {
	t   Time
	seq uint64
}

// maxKey sorts after every real event key (sentinel for "empty").
var maxKey = evKey{t: Time(math.MaxInt64), seq: math.MaxUint64}

func (a evKey) less(b evKey) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	return a.seq < b.seq
}

// inboxShrinkCap is the retained-capacity threshold above which a
// drained inbox's backing array is released: one cross-shard burst (a
// partition healing, an all-to-all wave) must not pin a burst-sized
// array on every shard for the rest of the run. Below the threshold the
// array is recycled as before — steady-state traffic never reallocates.
const inboxShrinkCap = 4096

// shardQ is one event shard: class-separated 4-ary heaps plus
// cross-shard inboxes. The inboxes defer heap insertion of events posted
// from other shards; each is folded into its heap only when the merge
// front (or a window build) selects this shard at its inbox minimum.
type shardQ struct {
	conf   eventQueue // confined-class events (window-eligible)
	synq   eventQueue // synchronized-class events (serial-only)
	cinbox []event    // cross-shard confined-class arrivals
	sinbox []event    // cross-shard synchronized-class arrivals
	cmin   evKey      // min over cinbox (maxKey when empty)
	smin   evKey      // min over sinbox (maxKey when empty)
	pops   int64      // events committed from this shard
}

// init resets the inbox minima of an empty shard.
func (s *shardQ) init() {
	s.cmin = maxKey
	s.smin = maxKey
}

// minKey returns the shard's head key: the global minimum over both
// heaps and both inboxes (maxKey when the shard is empty).
func (s *shardQ) minKey() evKey {
	k := s.confMin()
	if sk := s.syncMin(); sk.less(k) {
		k = sk
	}
	return k
}

// confMin returns the earliest confined-class key (heap or inbox).
func (s *shardQ) confMin() evKey {
	k := s.cmin
	if len(s.conf) > 0 {
		if hk := (evKey{t: s.conf[0].t, seq: s.conf[0].seq}); hk.less(k) {
			k = hk
		}
	}
	return k
}

// syncMin returns the earliest synchronized-class key (heap or inbox).
// This is the O(1) per-shard bound the window executor needs: no
// confined event at or beyond this key may run off the serial loop.
func (s *shardQ) syncMin() evKey {
	k := s.smin
	if len(s.synq) > 0 {
		if hk := (evKey{t: s.synq[0].t, seq: s.synq[0].seq}); hk.less(k) {
			k = hk
		}
	}
	return k
}

// shrunk returns the inbox slice to retain after a fold: the backing
// array when it is modestly sized, nil (releasing it) past the shrink
// threshold.
func shrunk(b []event) []event {
	if cap(b) > inboxShrinkCap {
		return nil
	}
	return b[:0]
}

// drainConf folds the confined inbox into the confined heap.
func (s *shardQ) drainConf() {
	for i := range s.cinbox {
		s.conf.push(s.cinbox[i])
		s.cinbox[i] = event{} // release fn closures
	}
	s.cinbox = shrunk(s.cinbox)
	s.cmin = maxKey
}

// drainSync folds the synchronized inbox into the synchronized heap.
func (s *shardQ) drainSync() {
	for i := range s.sinbox {
		s.synq.push(s.sinbox[i])
		s.sinbox[i] = event{} // release fn closures
	}
	s.sinbox = shrunk(s.sinbox)
	s.smin = maxKey
}

// ShardStats reports the sharded queue's telemetry after (or during) a
// run. With one shard nothing crosses shards and every event counts as
// independent, so only Events and PerShard carry information.
type ShardStats struct {
	Shards    int           // configured shard count
	Lookahead time.Duration // conservative lookahead bound (min cross-shard latency)
	Events    int64         // events committed by the dispatcher
	Cross     int64         // events that crossed a shard boundary (inbox traffic)
	Drains    int64         // inbox batch folds
	// Independent counts committed events whose shard could have
	// advanced to them without cross-shard coordination: the event's
	// timestamp was below min over other shards of (next event time +
	// lookahead). Every event committed inside a parallel window is
	// independent by construction and counts here too.
	// Independent/Events is the fraction of the event stream a
	// conservative-lookahead parallel executor can run concurrently
	// under this shard partition.
	Independent int64
	PerShard    []int64 // events committed per shard

	// Parallel-dispatch telemetry (zero unless SetParallel(n>1) opened
	// windows; see parallel.go). WindowEvents/Events is the realized
	// parallel fraction — the honest counterpart of Independent/Events,
	// which is the partition's ceiling.
	Workers      int   // configured dispatch workers
	Windows      int64 // parallel windows executed
	WindowEvents int64 // events committed inside windows (off the serial loop)
}

// SetShards partitions the kernel's event queue into n shards (n <= 1
// means one shard, the kernel's starting layout). It must be called
// before Run; pending events are re-bucketed: process wakes to their
// process's shard and class, callbacks to shard 0 synchronized. Shard
// counts are a pure tuning knob — committed event order, and therefore
// every simulated output, is identical at every n.
func (k *Kernel) SetShards(n int) {
	if k.ran {
		panic("sim: SetShards after Run")
	}
	var pending []event
	for i := range k.shards {
		s := &k.shards[i]
		pending = append(pending, s.conf...)
		pending = append(pending, s.synq...)
		pending = append(pending, s.cinbox...)
		pending = append(pending, s.sinbox...)
	}
	n = max(n, 1)
	k.nq = 0
	k.curShard = 0
	k.shards = make([]shardQ, n)
	k.mins = make([]evKey, n)
	for i := range k.shards {
		k.shards[i].init()
		k.mins[i] = maxKey
	}
	for _, e := range pending {
		sh, sync := 0, true
		if e.p != nil {
			sh = k.clampShard(e.p.shard)
			sync = !e.p.confined
		}
		k.pushEvent(e, sh, sync)
	}
}

// Shards returns the configured shard count.
func (k *Kernel) Shards() int { return len(k.shards) }

// SetLookahead sets the conservative lookahead bound: a static, positive
// lower bound on the virtual latency of every cross-shard interaction
// (the minimum cross-shard fabric latency — RDMA verbs is the floor on
// the Comet platform). It feeds the independence accounting in
// ShardStats and bounds the safe window of the parallel executor
// (SetParallel); commits are always globally ordered.
func (k *Kernel) SetLookahead(d time.Duration) {
	if d < 0 {
		d = 0
	}
	k.lookahead = Time(d)
}

// Lookahead returns the configured conservative lookahead bound.
func (k *Kernel) Lookahead() time.Duration { return time.Duration(k.lookahead) }

// ShardStats returns the sharded queue's telemetry.
func (k *Kernel) ShardStats() ShardStats {
	st := ShardStats{
		Shards:       k.Shards(),
		Lookahead:    time.Duration(k.lookahead),
		Events:       k.nev,
		Cross:        k.crossEvents,
		Drains:       k.drains,
		Independent:  k.indepEvents,
		Workers:      k.Parallel(),
		Windows:      k.windows,
		WindowEvents: k.winEvents,
	}
	for i := range k.shards {
		st.PerShard = append(st.PerShard, k.shards[i].pops)
	}
	return st
}

func (k *Kernel) clampShard(s int) int {
	if s < 0 {
		return 0
	}
	if s >= len(k.shards) {
		return s % len(k.shards)
	}
	return s
}

// pushEvent enqueues e on shard sh with the given class. Same-shard
// events sift into the shard heap directly; cross-shard events append to
// the destination inbox in O(1) and heapify in batches at drain time.
func (k *Kernel) pushEvent(e event, sh int, sync bool) {
	s := &k.shards[sh]
	ek := evKey{t: e.t, seq: e.seq}
	if sh == k.curShard {
		if sync {
			s.synq.push(e)
		} else {
			s.conf.push(e)
		}
	} else {
		k.crossEvents++
		if sync {
			s.sinbox = append(s.sinbox, e)
			if ek.less(s.smin) {
				s.smin = ek
			}
		} else {
			s.cinbox = append(s.cinbox, e)
			if ek.less(s.cmin) {
				s.cmin = ek
			}
		}
	}
	if ek.less(k.mins[sh]) {
		k.mins[sh] = ek
	}
	k.nq++
}

// popEvent removes and returns the globally earliest event, in strict
// (time, seq) order regardless of shard layout or class. It also
// maintains the conservative-lookahead independence accounting and sets
// curShard to the committed event's shard, which routes inherited
// spawns, After callbacks and same-shard pushes.
func (k *Kernel) popEvent() (event, bool) {
	if k.nq == 0 {
		return event{}, false
	}
	// Merge front: scan the flat per-shard key array for the global
	// minimum and the runner-up (the neighbor bound for the lookahead
	// accounting).
	best := -1
	bk, b2 := maxKey, maxKey
	for i := range k.mins {
		m := k.mins[i]
		if m.less(bk) {
			b2 = bk
			best, bk = i, m
		} else if m.less(b2) {
			b2 = m
		}
	}
	if best < 0 {
		panic("sim: sharded queue lost events")
	}
	s := &k.shards[best]
	if len(s.cinbox) > 0 && bk == s.cmin {
		s.drainConf()
		k.drains++
	}
	if len(s.sinbox) > 0 && bk == s.smin {
		s.drainSync()
		k.drains++
	}
	var e event
	if len(s.conf) > 0 && s.conf[0].t == bk.t && s.conf[0].seq == bk.seq {
		e = s.conf.pop()
	} else {
		e = s.synq.pop()
	}
	if e.t != bk.t || e.seq != bk.seq {
		panic(fmt.Sprintf("sim: shard %d head mismatch: popped (%v,%d) want (%v,%d)",
			best, e.t, e.seq, bk.t, bk.seq))
	}
	k.mins[best] = s.minKey()
	k.nq--
	s.pops++
	k.curShard = best
	// Conservative lookahead: could this shard have committed e without
	// waiting on its neighbors? Yes iff e precedes every neighbor's
	// LBTS = next event time + lookahead (trivially yes when no other
	// shard holds events).
	if b2 == maxKey || e.t < b2.t+k.lookahead {
		k.indepEvents++
	}
	return e, true
}
