package sim

import "sync"

// eventQueue holds pending events as FIFO runs: a run is a list of
// events that share one timestamp, in push (= seq) order, and a 4-ary
// min-heap orders the runs by their head key (t, seq). Bulk-synchronous
// models release hundreds of ranks at one virtual instant — every
// collective round, barrier and file read — so most events share the
// previous event's timestamp. A pop takes the minimum run's head and
// re-sifts that run by its next head: one level of compares while the
// run stays the minimum, where a per-event heap would sift the whole
// pending set.
//
// A push appends to a run with the same timestamp whose tail seq is
// below its own, checking only the runs it touched most recently and
// the heap's minimum run; otherwise it starts a new run. Every run is
// sorted, so the minimum over run heads is the minimum over all events,
// and two runs may share a timestamp: out-of-order pushes (window
// folds, SetShards re-bucketing, inbox drains) just start another run.
// The (t, seq) key is a total order (seq is unique), so pop order — and
// therefore simulation determinism — is independent of how events
// happen to be grouped into runs.
//
// Events live in a node slab, each node linking to the next of its run;
// freed nodes and runs are recycled through free lists. Node 0 and run
// 0 are sentinels, so index 0 ends every list and the zero queue is
// empty. When Run returns, each drained queue hands its storage to the
// next kernel's queues (release, grow), so a sweep of kernels grows its
// queues once.
type eventQueue struct {
	nodes  []node    // node slab
	runs   []run     // run table, by run id
	heap   []runHead // 4-ary min-heap of live runs by head key
	free   int32     // first free node
	rfree  int32     // first free run id
	recent [2]int32  // runs most recently pushed to, newest first
	n      int       // pending events
}

// node holds one pending event; next is the following node of its run,
// or of the free list.
type node struct {
	e    event
	next int32
}

// run is a live run's tail, or a free run id's free-list link.
type run struct {
	t    Time
	last uint64 // seq of the tail event
	tail int32  // tail node; 0 while the run id is free
	next int32  // next free run id
}

// runHead is a run's heap entry: its head key and head node.
type runHead struct {
	key  evKey
	node int32
	id   int32
}

// queuePool passes drained queues' storage from one kernel to the next.
var queuePool sync.Pool

func (q *eventQueue) len() int { return q.n }

// minKey returns the earliest pending key (maxKey when empty).
func (q *eventQueue) minKey() evKey {
	if len(q.heap) == 0 {
		return maxKey
	}
	return q.heap[0].key
}

// joins reports whether e may be appended to run r.
func (q *eventQueue) joins(r int32, e *event) bool {
	rn := &q.runs[r]
	return rn.tail != 0 && rn.t == e.t && rn.last < e.seq
}

func (q *eventQueue) push(e event) {
	i := q.free
	if i != 0 {
		q.free = q.nodes[i].next
		q.nodes[i] = node{e: e}
	} else {
		if len(q.nodes) == 0 {
			q.grow()
		}
		i = int32(len(q.nodes))
		q.nodes = append(q.nodes, node{e: e})
	}
	q.n++
	r := q.recent[0]
	if !q.joins(r, &e) {
		r = q.recent[1]
		if !q.joins(r, &e) {
			r = 0
			if len(q.heap) > 0 && q.heap[0].key.t == e.t && q.joins(q.heap[0].id, &e) {
				r = q.heap[0].id
			}
		}
		if r != q.recent[0] {
			q.recent[1], q.recent[0] = q.recent[0], r
		}
	}
	if r != 0 {
		rn := &q.runs[r]
		q.nodes[rn.tail].next = i
		rn.tail, rn.last = i, e.seq
		return
	}
	// Start a new run.
	if r = q.rfree; r != 0 {
		q.rfree = q.runs[r].next
	} else {
		r = int32(len(q.runs))
		q.runs = append(q.runs, run{})
	}
	q.runs[r] = run{t: e.t, last: e.seq, tail: i}
	q.recent[0] = r
	q.heap = append(q.heap, runHead{key: evKey{t: e.t, seq: e.seq}, node: i, id: r})
	h := q.heap
	c := len(h) - 1
	for c > 0 {
		p := (c - 1) / 4
		if !h[c].key.less(h[p].key) {
			break
		}
		h[c], h[p] = h[p], h[c]
		c = p
	}
}

// grow gives an unused queue its storage — a drained queue's, when one
// was released — and lays the sentinels.
func (q *eventQueue) grow() {
	if s, ok := queuePool.Get().(*eventQueue); ok {
		*q = *s
	}
	q.nodes = append(q.nodes, node{})
	q.runs = append(q.runs, run{})
}

// release hands a drained queue's storage to the next grow and leaves q
// the zero queue; a queue still holding events keeps everything.
func (q *eventQueue) release() {
	if q.n != 0 || len(q.nodes) == 0 {
		return
	}
	queuePool.Put(&eventQueue{nodes: q.nodes[:0], runs: q.runs[:0], heap: q.heap[:0]})
	*q = eventQueue{}
}

func (q *eventQueue) pop() event {
	h := q.heap
	top := &h[0]
	i := top.node
	nd := &q.nodes[i]
	e := nd.e
	next := nd.next
	*nd = node{next: q.free}
	q.free = i
	q.n--
	n := len(h)
	if next != 0 {
		top.node = next
		top.key.seq = q.nodes[next].e.seq
	} else {
		r := top.id
		q.runs[r] = run{next: q.rfree}
		q.rfree = r
		n--
		*top = h[n]
		h = h[:n]
		q.heap = h
	}
	// Sift the root down by its new head key.
	c := 0
	for {
		first := 4*c + 1
		if first >= n {
			break
		}
		m := first
		for j := first + 1; j < min(first+4, n); j++ {
			if h[j].key.less(h[m].key) {
				m = j
			}
		}
		if !h[m].key.less(h[c].key) {
			break
		}
		h[c], h[m] = h[m], h[c]
		c = m
	}
	return e
}
