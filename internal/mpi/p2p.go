package mpi

import (
	"fmt"
	"slices"
	"time"

	"hpcbd/internal/cluster"
	"hpcbd/internal/sim"
)

// Message is a received point-to-point message.
type Message struct {
	Src     int // rank within the communicator it was sent on
	Tag     int
	Bytes   int64
	Payload any
}

// envelope is an in-flight message at the receiver: either a delivered
// eager message or a rendezvous RTS awaiting the data transfer.
//
// Envelopes are recycled, and who may touch one follows the message: the
// sender takes it from its own rank's free list (or allocates), fills it
// and hands it to the fabric; from arrival on it belongs to the
// destination rank, which retires it onto its own free list once the
// receive has copied the message out. A free list is therefore only ever
// touched from its rank's shard — no lock, legal for LaunchEager's
// confined ranks inside parallel windows — and its contents follow
// virtual event order, not host timing. An envelope that never arrives or
// is never received (message faults, a deadlocked world) falls to the GC.
type envelope struct {
	cid     int
	src     int // comm-relative source rank
	tag     int
	bytes   int64
	payload any
	eager   bool
	// rendezvous state, embedded by value (zero-value futures are valid).
	cts  sim.Future[struct{}] // completed when the receiver matches (clear-to-send)
	data sim.Future[Message]  // completed by the sender when payload lands

	to   *Rank     // destination rank
	next *envelope // free-list link

	// Kernel callbacks bound to this envelope once, when it is allocated,
	// so that sending it again allocates no closure.
	arrive      func() // deliver, the fabric's arrival callback
	clearToSend func() // completes cts (rendezvous only, bound on first use)
}

// maxFreeEnvelopes bounds a rank's envelope free list. Symmetric
// exchanges keep one or two in flight per rank; the bound stops a rank
// that receives more than it sends (a Gather root, a Bcast leaf) from
// hoarding every envelope the world ever allocated.
const maxFreeEnvelopes = 16

// newEnvelope returns a zeroed envelope for a message from rank r.
func (r *Rank) newEnvelope() *envelope {
	e := r.freeEnv
	if e == nil {
		e = &envelope{}
		e.arrive = e.deliver
		return e
	}
	r.freeEnv, e.next = e.next, nil
	r.nFreeEnv--
	return e
}

// retire recycles an envelope whose message this rank has received.
func (r *Rank) retire(e *envelope) {
	if r.nFreeEnv == maxFreeEnvelopes {
		return
	}
	// Zeroing resets the futures and drops the payload reference.
	*e = envelope{arrive: e.arrive, clearToSend: e.clearToSend, next: r.freeEnv}
	r.freeEnv = e
	r.nFreeEnv++
}

// postedRecv is a receive waiting on a rank's posted queue. A blocking
// Recv posts the slot embedded in its Rank, an Irecv the one in its
// Request.
type postedRecv struct {
	cid, src, tag int
	fut           sim.Future[*envelope]
}

func match(cid, src, tag int, e *envelope) bool {
	return e.cid == cid &&
		(src == AnySource || e.src == src) &&
		(tag == AnyTag || e.tag == tag)
}

// deliver is invoked (as a kernel callback) when a message or RTS arrives
// at the destination rank: hand it to a matching posted receive, or queue
// it as unexpected.
func (e *envelope) deliver() {
	r := e.to
	for i, pr := range r.posted {
		if match(pr.cid, pr.src, pr.tag, e) {
			// slices.Delete clears the vacated tail slot, so the backing
			// array keeps no pointer to a record that is about to be reused.
			r.posted = slices.Delete(r.posted, i, i+1)
			pr.fut.Complete(e)
			return
		}
	}
	r.unexpected = append(r.unexpected, e)
}

// rtsBytes is the size of the rendezvous control messages.
const rtsBytes = 64

// mpiStream is the fate-coin stream id for MPI point-to-point traffic
// (transport.StreamMPI; the literal avoids an import cycle concern and
// keeps package mpi free of the transport layer it pointedly lacks).
const mpiStream int64 = 5

// clearNetwork consults the message-fault model for a cross-node send
// and returns true once a transmission attempt gets through. On a plain
// world the first drop is final: the bytes are injected and lost, and
// the sender returns as if the send completed — the receiver will block
// forever, which is exactly the transport fragility of native MPI the
// paper's §VI-D worries about. On a resilient world (RunResilient) the
// send retransmits on a doubling timeout until a copy is delivered;
// corrupt frames count as drops (verbs CRC discards them).
func (c *Comm) clearNetwork(r *Rank, p *sim.Proc, dr *Rank, bytes int64, f cluster.FabricSpec) bool {
	cl := c.world.Cluster
	if !cl.NetFaultsEnabled() || r.node == dr.node {
		return true
	}
	if p.Confined() {
		// LaunchEager drops confinement when faults are on at launch;
		// reaching here means faults were enabled mid-run under a
		// confined world, which the fate-coin state cannot support.
		panic("mpi: message faults enabled under a shard-confined world (launch with Launch, not LaunchEager)")
	}
	seq := cl.NextMsgSeq(mpiStream, r.node, dr.node)
	if cl.FateOf(r.node, dr.node, mpiStream, seq, 0) == cluster.FateDeliver {
		return true
	}
	if !c.world.netRetry {
		c.world.lostMsgs++
		cl.XferInject(p, r.node, dr.node, bytes, f)
		return false
	}
	timeout := c.world.commTimeout
	for attempt := 1; ; attempt++ {
		c.world.commFaults++
		cl.XferInject(p, r.node, dr.node, bytes, f)
		p.Sleep(timeout)
		if timeout < 16*c.world.commTimeout {
			timeout *= 2
		}
		if cl.FateOf(r.node, dr.node, mpiStream, seq, attempt) == cluster.FateDeliver {
			return true
		}
	}
}

// Send performs a blocking standard-mode send of a message of the given
// logical size to dst on communicator c. Payload travels by reference —
// the simulated cost is determined by bytes, not by the Go value.
//
// Messages at or below the eager threshold complete as soon as they are
// injected (buffered at the receiver); larger messages use a rendezvous
// protocol and block until the receiver has matched.
func (c *Comm) Send(r *Rank, dst, tag int, payload any, bytes int64) {
	c.sendOn(r, r.p, dst, tag, payload, bytes)
}

// sendOn performs rank r's send, charging time to p: the rank's own
// process, or the progress process of an Isend.
func (c *Comm) sendOn(r *Rank, p *sim.Proc, dst, tag int, payload any, bytes int64) {
	if dst < 0 || dst >= c.Size() {
		panic(fmt.Sprintf("mpi: send to invalid rank %d (comm size %d)", dst, c.Size()))
	}
	cm := r.cost()
	// Per-call overhead stays a Sleep, not a coalesced Charge: MPI ranks
	// run in barrier-synchronized lockstep, so removing the intermediate
	// wake event renumbers same-timestamp events and flips (time, seq)
	// tie-breaks at contended NIC/scratch resources — observable virtual-
	// time divergence in the resilient sweeps.
	p.Sleep(cm.MPIPerCallOverhead)
	dr := c.world.ranks[c.group[dst]]
	f := r.fabric()
	src := c.rankOf(r)

	if bytes <= cm.MPIEagerThreshold {
		if !c.clearNetwork(r, p, dr, bytes+rtsBytes, f) {
			return // eager frame lost; the receiver will wait forever
		}
		e := r.newEnvelope()
		e.cid, e.src, e.tag, e.bytes, e.payload, e.eager, e.to = c.cid, src, tag, bytes, payload, true, dr
		c.world.Cluster.XferAsync(p, r.node, dr.node, bytes+rtsBytes, f, e.arrive)
		return
	}

	// Rendezvous: RTS, wait for CTS, then transfer payload. Losing the
	// RTS kills the whole exchange: without it the receiver never sends
	// CTS, so the fragile sender parks forever too.
	if p.Confined() {
		panic(fmt.Sprintf("mpi: rendezvous send (%d bytes > eager threshold %d) from a shard-confined rank; use Launch instead of LaunchEager", bytes, cm.MPIEagerThreshold))
	}
	if !c.clearNetwork(r, p, dr, rtsBytes, f) {
		var never sim.Future[struct{}]
		never.Wait(p) // no CTS will come, and a fragile MPI_Send has nothing else to wake it
		return
	}
	e := r.newEnvelope()
	e.cid, e.src, e.tag, e.bytes, e.to = c.cid, src, tag, bytes, dr
	c.world.Cluster.XferAsync(p, r.node, dr.node, rtsBytes, f, e.arrive)
	e.cts.Wait(p)
	c.world.Cluster.Xfer(p, r.node, dr.node, bytes, f)
	// Completing data is the sender's last touch: the receiver retires
	// the envelope when it wakes.
	e.data.Complete(Message{Src: src, Tag: tag, Bytes: bytes, Payload: payload})
}

// Recv performs a blocking receive matching (src, tag) on communicator c.
// src may be AnySource and tag may be AnyTag.
func (c *Comm) Recv(r *Rank, src, tag int) Message {
	r.p.Sleep(r.cost().MPIPerCallOverhead)
	return c.recvOn(r, r.p, &r.recv, src, tag)
}

// recvOn performs rank r's receive — its matching queues, its free list
// — charging time to p: the rank's own process, or the progress process
// of an Irecv. pr is the slot to post if no message is waiting.
func (c *Comm) recvOn(r *Rank, p *sim.Proc, pr *postedRecv, src, tag int) Message {
	f := r.fabric()
	var e *envelope
	for i, u := range r.unexpected {
		if match(c.cid, src, tag, u) {
			r.unexpected = slices.Delete(r.unexpected, i, i+1)
			e = u
			break
		}
	}
	if e == nil {
		*pr = postedRecv{cid: c.cid, src: src, tag: tag}
		r.posted = append(r.posted, pr)
		e = pr.fut.Wait(p)
	}
	if e.eager {
		m := Message{Src: e.src, Tag: e.tag, Bytes: e.bytes, Payload: e.payload}
		r.retire(e)
		p.Sleep(f.RecvOverhead)
		return m
	}
	if p.Confined() {
		panic("mpi: rendezvous receive on a shard-confined rank; use Launch instead of LaunchEager")
	}
	if e.clearToSend == nil {
		e.clearToSend = func() { e.cts.Complete(struct{}{}) }
	}
	c.world.Cluster.K.After(f.TransferTime(rtsBytes), e.clearToSend)
	m := e.data.Wait(p)
	r.retire(e)
	return m
}

// Request is a handle to a non-blocking operation, valid until its Wait
// returns (as MPI_Wait leaves MPI_REQUEST_NULL behind). It carries
// everything the operation's progress process needs — arguments, the
// posted-receive slot, the body bound once — and is recycled through the
// issuing rank's free list, so a steady-state Isend or Irecv allocates
// nothing.
type Request struct {
	done sim.Future[Message]

	c         *Comm
	r         *Rank // issuing rank; nil once Wait has retired the request
	recv      bool
	peer, tag int
	payload   any
	bytes     int64
	post      postedRecv

	progress func(p *sim.Proc) // run, bound when the request is allocated
	next     *Request          // free-list link
}

// Wait blocks until the operation completes and returns the message (zero
// Message for sends). It consumes the request.
func (q *Request) Wait(r *Rank) Message {
	if q.r == nil {
		panic("mpi: Wait on a request that was already waited for")
	}
	m := q.done.Wait(r.p)
	owner := q.r
	*q = Request{progress: q.progress, next: owner.freeReq}
	owner.freeReq = q
	return m
}

// newRequest starts a non-blocking operation of rank r: its progress
// process runs on its own virtual thread, as a real MPI progress engine
// would, while matching against the rank's queues. Spawning through the
// rank's proc keeps the progress thread on the rank's shard with the
// rank's confinement. The rank is charged only the call overhead.
func (c *Comm) newRequest(r *Rank, name string, recv bool, peer, tag int, payload any, bytes int64) *Request {
	q := r.freeReq
	if q == nil {
		q = &Request{}
		q.progress = q.run
	} else {
		r.freeReq, q.next = q.next, nil
	}
	q.c, q.r, q.recv, q.peer, q.tag, q.payload, q.bytes = c, r, recv, peer, tag, payload, bytes
	r.p.Spawn(name, q.progress) // static names: one progress proc per message makes Sprintf a hot-path alloc
	r.p.Sleep(r.cost().MPIPerCallOverhead)
	return q
}

// run is the body of the request's progress process. Completing done is
// its last touch: the waiter retires the request when it wakes.
func (q *Request) run(p *sim.Proc) {
	var m Message
	if q.recv {
		m = q.c.recvOn(q.r, p, &q.post, q.peer, q.tag)
	} else {
		q.c.sendOn(q.r, p, q.peer, q.tag, q.payload, q.bytes)
	}
	q.done.Complete(m)
}

// Isend starts a non-blocking send and returns a request; the transfer
// proceeds in a background simulated process.
func (c *Comm) Isend(r *Rank, dst, tag int, payload any, bytes int64) *Request {
	return c.newRequest(r, "mpi.isend", false, dst, tag, payload, bytes)
}

// Irecv starts a non-blocking receive.
func (c *Comm) Irecv(r *Rank, src, tag int) *Request {
	return c.newRequest(r, "mpi.irecv", true, src, tag, nil, 0)
}

// Sendrecv concurrently sends to dst and receives from src, the deadlock-
// free exchange primitive collective algorithms are built on.
func (c *Comm) Sendrecv(r *Rank, dst, sendTag int, payload any, bytes int64, src, recvTag int) Message {
	req := c.Isend(r, dst, sendTag, payload, bytes)
	m := c.Recv(r, src, recvTag)
	req.Wait(r)
	return m
}

// Probe reports whether a matching message is already queued (non-blocking,
// in the spirit of MPI_Iprobe).
func (c *Comm) Probe(r *Rank, src, tag int) bool {
	for _, u := range r.unexpected {
		if match(c.cid, src, tag, u) {
			return true
		}
	}
	return false
}

func secs(s float64) time.Duration { return time.Duration(s * 1e9) }
