package mpi

import (
	"math"
	"slices"
	"time"

	"hpcbd/internal/scratch"
)

// Collective tags live in a reserved space above user tags.
const (
	tagBarrier = 1 << 28
	tagBcast   = 2 << 28
	tagReduce  = 3 << 28
	tagGather  = 4 << 28
	tagAllg    = 6 << 28
	tagA2A     = 7 << 28
	tagRing    = 8 << 28
	tagScan    = 9 << 28
	tagExscan  = 10 << 28
	tagGatherv = 11 << 28
)

// ReduceOp is an element-wise reduction operator.
type ReduceOp uint8

// Predefined reduction operators.
const (
	OpSum ReduceOp = iota
	OpMax
	OpMin
)

// Apply combines a and b under op.
func (op ReduceOp) Apply(a, b float64) float64 {
	switch op {
	case OpSum:
		return a + b
	case OpMax:
		if a > b {
			return a
		}
		return b
	case OpMin:
		if a < b {
			return a
		}
		return b
	}
	panic("mpi: unknown ReduceOp")
}

// Identity returns op's identity element: what a rank holding no
// elements contributes.
func (op ReduceOp) Identity() float64 {
	switch op {
	case OpMax:
		return math.Inf(-1)
	case OpMin:
		return math.Inf(1)
	}
	return 0
}

// Barrier blocks until every rank of the communicator has entered, using
// the dissemination algorithm: ceil(log2 n) rounds of small messages.
func (c *Comm) Barrier(r *Rank) {
	n := c.Size()
	if n == 1 {
		return
	}
	me := c.rankOf(r)
	for dist := 1; dist < n; dist *= 2 {
		to := (me + dist) % n
		from := (me - dist + n) % n
		c.Sendrecv(r, to, tagBarrier+dist, nil, 8, from, tagBarrier+dist)
	}
}

// Bcast broadcasts payload (of the given size) from root to all ranks using
// a binomial tree, returning the payload on every rank.
func (c *Comm) Bcast(r *Rank, root int, payload any, bytes int64) any {
	n := c.Size()
	if n == 1 {
		return payload
	}
	me := c.rankOf(r)
	rel := (me - root + n) % n // relative rank: root becomes 0

	// Find the lowest set bit of rel: receive from the rank that differs
	// in that bit, then forward to higher-bit children.
	if rel != 0 {
		mask := 1
		for rel&mask == 0 {
			mask <<= 1
		}
		m := c.Recv(r, ((rel-mask)+root)%n, tagBcast)
		payload = m.Payload
		// Forward to children above the received bit.
		for child := mask >> 1; child >= 1; child >>= 1 {
			dst := rel | child
			if dst < n && dst != rel {
				c.Send(r, (dst+root)%n, tagBcast, payload, bytes)
			}
		}
		return payload
	}
	// Root sends to each power-of-two child, highest first (so subtree
	// forwarding overlaps).
	top := 1
	for top < n {
		top <<= 1
	}
	for child := top >> 1; child >= 1; child >>= 1 {
		if child < n {
			c.Send(r, (child+root)%n, tagBcast, payload, bytes)
		}
	}
	return payload
}

// Reduce combines each rank's data element-wise with op, delivering the
// result at root (nil elsewhere). It uses a binomial tree; per-element
// arithmetic is charged to the combining rank. This mirrors the OSU reduce
// microbenchmark semantics: the result array has the same length as the
// input (Fig 3).
func (c *Comm) Reduce(r *Rank, root int, data []float64, op ReduceOp, elemBytes int64) []float64 {
	n := c.Size()
	me := c.rankOf(r)
	rel := (me - root + n) % n
	bytes := int64(len(data)) * elemBytes

	// Only leaves snapshot their input. A combining rank folds data into
	// the first snapshot it receives and keeps that as its accumulator.
	var acc *[]float64
	for mask := 1; mask < n; mask <<= 1 {
		if rel&mask != 0 {
			// Send accumulator to the partner below and exit.
			if acc == nil {
				acc = c.world.snapshot(data)
			}
			c.Send(r, ((rel-mask)+root)%n, tagReduce+mask, acc, bytes)
			return nil
		}
		partner := rel | mask
		if partner < n {
			m := c.Recv(r, (partner+root)%n, tagReduce+mask)
			in := m.Payload.(*[]float64)
			if acc == nil {
				fold(*in, data, *in, op)
				r.p.Sleep(time.Duration(len(data)) * r.cost().ReduceFlopTime)
				acc = in
			} else {
				combine(r, *acc, in, op)
			}
		}
	}
	if acc == nil { // n == 1
		return append([]float64(nil), data...)
	}
	// rel == 0: only the root never sends. It returns an exact-size copy
	// and recycles its accumulator, which may be a far larger pooled
	// buffer than the result needs.
	out := append([]float64(nil), *acc...)
	c.world.putF64(acc)
	return out
}

// Payloads travel by reference in the simulator, so what a reduction
// sends is a recycled snapshot that travels with its message: the sender
// does not touch it after Send, and the receiver recycles it once used.
// A *[]float64 also boxes into Message.Payload without allocating, which
// a slice header does not.
//
// Snapshots of up to pooledF64 elements (every small Allreduce) come from
// scratch's process-wide pool. Larger ones, rendezvous-size at the
// default eager threshold, come from a free list owned by the world: it
// hands out any buffer whose capacity covers the request, and its
// megabyte buffers die with the world instead of staying alive in the
// pool's victim cache through the next GC, where they would raise the
// heap goal of whatever runs next.
const pooledF64 = ringThreshold / 8

// snapshot copies v into a recycled buffer for sending.
func (w *World) snapshot(v []float64) *[]float64 {
	p := w.f64(len(v))
	copy(*p, v)
	return p
}

// f64 returns a length-n float64 buffer with arbitrary contents.
// Release with putF64.
func (w *World) f64(n int) *[]float64 {
	if n <= pooledF64 {
		return scratch.F64(n)
	}
	w.bigMu.Lock()
	defer w.bigMu.Unlock()
	for i, p := range w.bigF64 {
		if cap(*p) >= n {
			w.bigF64 = slices.Delete(w.bigF64, i, i+1)
			*p = (*p)[:n]
			return p
		}
	}
	s := make([]float64, n)
	return &s
}

// putF64 recycles a buffer from f64 to the source its length selects.
func (w *World) putF64(p *[]float64) {
	if len(*p) <= pooledF64 {
		scratch.PutF64(p)
		return
	}
	w.bigMu.Lock()
	w.bigF64 = append(w.bigF64, p)
	w.bigMu.Unlock()
}

// fold sets dst[i] = op(a[i], b[i]); dst may alias a or b.
func fold(dst, a, b []float64, op ReduceOp) {
	if op == OpSum {
		a, b = a[:len(dst)], b[:len(dst)]
		for i := range dst {
			dst[i] = a[i] + b[i]
		}
	} else {
		for i := range dst {
			dst[i] = op.Apply(a[i], b[i])
		}
	}
}

// combine folds a received snapshot into acc element-wise (acc = op(acc,
// other)), recycles the snapshot and charges the arithmetic to the rank.
func combine(r *Rank, acc []float64, other *[]float64, op ReduceOp) {
	fold(acc, acc, *other, op)
	r.world.putF64(other)
	r.p.Sleep(time.Duration(len(acc)) * r.cost().ReduceFlopTime)
}

// Allreduce combines data across all ranks and returns the result
// everywhere. Small vectors use recursive doubling; vectors larger than
// ringThreshold bytes use a bandwidth-optimal ring
// (reduce-scatter + allgather), matching how tuned MPI implementations
// switch algorithms by message size — one reason "MPI implementations are
// well tuned depending on the array size" (§V-B1).
const ringThreshold = 64 << 10

func (c *Comm) Allreduce(r *Rank, data []float64, op ReduceOp, elemBytes int64) []float64 {
	n := c.Size()
	if n == 1 {
		out := make([]float64, len(data))
		copy(out, data)
		return out
	}
	bytes := int64(len(data)) * elemBytes
	if bytes > ringThreshold && len(data) >= n {
		return c.ringAllreduce(r, data, op, elemBytes)
	}
	return c.rdAllreduce(r, data, op, elemBytes)
}

// rdAllreduce is recursive doubling with the standard pre/post folding for
// non-power-of-two sizes.
func (c *Comm) rdAllreduce(r *Rank, data []float64, op ReduceOp, elemBytes int64) []float64 {
	n := c.Size()
	me := c.rankOf(r)
	bytes := int64(len(data)) * elemBytes

	acc := make([]float64, len(data))
	copy(acc, data)

	// Largest power of two <= n.
	pof2 := 1
	for pof2*2 <= n {
		pof2 *= 2
	}
	rem := n - pof2

	// Pre-phase: ranks >= pof2 send their data into the power-of-two set.
	newRank := me
	if me >= pof2 {
		c.Send(r, me-pof2, tagReduce, c.world.snapshot(acc), bytes)
		newRank = -1
	} else if me < rem {
		m := c.Recv(r, me+pof2, tagReduce)
		combine(r, acc, m.Payload.(*[]float64), op)
	}

	if newRank >= 0 {
		for mask := 1; mask < pof2; mask <<= 1 {
			partner := newRank ^ mask
			m := c.Sendrecv(r, partner, tagReduce+mask, c.world.snapshot(acc), bytes, partner, tagReduce+mask)
			combine(r, acc, m.Payload.(*[]float64), op)
		}
	}

	// Post-phase: results flow back out to the folded ranks.
	if me >= pof2 {
		m := c.Recv(r, me-pof2, tagReduce+1<<27)
		res := m.Payload.(*[]float64)
		copy(acc, *res)
		c.world.putF64(res)
	} else if me < rem {
		c.Send(r, me+pof2, tagReduce+1<<27, c.world.snapshot(acc), bytes)
	}
	return acc
}

// ringAllreduce is the bandwidth-optimal ring algorithm: a reduce-scatter
// of n-1 chunk exchanges followed by an allgather of n-1 chunk exchanges.
func (c *Comm) ringAllreduce(r *Rank, data []float64, op ReduceOp, elemBytes int64) []float64 {
	n := c.Size()
	me := c.rankOf(r)

	acc := make([]float64, len(data))
	copy(acc, data)

	// Chunk boundaries.
	bounds := make([]int, n+1)
	for i := 0; i <= n; i++ {
		bounds[i] = i * len(data) / n
	}
	chunk := func(i int) []float64 { return acc[bounds[i]:bounds[i+1]] }
	chunkBytes := func(i int) int64 { return int64(bounds[i+1]-bounds[i]) * elemBytes }

	next := (me + 1) % n
	prev := (me - 1 + n) % n

	// Reduce-scatter.
	for step := 0; step < n-1; step++ {
		sendIdx := (me - step + n) % n
		recvIdx := (me - step - 1 + n) % n
		m := c.Sendrecv(r, next, tagRing+step, c.world.snapshot(chunk(sendIdx)), chunkBytes(sendIdx), prev, tagRing+step)
		combine(r, chunk(recvIdx), m.Payload.(*[]float64), op)
	}
	// Allgather.
	for step := 0; step < n-1; step++ {
		sendIdx := (me + 1 - step + n) % n
		recvIdx := (me - step + n) % n
		m := c.Sendrecv(r, next, tagRing+(1<<20)+step, c.world.snapshot(chunk(sendIdx)), chunkBytes(sendIdx), prev, tagRing+(1<<20)+step)
		in := m.Payload.(*[]float64)
		copy(chunk(recvIdx), *in)
		c.world.putF64(in)
	}
	return acc
}

// Gather collects one payload of the given size from every rank at root;
// root receives them ordered by rank, others get nil. Linear algorithm,
// as used for short gathers.
func (c *Comm) Gather(r *Rank, root int, payload any, bytes int64) []any {
	n := c.Size()
	me := c.rankOf(r)
	if me != root {
		c.Send(r, root, tagGather, payload, bytes)
		return nil
	}
	out := make([]any, n)
	out[me] = payload
	for i := 0; i < n-1; i++ {
		m := c.Recv(r, AnySource, tagGather)
		out[m.Src] = m.Payload
	}
	return out
}

// Allgather collects one payload from every rank on every rank, using the
// ring algorithm (n-1 neighbor exchanges).
func (c *Comm) Allgather(r *Rank, payload any, bytes int64) []any {
	n := c.Size()
	me := c.rankOf(r)
	out := make([]any, n)
	out[me] = payload
	if n == 1 {
		return out
	}
	next := (me + 1) % n
	prev := (me - 1 + n) % n
	cur := payload
	curIdx := me
	for step := 0; step < n-1; step++ {
		m := c.Sendrecv(r, next, tagAllg+step, cur, bytes, prev, tagAllg+step)
		curIdx = (curIdx - 1 + n) % n
		if curIdx != (me-step-1+n)%n {
			panic("mpi: allgather bookkeeping error")
		}
		out[curIdx] = m.Payload
		cur = m.Payload
	}
	return out
}

// Alltoall exchanges items[i] with rank i (each of the given size) and
// returns the items received, indexed by source. Pairwise-exchange
// algorithm.
func (c *Comm) Alltoall(r *Rank, items []any, bytes int64) []any {
	n := c.Size()
	me := c.rankOf(r)
	if len(items) != n {
		panic("mpi: Alltoall items length must equal comm size")
	}
	out := make([]any, n)
	out[me] = items[me]
	pow2 := n&(n-1) == 0
	for step := 1; step < n; step++ {
		if pow2 {
			// XOR pairwise exchange.
			partner := me ^ step
			m := c.Sendrecv(r, partner, tagA2A+step, items[partner], bytes, partner, tagA2A+step)
			out[partner] = m.Payload
		} else {
			// Shifted pairing: send to me+step, receive from me-step.
			to := (me + step) % n
			from := (me - step + n) % n
			m := c.Sendrecv(r, to, tagA2A+step, items[to], bytes, from, tagA2A+step)
			out[from] = m.Payload
		}
	}
	return out
}

// Scan computes the inclusive prefix reduction: rank i receives the
// element-wise combination of ranks 0..i (MPI_Scan). Linear-pipeline
// algorithm.
func (c *Comm) Scan(r *Rank, data []float64, op ReduceOp, elemBytes int64) []float64 {
	n := c.Size()
	me := c.rankOf(r)
	bytes := int64(len(data)) * elemBytes

	acc := make([]float64, len(data))
	copy(acc, data)
	if me > 0 {
		m := c.Recv(r, me-1, tagScan)
		fold(acc, m.Payload.([]float64), acc, op)
		r.p.Sleep(time.Duration(len(acc)) * r.cost().ReduceFlopTime)
	}
	if me < n-1 {
		c.Send(r, me+1, tagScan, append([]float64(nil), acc...), bytes)
	}
	return acc
}

// Exscan computes the exclusive prefix reduction: rank i receives the
// combination of ranks 0..i-1; rank 0's result is undefined (returned as
// a zero slice), per MPI_Exscan.
func (c *Comm) Exscan(r *Rank, data []float64, op ReduceOp, elemBytes int64) []float64 {
	n := c.Size()
	me := c.rankOf(r)
	bytes := int64(len(data)) * elemBytes

	var before []float64
	if me > 0 {
		m := c.Recv(r, me-1, tagExscan)
		before = m.Payload.([]float64)
	} else {
		before = make([]float64, len(data))
	}
	if me < n-1 {
		send := make([]float64, len(data))
		if me == 0 {
			copy(send, data)
		} else {
			fold(send, before, data, op)
			r.p.Sleep(time.Duration(len(send)) * r.cost().ReduceFlopTime)
		}
		c.Send(r, me+1, tagExscan, send, bytes)
	}
	return before
}

// Gatherv collects variable-sized payloads at root: every rank passes its
// payload and size; root receives them ordered by rank, others get nil.
func (c *Comm) Gatherv(r *Rank, root int, payload any, bytes int64) []any {
	n := c.Size()
	me := c.rankOf(r)
	if me != root {
		c.Send(r, root, tagGatherv, payload, bytes)
		return nil
	}
	out := make([]any, n)
	out[me] = payload
	for i := 0; i < n-1; i++ {
		m := c.Recv(r, AnySource, tagGatherv)
		out[m.Src] = m.Payload
	}
	return out
}
