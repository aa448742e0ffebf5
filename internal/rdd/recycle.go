package rdd

import "reflect"

// Partition-buffer recycling. Unpersisted RDDs recompute a fresh slice on
// every part() call, and the shuffle map task that consumes one copies
// every record out (bucketize's exact-size buckets), leaving the slice
// garbage the moment the task finishes. At figure-regeneration scale that
// garbage dominates the GC's work: one PageRank iteration retires a full
// edge-sized contributions buffer per partition.
//
// The context therefore keeps a per-record-type free list. Fused computes
// draw their output buffer from it (fusedCompute) and the shuffle map
// tasks return consumed partitions to it. Both ends run on the kernel
// thread, so the lists need no locking, the pop/push order follows
// virtual event order (deterministic and independent of the worker-pool
// size), and the buffers themselves are only ever touched by one task at
// a time. Recycling is gated on r.owned — the compute path allocated the
// slice itself, no user code or block manager holds a reference — and on
// the RDD being unpersisted.

// poolOf returns the context's free list for record type T.
func poolOf[T any](ctx *Context) *[][]T {
	key := reflect.TypeOf((*T)(nil))
	if p, ok := ctx.pools[key]; ok {
		return p.(*[][]T)
	}
	p := new([][]T)
	ctx.pools[key] = p
	return p
}

// takeBuf pops the smallest retired buffer that covers want, or returns
// nil — leaving the list alone — when none does, so the caller allocates
// at its own size. Handing out a smaller buffer instead (a plain LIFO pop,
// or the largest available) gives an edge-sized consumer a vertex-sized
// buffer it then regrows by doubling, and that regrowth churn erases the
// benefit. The list stays short (at most the in-flight partition count
// per size class), so the scan is cheap. Kernel-side only.
func takeBuf[T any](ctx *Context, want int) []T {
	p := poolOf[T](ctx)
	best := -1
	for i, b := range *p {
		if c := cap(b); c >= want && (best < 0 || c < cap((*p)[best])) {
			best = i
		}
	}
	if best < 0 {
		return nil
	}
	n := len(*p)
	b := (*p)[best]
	(*p)[best] = (*p)[n-1]
	(*p)[n-1] = nil
	*p = (*p)[:n-1]
	return b[:0]
}

// lenHint returns the last fused output length recorded for record type
// T (0 when none). Stages run their partitions back to back, so the
// previous task of the same stage is an excellent size predictor; only a
// stage's first task mis-hints.
func lenHint[T any](ctx *Context) int {
	return ctx.fusedLen[reflect.TypeOf((*T)(nil))]
}

// setLenHint records a fused output length for record type T.
func setLenHint[T any](ctx *Context, n int) {
	if n > 0 {
		ctx.fusedLen[reflect.TypeOf((*T)(nil))] = n
	}
}

// recyclePart returns a fully-consumed partition slice to the free list
// when the RDD's compute owns its output (framework-allocated, never
// cached, never seen by user code after the consuming task). Kernel-side
// only; the caller must not touch data afterwards.
func recyclePart[T any](tc *taskContext, r *RDD[T], data []T) {
	if !r.owned || r.m.level != None || cap(data) == 0 {
		return
	}
	p := poolOf[T](tc.ctx)
	*p = append(*p, data)
}
