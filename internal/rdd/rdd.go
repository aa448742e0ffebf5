package rdd

import (
	"fmt"

	"hpcbd/internal/sim"
)

// KV is a key-value record for pair-RDD operations.
type KV[K comparable, V any] struct {
	K K
	V V
}

// shuffleDep is a wide dependency: the child reads a shuffle written by
// map tasks over the parent.
type shuffleDep struct {
	shuffleID int
	parent    *meta
	nOut      int
	// runMapTask computes one parent partition, buckets it by key and
	// writes the shuffle output (typed closure installed by the pair
	// transformation that created the dependency).
	runMapTask func(tc *taskContext, part int) error
}

// partitioner records how a pair RDD's keys are laid out. Two RDDs with
// equal partitioners are co-partitioned: joining them needs no shuffle —
// the optimization behind the paper's tuned (BigDataBench) PageRank, where
// persisted, pre-partitioned links make every join stage-local (§V-D).
type partitioner struct {
	n int // hash partitions
}

func samePartitioner(a, b *partitioner) bool {
	return a != nil && b != nil && a.n == b.n
}

// meta is the untyped view of an RDD that the DAG scheduler traverses.
type meta struct {
	id     int
	ctx    *Context
	name   string
	nparts int
	prefs  func(part int) []int // preferred nodes, nil = anywhere
	narrow []*meta              // narrow parents (same stage)
	wide   []*shuffleDep        // stage-boundary parents
	partr  *partitioner         // key layout, nil = unknown

	level StorageLevel
}

// RDD is a typed resilient distributed dataset. Transformations are lazy:
// nothing executes until an action (Reduce, Collect, Count, Foreach).
type RDD[T any] struct {
	m *meta
	// compute materializes one partition (running inside a task on an
	// executor). It recursively invokes parents — the lineage.
	compute func(tc *taskContext, part int) ([]T, error)
	// plan, when set, lets a narrow child stream this RDD's records
	// without materializing the partition (see fuse.go). compute remains
	// valid for direct materialization.
	plan *fusePlan[T]
	// recBytes is the logical size of one logical record, for shuffle
	// and cache accounting.
	recBytes int64
	// owned marks computes whose output slice is framework-allocated and
	// unaliased (no user code or parent partition shares its backing), so
	// a consumer that has fully copied the records out may return the
	// slice to the context's free lists (recycle.go).
	owned bool
}

func newMeta(ctx *Context, name string, nparts int) *meta {
	m := &meta{id: ctx.nextRDD, ctx: ctx, name: name, nparts: nparts}
	ctx.nextRDD++
	return m
}

// NumPartitions returns the partition count.
func (r *RDD[T]) NumPartitions() int { return r.m.nparts }

// RecordBytes returns the logical per-record size estimate.
func (r *RDD[T]) RecordBytes() int64 { return r.recBytes }

// WithRecordBytes overrides the logical per-record size estimate used for
// shuffle/cache charging (fluent, returns r).
func (r *RDD[T]) WithRecordBytes(n int64) *RDD[T] {
	r.recBytes = n
	return r
}

// Persist marks the RDD for caching at the given storage level — the
// single API call the paper shows improving PageRank by ~3x (Fig 5, §VI-C).
func (r *RDD[T]) Persist(level StorageLevel) *RDD[T] {
	r.m.level = level
	return r
}

// Unpersist drops cached partitions everywhere.
func (r *RDD[T]) Unpersist() {
	r.m.level = None
	for _, e := range r.m.ctx.executors {
		e.bm.dropRDD(r.m.id)
	}
}

// part materializes partition i, honoring the cache.
func (r *RDD[T]) part(tc *taskContext, i int) ([]T, error) {
	if r.m.level != None {
		if data, bytes, disk, ok := tc.exec.bm.get(r.m.id, i); ok {
			if disk {
				tc.ctx.C.Node(tc.exec.node).Scratch.Read(tc.p, bytes)
				tc.p.Charge(tc.ctx.C.Cost.DeserTime(bytes))
			}
			return data.([]T), nil
		}
	}
	data, err := r.compute(tc, i)
	if err != nil {
		return nil, err
	}
	if r.m.level != None {
		bytes := tc.logicalBytes(len(data), r.recBytes)
		switch tc.exec.bm.put(r.m.id, i, data, bytes, r.m.level) {
		case putDisk:
			tc.p.Sleep(tc.ctx.C.Cost.SerTime(bytes))
			tc.ctx.C.Node(tc.exec.node).Scratch.Write(tc.p, bytes)
		case putMemory, putDropped:
		}
	}
	return data, nil
}

// ---- sources ----

// FromSource creates an RDD whose partitions are produced by read (which
// must charge its own I/O, e.g. DFS or scratch reads). prefs supplies
// locality hints and may be nil. recBytes is the logical size of one
// record.
func FromSource[T any](ctx *Context, name string, nparts int,
	prefs func(part int) []int,
	read func(tc TaskView, part int) []T, recBytes int64) *RDD[T] {
	m := newMeta(ctx, name, nparts)
	m.prefs = prefs
	r := &RDD[T]{m: m, recBytes: recBytes}
	r.compute = func(tc *taskContext, part int) ([]T, error) {
		out := read(TaskView{tc}, part)
		tc.deferRecords(len(out))
		return out, nil
	}
	return r
}

// FromSourceErr is FromSource for sources that can fail (a DFS read
// hitting a dead datanode or a transient disk error): the error becomes a
// task failure, so the stage's retry/blacklist machinery engages instead
// of the source panicking.
func FromSourceErr[T any](ctx *Context, name string, nparts int,
	prefs func(part int) []int,
	read func(tc TaskView, part int) ([]T, error), recBytes int64) *RDD[T] {
	m := newMeta(ctx, name, nparts)
	m.prefs = prefs
	r := &RDD[T]{m: m, recBytes: recBytes}
	r.compute = func(tc *taskContext, part int) ([]T, error) {
		out, err := read(TaskView{tc}, part)
		if err != nil {
			return nil, fmt.Errorf("rdd: source %s partition %d: %w", name, part, err)
		}
		tc.deferRecords(len(out))
		return out, nil
	}
	return r
}

// FromSourceEmit creates an RDD whose partitions are produced by a
// generator that pushes records one at a time. It is the batch-wise entry
// to the fused path: narrow transformations built on top stream records
// straight through the composed chain, so the base partition is never
// materialized and the generator allocates nothing per record. read may
// charge I/O through the TaskView exactly like FromSource; the whole
// chain then runs inline on the kernel process (no host-pool offload),
// which keeps those charges correctly interleaved.
func FromSourceEmit[T any](ctx *Context, name string, nparts int,
	prefs func(part int) []int,
	read func(tv TaskView, part int, emit func(T)), recBytes int64) *RDD[T] {
	m := newMeta(ctx, name, nparts)
	m.prefs = prefs
	r := &RDD[T]{m: m, recBytes: recBytes}
	r.plan = &fusePlan[T]{bind: func(tc *taskContext, part int) (fusedFeed[T], error) {
		return fusedFeed[T]{
			baseLen: -1,
			kernel:  true,
			feed: func(sink func(T), rec *[]int) {
				n := 0
				read(TaskView{tc}, part, func(v T) { n++; sink(v) })
				*rec = append(*rec, n)
			},
		}, nil
	}}
	r.compute = fusedCompute(r.plan)
	r.owned = true
	return r
}

// TaskView is the limited task-side interface exposed to data sources:
// where the task runs and how to charge I/O.
type TaskView struct{ tc *taskContext }

// Node returns the executor's node id.
func (tv TaskView) Node() int { return tv.tc.exec.node }

// Proc returns the task's procHandle for charging custom costs.
func (tv TaskView) Proc() *procHandle { return &procHandle{tv.tc} }

// SimProc returns the task's simulated process, for sources with richer
// cost models (e.g. DFS reads).
func (tv TaskView) SimProc() *sim.Proc { return tv.tc.p }

// procHandle exposes cost-charging to sources without leaking the whole
// task context.
type procHandle struct{ tc *taskContext }

// ReadScratch charges a local scratch read of n bytes at the JVM stream
// rate (a Spark task reading a local file).
func (ph *procHandle) ReadScratch(n int64) {
	ph.tc.ctx.C.Node(ph.tc.exec.node).Scratch.ReadEff(ph.tc.p, n, ph.tc.ctx.C.Cost.JVMIOFactor)
}

// Charge sleeps d seconds of task compute (stretched on straggler nodes).
func (ph *procHandle) Charge(seconds float64) {
	ph.tc.p.Sleep(ph.tc.stretch(secsToDur(seconds)))
}

// Parallelize distributes an in-memory collection from the driver. Like
// Spark, the data ships with the tasks: each partition's first
// materialization charges driver-side serialization and a transfer to the
// executor — the driver-distribution overhead visible in the reduce
// microbenchmark (Fig 3).
func Parallelize[T any](ctx *Context, name string, data []T, nparts int, recBytes int64) *RDD[T] {
	if nparts <= 0 {
		nparts = ctx.parallelism
	}
	m := newMeta(ctx, name, nparts)
	r := &RDD[T]{m: m, recBytes: recBytes}
	r.compute = func(tc *taskContext, part int) ([]T, error) {
		lo := part * len(data) / nparts
		hi := (part + 1) * len(data) / nparts
		chunk := data[lo:hi]
		bytes := tc.logicalBytes(len(chunk), recBytes)
		tc.p.Sleep(tc.ctx.C.Cost.SerTime(bytes))
		tc.ctx.C.Xfer(tc.p, tc.ctx.driverNode, tc.exec.node, bytes, tc.ctx.Conf.CtrlTransport)
		tc.p.Charge(tc.ctx.C.Cost.DeserTime(bytes))
		tc.deferRecords(len(chunk))
		return chunk, nil
	}
	return r
}

// ---- narrow transformations ----

// Map applies f to every record.
func Map[T, U any](r *RDD[T], f func(T) U) *RDD[U] {
	m := newMeta(r.m.ctx, fmt.Sprintf("map@%s", r.m.name), r.m.nparts)
	m.narrow = []*meta{r.m}
	m.prefs = r.m.prefs
	out := &RDD[U]{m: m, recBytes: r.recBytes}
	out.compute = func(tc *taskContext, part int) ([]U, error) {
		in, err := r.part(tc, part)
		if err != nil {
			return nil, err
		}
		res := offloadRecords(tc, len(in), func() []U {
			res := make([]U, len(in))
			for i, v := range in {
				res[i] = f(v)
			}
			return res
		})
		return res, nil
	}
	fuseMap(r, out, f)
	return out
}

// Filter keeps records where pred holds.
func Filter[T any](r *RDD[T], pred func(T) bool) *RDD[T] {
	m := newMeta(r.m.ctx, fmt.Sprintf("filter@%s", r.m.name), r.m.nparts)
	m.narrow = []*meta{r.m}
	m.prefs = r.m.prefs
	m.partr = r.m.partr // filtering never moves keys between partitions
	out := &RDD[T]{m: m, recBytes: r.recBytes}
	out.compute = func(tc *taskContext, part int) ([]T, error) {
		in, err := r.part(tc, part)
		if err != nil {
			return nil, err
		}
		res := offloadRecords(tc, len(in), func() []T {
			var res []T
			for _, v := range in {
				if pred(v) {
					res = append(res, v)
				}
			}
			return res
		})
		return res, nil
	}
	fuseFilter(r, out, pred)
	return out
}

// FlatMap applies f and concatenates the results.
func FlatMap[T, U any](r *RDD[T], f func(T) []U) *RDD[U] {
	m := newMeta(r.m.ctx, fmt.Sprintf("flatMap@%s", r.m.name), r.m.nparts)
	m.narrow = []*meta{r.m}
	m.prefs = r.m.prefs
	out := &RDD[U]{m: m, recBytes: r.recBytes}
	out.compute = func(tc *taskContext, part int) ([]U, error) {
		in, err := r.part(tc, part)
		if err != nil {
			return nil, err
		}
		// The input-side charge is a fixed window the payload overlaps; the
		// output-side charge is only known once the payload has run.
		pd := sim.OffloadStart(tc.p, func() []U {
			// Two-phase concat: collecting the per-record slices first
			// makes the result an exact single allocation instead of an
			// append-growth chain (flatMap output dominated the Fig 6
			// allocation profile).
			chunks := make([][]U, 0, len(in))
			total := 0
			for _, v := range in {
				if o := f(v); len(o) > 0 {
					chunks = append(chunks, o)
					total += len(o)
				}
			}
			res := make([]U, total)
			pos := 0
			for _, o := range chunks {
				pos += copy(res[pos:], o)
			}
			return res
		})
		tc.chargeRecords(len(in))
		res := pd.Join()
		tc.deferRecords(len(res))
		return res, nil
	}
	fuseFlatMap(r, out, func(v T, emit func(U)) {
		for _, o := range f(v) {
			emit(o)
		}
	})
	return out
}

// FlatMapEmit is FlatMap for hot paths: f pushes its results through emit
// instead of returning a slice, so the fused pipeline streams records with
// no per-record slice allocations (flatMap output slices dominated the
// Fig 6 allocation profile). Accounting is identical to FlatMap —
// framework cost on both input and output records.
func FlatMapEmit[T, U any](r *RDD[T], f func(T, func(U))) *RDD[U] {
	m := newMeta(r.m.ctx, fmt.Sprintf("flatMapEmit@%s", r.m.name), r.m.nparts)
	m.narrow = []*meta{r.m}
	m.prefs = r.m.prefs
	out := &RDD[U]{m: m, recBytes: r.recBytes}
	out.compute = func(tc *taskContext, part int) ([]U, error) {
		in, err := r.part(tc, part)
		if err != nil {
			return nil, err
		}
		pd := sim.OffloadStart(tc.p, func() []U {
			buf := make([]U, 0, len(in))
			for _, v := range in {
				f(v, func(o U) { buf = append(buf, o) })
			}
			return buf
		})
		tc.chargeRecords(len(in))
		res := pd.Join()
		tc.deferRecords(len(res))
		return res, nil
	}
	fuseFlatMap(r, out, f)
	return out
}

// MapPartitions applies f to whole partitions.
func MapPartitions[T, U any](r *RDD[T], f func([]T) []U) *RDD[U] {
	m := newMeta(r.m.ctx, fmt.Sprintf("mapPartitions@%s", r.m.name), r.m.nparts)
	m.narrow = []*meta{r.m}
	m.prefs = r.m.prefs
	out := &RDD[U]{m: m, recBytes: r.recBytes}
	out.compute = func(tc *taskContext, part int) ([]U, error) {
		in, err := r.part(tc, part)
		if err != nil {
			return nil, err
		}
		res := offloadRecords(tc, len(in), func() []U { return f(in) })
		return res, nil
	}
	return out
}

// Union concatenates two RDDs (narrow; partitions are renumbered).
func Union[T any](a, b *RDD[T]) *RDD[T] {
	m := newMeta(a.m.ctx, fmt.Sprintf("union(%s,%s)", a.m.name, b.m.name), a.m.nparts+b.m.nparts)
	m.narrow = []*meta{a.m, b.m}
	rb := a.recBytes
	if b.recBytes > rb {
		rb = b.recBytes
	}
	out := &RDD[T]{m: m, recBytes: rb}
	out.compute = func(tc *taskContext, part int) ([]T, error) {
		if part < a.m.nparts {
			return a.part(tc, part)
		}
		return b.part(tc, part-a.m.nparts)
	}
	return out
}

// MapValues transforms values of a pair RDD. Unlike Map it preserves the
// partitioner (keys are untouched), keeping downstream joins narrow.
func MapValues[K comparable, V, W any](r *RDD[KV[K, V]], f func(V) W) *RDD[KV[K, W]] {
	m := newMeta(r.m.ctx, fmt.Sprintf("mapValues@%s", r.m.name), r.m.nparts)
	m.narrow = []*meta{r.m}
	m.prefs = r.m.prefs
	m.partr = r.m.partr
	out := &RDD[KV[K, W]]{m: m, recBytes: r.recBytes}
	out.compute = func(tc *taskContext, part int) ([]KV[K, W], error) {
		in, err := r.part(tc, part)
		if err != nil {
			return nil, err
		}
		res := offloadRecords(tc, len(in), func() []KV[K, W] {
			res := make([]KV[K, W], len(in))
			for i, p := range in {
				res[i] = KV[K, W]{p.K, f(p.V)}
			}
			return res
		})
		return res, nil
	}
	fuseMap(r, out, func(p KV[K, V]) KV[K, W] { return KV[K, W]{p.K, f(p.V)} })
	return out
}

// Keys projects the keys of a pair RDD.
func Keys[K comparable, V any](r *RDD[KV[K, V]]) *RDD[K] {
	return Map(r, func(p KV[K, V]) K { return p.K })
}

// Values projects the values of a pair RDD.
func Values[K comparable, V any](r *RDD[KV[K, V]]) *RDD[V] {
	return Map(r, func(p KV[K, V]) V { return p.V })
}

// ChargeSer charges JVM serialization of n logical bytes.
func (ph *procHandle) ChargeSer(n int64) {
	ph.tc.p.Sleep(ph.tc.ctx.C.Cost.SerTime(n))
}
