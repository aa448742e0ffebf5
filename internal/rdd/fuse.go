package rdd

import (
	"time"

	"hpcbd/internal/sim"
)

// Fused narrow-stage pipelines.
//
// A chain of narrow transformations (Map, Filter, FlatMap, MapValues)
// used to materialize a fresh []T per lineage step: each operator
// pulled its parent's partition, allocated an output slice, and charged
// its accounting with its own kernel event. The fused path composes the
// whole chain into one push-based pipeline per partition: the chain base
// is materialized once (kernel-side, honoring the cache), every record is
// then streamed through the composed operators into a single output
// buffer — zero intermediate slices — and the per-operator accounting is
// summed into one kernel event at the next synchronization point via the
// process's charge accumulator.
//
// Virtual timestamps are bit-identical to the unfused path: each
// operator's charge is the same framework per-record duration it always
// was, durations are summed in operator order and never reordered, and
// the first operator's input charge (known from the base length before
// the payload runs) remains the offload overlap window, exactly as
// offloadRecords arranged step-by-step.
//
// Fusion stops where lineage semantics require materialization: persisted
// RDDs (their partitions must enter the block manager), shuffle
// dependencies, and operators with bespoke charging (such as
// MapPartitionsWithCost, which builds no plan).

// fusionEnabled gates whether narrow transformations build fused plans.
// It exists for the fused-vs-unfused golden test; production code never
// turns it off.
var fusionEnabled = true

// SetFusion toggles the fused execution path for subsequently built
// RDDs (testing hook). Returns the previous setting.
func SetFusion(on bool) bool {
	prev := fusionEnabled
	fusionEnabled = on
	return prev
}

// fusePlan describes how to stream this RDD's partition records from its
// fusion base through the composed narrow operators.
type fusePlan[T any] struct {
	bind func(tc *taskContext, part int) (fusedFeed[T], error)
}

// fusedFeed is one partition's bound stream.
type fusedFeed[T any] struct {
	// baseLen is the number of records the base will push — the first
	// operator's input count, known before the payload runs, which fixes
	// the offload overlap window. -1 when the base is an emitting source
	// whose length is only known after feeding (kernel is then set).
	baseLen int
	// kernel marks feeds that perform kernel operations (emitting
	// sources charge their I/O mid-feed); they run inline on the kernel
	// thread instead of being offloaded as a payload.
	kernel bool
	// windowed reports that the next operator's input count equals
	// baseLen and is charged by the window — true exactly for
	// materialized slice bases; operators and emit sources clear it and
	// record their own counts.
	windowed bool
	// expands marks chains containing a 1:N operator, whose output
	// overruns baseLen — the case the per-type length hint sizes.
	expands bool
	// feed pushes every record through the fused operators into sink and
	// appends each operator's charge counts to *rec in
	// upstream-to-downstream order. Pure host compute unless kernel.
	feed func(sink func(T), rec *[]int)
	// done, when set, releases the chain's materialized base slice back
	// to the context's free lists. Called kernel-side by fusedCompute
	// once the pipeline has fully consumed the feed; operators propagate
	// it unchanged.
	done func()
}

// feedOf returns the parent's stream: the parent's own fused feed when it
// participates in fusion and is not persisted; otherwise its materialized
// partition (honoring the cache) as a windowed slice base. The decision is
// made at bind time, not construction time, because Persist is a fluent
// call that may follow child construction.
func feedOf[T any](r *RDD[T], tc *taskContext, part int) (fusedFeed[T], error) {
	if r.plan != nil && r.m.level == None {
		return r.plan.bind(tc, part)
	}
	data, err := r.part(tc, part)
	if err != nil {
		return fusedFeed[T]{}, err
	}
	ff := sliceFeed(data)
	if r.owned && r.m.level == None {
		ff.done = func() { recyclePart(tc, r, data) }
	}
	return ff, nil
}

// sliceFeed wraps a materialized partition as a chain base.
func sliceFeed[T any](data []T) fusedFeed[T] {
	return fusedFeed[T]{
		baseLen:  len(data),
		windowed: true,
		feed: func(sink func(T), _ *[]int) {
			for _, v := range data {
				sink(v)
			}
		},
	}
}

// fusedCompute materializes a fused RDD: bind the chain (kernel-side),
// run the whole pipeline as one payload overlapped with the first
// operator's accounting window, then defer the remaining operators'
// charges to the next synchronization point. Event footprint: one Sleep
// for the entire chain (plus the deferred tail, which merges into
// whatever kernel event follows) — versus one Sleep per operator unfused.
func fusedCompute[T any](plan *fusePlan[T]) func(tc *taskContext, part int) ([]T, error) {
	return func(tc *taskContext, part int) ([]T, error) {
		ff, err := plan.bind(tc, part)
		if err != nil {
			return nil, err
		}
		var counts []int
		// Free-list access is kernel-side only, so the pooled output
		// buffer is popped before the payload starts. The capacity target
		// is the base length, except for expanding chains and emitting
		// sources (output length unknowable up front), which use the last
		// output of this record type.
		useHint := ff.expands || ff.baseLen < 0
		want := ff.baseLen
		if useHint {
			want = max(want, lenHint[T](tc.ctx))
		}
		pooled := takeBuf[T](tc.ctx, want)
		run := func() []T {
			buf := pooled
			if buf == nil && want > 0 {
				buf = make([]T, 0, want)
			}
			// Grow by doubling rather than append's asymptotic ~1.25x:
			// expanding operators (FlatMap) overrun the base-length hint
			// on every partition, and the halved reallocation count keeps
			// total churn at ~2x the final size instead of ~5x.
			ff.feed(func(v T) {
				if len(buf) == cap(buf) {
					nb := make([]T, len(buf), max(16, 2*cap(buf)))
					copy(nb, buf)
					buf = nb
				}
				buf = append(buf, v)
			}, &counts)
			return buf
		}
		var window time.Duration
		if ff.baseLen > 0 {
			window = tc.recordsDur(ff.baseLen)
		}
		var res []T
		if ff.kernel || ff.baseLen < offloadMin || window <= 0 {
			res = run()
			if window > 0 {
				tc.p.Sleep(window)
			}
		} else {
			pd := sim.OffloadStart(tc.p, run)
			tc.p.Sleep(window)
			res = pd.Join()
		}
		if ff.done != nil {
			ff.done()
		}
		if useHint {
			setLenHint[T](tc.ctx, len(res))
		}
		for _, n := range counts {
			tc.p.Charge(tc.recordsDur(n))
		}
		return res, nil
	}
}

// fuseMap attaches the fused plan for a 1:1 record transform (Map,
// MapValues, Keys, Values share this shape).
func fuseMap[T, U any](parent *RDD[T], out *RDD[U], f func(T) U) {
	if !fusionEnabled {
		return
	}
	out.plan = &fusePlan[U]{bind: func(tc *taskContext, part int) (fusedFeed[U], error) {
		pf, err := feedOf(parent, tc, part)
		if err != nil {
			return fusedFeed[U]{}, err
		}
		skip := pf.windowed
		return fusedFeed[U]{
			baseLen: pf.baseLen,
			kernel:  pf.kernel,
			expands: pf.expands,
			done:    pf.done,
			feed: func(sink func(U), rec *[]int) {
				n := 0
				pf.feed(func(v T) { n++; sink(f(v)) }, rec)
				if !skip {
					*rec = append(*rec, n)
				}
			},
		}, nil
	}}
	out.compute = fusedCompute(out.plan)
	out.owned = true
}

// fuseFilter attaches the fused plan for a predicate.
func fuseFilter[T any](parent, out *RDD[T], pred func(T) bool) {
	if !fusionEnabled {
		return
	}
	out.plan = &fusePlan[T]{bind: func(tc *taskContext, part int) (fusedFeed[T], error) {
		pf, err := feedOf(parent, tc, part)
		if err != nil {
			return fusedFeed[T]{}, err
		}
		skip := pf.windowed
		return fusedFeed[T]{
			baseLen: pf.baseLen,
			kernel:  pf.kernel,
			expands: pf.expands,
			done:    pf.done,
			feed: func(sink func(T), rec *[]int) {
				n := 0
				pf.feed(func(v T) {
					n++
					if pred(v) {
						sink(v)
					}
				}, rec)
				if !skip {
					*rec = append(*rec, n)
				}
			},
		}, nil
	}}
	out.compute = fusedCompute(out.plan)
	out.owned = true
}

// fuseFlatMap attaches the fused plan for an emitting 1:N transform.
// FlatMap charges framework cost on both input and output records (as the
// unfused operator always has), so it records two counts.
func fuseFlatMap[T, U any](parent *RDD[T], out *RDD[U], f func(T, func(U))) {
	if !fusionEnabled {
		return
	}
	out.plan = &fusePlan[U]{bind: func(tc *taskContext, part int) (fusedFeed[U], error) {
		pf, err := feedOf(parent, tc, part)
		if err != nil {
			return fusedFeed[U]{}, err
		}
		skip := pf.windowed
		return fusedFeed[U]{
			baseLen: pf.baseLen,
			kernel:  pf.kernel,
			expands: true,
			done:    pf.done,
			feed: func(sink func(U), rec *[]int) {
				nIn, nOut := 0, 0
				// Hoisted so the emit closure is allocated once per feed,
				// not once per record.
				emit := func(o U) { nOut++; sink(o) }
				pf.feed(func(v T) {
					nIn++
					f(v, emit)
				}, rec)
				if !skip {
					*rec = append(*rec, nIn)
				}
				*rec = append(*rec, nOut)
			},
		}, nil
	}}
	out.compute = fusedCompute(out.plan)
	out.owned = true
}
