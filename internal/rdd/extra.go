package rdd

import (
	"fmt"

	"hpcbd/internal/sim"
)

// Take returns the first n records (partition order), running tasks over
// only as many partitions as needed — like Spark, it scans partitions
// incrementally rather than materializing everything.
func Take[T any](p *sim.Proc, r *RDD[T], n int) ([]T, error) {
	var out []T
	for part := 0; part < r.m.nparts && len(out) < n; part++ {
		data, err := Collect(p, slicePartition(r, part))
		if err != nil {
			return nil, err
		}
		out = append(out, data...)
	}
	if len(out) > n {
		out = out[:n]
	}
	return out, nil
}

// slicePartition wraps a single partition of r as a 1-partition RDD.
func slicePartition[T any](r *RDD[T], part int) *RDD[T] {
	m := newMeta(r.m.ctx, fmt.Sprintf("partition%d@%s", part, r.m.name), 1)
	m.narrow = []*meta{r.m}
	if r.m.prefs != nil {
		m.prefs = func(int) []int { return r.m.prefs(part) }
	}
	out := &RDD[T]{m: m, recBytes: r.recBytes}
	out.compute = func(tc *taskContext, _ int) ([]T, error) {
		return r.part(tc, part)
	}
	return out
}

// Coalesce reduces the partition count without a shuffle by concatenating
// groups of parent partitions (Spark's coalesce(n, shuffle=false)).
func Coalesce[T any](r *RDD[T], nOut int) *RDD[T] {
	if nOut <= 0 || nOut > r.m.nparts {
		panic("rdd: coalesce target must be in [1, nparts]")
	}
	nIn := r.m.nparts
	m := newMeta(r.m.ctx, fmt.Sprintf("coalesce%d@%s", nOut, r.m.name), nOut)
	m.narrow = []*meta{r.m}
	out := &RDD[T]{m: m, recBytes: r.recBytes}
	out.compute = func(tc *taskContext, part int) ([]T, error) {
		lo := part * nIn / nOut
		hi := (part + 1) * nIn / nOut
		var res []T
		for i := lo; i < hi; i++ {
			data, err := r.part(tc, i)
			if err != nil {
				return nil, err
			}
			res = append(res, data...)
		}
		return res, nil
	}
	return out
}

// CountByKey returns a map of key -> record count, computed on the
// driver from per-partition partial counts.
func CountByKey[K comparable, V any](p *sim.Proc, r *RDD[KV[K, V]]) (map[K]int64, error) {
	partials := MapPartitions(r, func(in []KV[K, V]) []KV[K, int64] {
		counts := map[K]int64{}
		var order []K
		for _, kv := range in {
			if counts[kv.K] == 0 {
				order = append(order, kv.K)
			}
			counts[kv.K]++
		}
		out := make([]KV[K, int64], 0, len(order))
		for _, k := range order {
			out = append(out, KV[K, int64]{k, counts[k]})
		}
		return out
	})
	partials.recBytes = 16
	total := map[K]int64{}
	err := runJob(p, partials, func(_ int, data []KV[K, int64]) {
		for _, kv := range data {
			total[kv.K] += kv.V
		}
	})
	if err != nil {
		return nil, err
	}
	return total, nil
}

// MapPartitionsWithView is MapPartitions with access to the task view
// (node, cost charging) — the hook output formats and sinks need.
func MapPartitionsWithView[T, U any](r *RDD[T], f func(tv TaskView, part int, in []T) []U) *RDD[U] {
	m := newMeta(r.m.ctx, fmt.Sprintf("mapPartitionsWithView@%s", r.m.name), r.m.nparts)
	m.narrow = []*meta{r.m}
	m.prefs = r.m.prefs
	out := &RDD[U]{m: m, recBytes: r.recBytes}
	out.compute = func(tc *taskContext, part int) ([]U, error) {
		in, err := r.part(tc, part)
		if err != nil {
			return nil, err
		}
		res := f(TaskView{tc}, part, in)
		tc.deferRecords(len(in))
		return res, nil
	}
	return out
}

// MapPartitionsWithCost is MapPartitions with an explicit per-input-record
// user compute cost in nanoseconds (JVM rate), for workloads whose work
// is not captured by framework overhead alone.
func MapPartitionsWithCost[T, U any](r *RDD[T], perRecordNs int64, f func(in []T) []U) *RDD[U] {
	m := newMeta(r.m.ctx, fmt.Sprintf("mapPartitionsWithCost@%s", r.m.name), r.m.nparts)
	m.narrow = []*meta{r.m}
	m.prefs = r.m.prefs
	out := &RDD[U]{m: m, recBytes: r.recBytes}
	out.compute = func(tc *taskContext, part int) ([]U, error) {
		in, err := r.part(tc, part)
		if err != nil {
			return nil, err
		}
		// Both accounting sleeps are known from the input size, so the
		// payload overlaps the full window.
		pd := sim.OffloadStart(tc.p, func() []U { return f(in) })
		tc.chargeRecords(len(in))
		tc.chargeCompute(len(in), nsToDur(perRecordNs))
		return pd.Join(), nil
	}
	return out
}
