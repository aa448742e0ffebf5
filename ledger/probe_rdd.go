package main

import (
	"time"

	"hpcbd/internal/cluster"
	"hpcbd/internal/rdd"
	"hpcbd/internal/sim"
)

// rddApp runs body as the driver of a fresh 4-node Spark application.
func rddApp(seed int64, body func(p *sim.Proc, ctx *rdd.Context)) {
	k := sim.NewKernel(seed)
	c := cluster.Comet(k, 4)
	ctx := rdd.NewContext(c, rdd.DefaultConfig())
	k.Spawn("driver", func(p *sim.Proc) { body(p, ctx) })
	k.Run()
	k.Shutdown()
}

func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

func (p *prober) probeRDD() {
	const parts = 16
	n := p.n(1000000)
	data := make([]int, n)
	for i := range data {
		data[i] = i
	}
	type kv = rdd.KV[int, int]
	keyed := func(r *rdd.RDD[int], keys int) *rdd.RDD[kv] {
		return rdd.Map(r, func(v int) kv { return kv{K: v % keys, V: v} })
	}
	// job times one action inside the driver process.
	job := func(build func(ctx *rdd.Context) func(p *sim.Proc)) func() time.Duration {
		return func() (dt time.Duration) {
			rddApp(p.seed, func(q *sim.Proc, ctx *rdd.Context) {
				action := build(ctx)
				t0 := time.Now()
				action(q)
				dt = time.Since(t0)
			})
			return dt
		}
	}

	// Narrow stage: Parallelize → Map → Filter → Count, fused.
	p.out["rdd.narrow_ns_per_record"] = p.nsPer(n, job(func(ctx *rdd.Context) func(*sim.Proc) {
		r := rdd.Parallelize(ctx, "ints", data, parts, 8)
		out := rdd.Filter(rdd.Map(r, func(v int) int { return v * 3 }), func(v int) bool { return v%2 == 0 })
		return func(q *sim.Proc) { must(rdd.Count(q, out)) }
	}))

	// One shuffle: ReduceByKey over 1,024 keys.
	shuffle := func(ctx *rdd.Context) func(*sim.Proc) {
		sums := rdd.ReduceByKey(keyed(rdd.Parallelize(ctx, "ints", data, parts, 8), 1024),
			func(a, b int) int { return a + b }, parts)
		return func(q *sim.Proc) { must(rdd.Count(q, sums)) }
	}
	p.out["rdd.shuffle_ns_per_record"] = p.nsPer(n, job(shuffle))
	p.out["rdd.shuffle_allocs_per_record"] = mallocsDuring(func() { job(shuffle)() }) / float64(n)

	// Join of two keyed halves, unique keys.
	half := data[:n/2]
	p.out["rdd.join_ns_per_record"] = p.nsPer(2*len(half), job(func(ctx *rdd.Context) func(*sim.Proc) {
		a := keyed(rdd.Parallelize(ctx, "a", half, parts, 8), len(half))
		b := keyed(rdd.Parallelize(ctx, "b", half, parts, 8), len(half))
		joined := rdd.Join(a, b, parts)
		return func(q *sim.Proc) { must(rdd.Count(q, joined)) }
	}))

	// Empty partitions: what the scheduler charges per task.
	tasks := p.n(10000)
	p.out["rdd.task_launch_ns_per_task"] = p.nsPer(tasks, job(func(ctx *rdd.Context) func(*sim.Proc) {
		empty := rdd.Parallelize(ctx, "empty", []int{}, tasks, 8)
		return func(q *sim.Proc) { must(rdd.Count(q, empty)) }
	}))
}
