package main

import (
	"time"

	"hpcbd/internal/cluster"
	"hpcbd/internal/mpi"
	"hpcbd/internal/sim"
)

// mpiJob times mpi.Run of body on np ranks, 8 per node, and returns the
// host time and the events committed.
func mpiJob(seed int64, np int, body func(r *mpi.Rank)) (time.Duration, int64) {
	k := sim.NewKernel(seed)
	c := cluster.Comet(k, (np+7)/8)
	t0 := time.Now()
	mpi.Run(c, np, 8, body)
	dt := time.Since(t0)
	ev := k.Events()
	k.Shutdown()
	return dt, ev
}

func (p *prober) probeMPI() {
	const np = 64
	// Allreduce of 8 B (eager) and of 1 MiB (ring) on 64 ranks.
	allreduce := func(elems, iters int) (float64, int64) {
		var events int64
		ns := p.nsPer(iters*np, func() time.Duration {
			dt, ev := mpiJob(p.seed, np, func(r *mpi.Rank) {
				data := make([]float64, elems)
				for it := 0; it < iters; it++ {
					r.World().Allreduce(r, data, mpi.OpSum, 8)
				}
			})
			events = ev
			return dt
		})
		return ns, events
	}
	small := p.n(100)
	ns, events := allreduce(1, small)
	p.out["mpi.allreduce_small_ns_per_rank"] = ns
	p.out["mpi.events_per_allreduce_rank"] = float64(events) / float64(small*np)
	p.out["mpi.allreduce_large_ns_per_rank"], _ = allreduce(p.n(1<<17), 2)

	// A ring of eager sends: every rank sends right and receives from
	// the left.
	iters := p.n(1000)
	p.out["mpi.p2p_ns_per_msg"] = p.nsPer(iters*np, func() time.Duration {
		dt, _ := mpiJob(p.seed, np, func(r *mpi.Rank) {
			right, left := (r.Rank()+1)%np, (r.Rank()+np-1)%np
			for it := 0; it < iters; it++ {
				r.World().Sendrecv(r, right, 0, nil, 64, left, 0)
			}
		})
		return dt
	})

	// Launching and retiring 8,000 empty ranks (one scale point's worth).
	ranks := 8 * p.n(1000)
	p.out["mpi.launch_us_per_rank"] = p.nsPer(ranks, func() time.Duration {
		dt, _ := mpiJob(p.seed, ranks, func(r *mpi.Rank) {})
		return dt
	}) / 1e3
}
