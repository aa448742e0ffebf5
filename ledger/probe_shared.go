package main

import (
	"time"

	"hpcbd/internal/cluster"
	"hpcbd/internal/omp"
	"hpcbd/internal/shmem"
	"hpcbd/internal/sim"
)

// probeSharedMemory covers omp and shmem: small shares of the figures
// workload, listed so that a dead-weight audit can see them.
func (p *prober) probeSharedMemory() {
	// Fork-join regions of 16 threads on one node.
	regions := p.n(2000)
	p.out["omp.region_ns_per_thread"] = p.nsPer(16*regions, func() time.Duration {
		k := sim.NewKernel(p.seed)
		c := cluster.Comet(k, 1)
		k.Spawn("main", func(q *sim.Proc) {
			for i := 0; i < regions; i++ {
				omp.Parallel(q, c, 0, 16, func(t *omp.Thread) { t.Compute(1e-6) })
			}
		})
		t0 := time.Now()
		k.Run()
		dt := time.Since(t0)
		k.Shutdown()
		return dt
	})

	// 16 PEs on 4 nodes each putting one word to the next PE.
	puts := p.n(5000)
	p.out["shmem.put_ns_per_op"] = p.nsPer(16*puts, func() time.Duration {
		k := sim.NewKernel(p.seed)
		c := cluster.Comet(k, 4)
		t0 := time.Now()
		shmem.Run(c, 16, 4, func(pe *shmem.PE) {
			s := pe.AllocFloat64("word", 1)
			next := (pe.MyPE() + 1) % pe.NPEs()
			for i := 0; i < puts; i++ {
				shmem.Put(pe, s, next, 0, []float64{1})
			}
			pe.Quiet()
			pe.BarrierAll()
		})
		dt := time.Since(t0)
		k.Shutdown()
		return dt
	})
}
