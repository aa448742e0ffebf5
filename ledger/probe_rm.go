package main

import (
	"fmt"
	"time"

	"hpcbd/internal/chaos"
	"hpcbd/internal/cluster"
	"hpcbd/internal/rm"
	"hpcbd/internal/sim"
)

// probeRM covers the batch schedulers in rm and fault-plan installation
// in chaos.
func (p *prober) probeRM() {
	njobs := p.n(200)
	jobs := make([]rm.Job, njobs)
	for i := range jobs {
		jobs[i] = rm.Job{ID: fmt.Sprintf("j%d", i), Arrive: time.Duration(i) * time.Second,
			Tasks: 1 + i%48, TaskCores: 1, TaskDuration: time.Minute}
	}
	schedule := func(run func(c *cluster.Cluster)) func() time.Duration {
		return func() time.Duration {
			c := cluster.Comet(sim.NewKernel(p.seed), 16)
			t0 := time.Now()
			run(c)
			dt := time.Since(t0)
			c.K.Shutdown()
			return dt
		}
	}
	p.out["rm.slurm_ns_per_job"] = p.nsPer(njobs, schedule(func(c *cluster.Cluster) { rm.RunSlurm(c, jobs, true) }))
	p.out["rm.yarn_ns_per_job"] = p.nsPer(njobs, schedule(func(c *cluster.Cluster) { rm.RunYarn(c, jobs) }))

	// Installing and playing out an MTBF crash plan on 64 idle nodes.
	plan := chaos.MTBF(p.seed, 64, time.Millisecond, time.Duration(p.n(20000))*time.Millisecond,
		chaos.CrashOpts{Downtime: 500 * time.Microsecond})
	p.out["chaos.install_ns_per_event"] = p.nsPer(len(plan.Events), func() time.Duration {
		k := sim.NewKernel(p.seed)
		c := cluster.Comet(k, 64)
		t0 := time.Now()
		chaos.Install(c, plan)
		k.Run()
		dt := time.Since(t0)
		k.Shutdown()
		return dt
	})
}
