package main

import (
	"time"

	"hpcbd/internal/core"
	"hpcbd/internal/exec"
)

func (p *prober) probeExec() {
	// Pool.Submit of a no-op and the join on its completion: the fixed
	// cost of one sim.Offload*.
	n := p.n(50000)
	p.out["exec.pool_submit_ns"] = p.nsPer(n, func() time.Duration {
		pool := exec.NewPool(2)
		defer pool.Close()
		done := make(chan struct{})
		t0 := time.Now()
		for i := 0; i < n; i++ {
			pool.Submit(func() { done <- struct{}{} })
			<-done
		}
		return time.Since(t0)
	})

	// One barrier round of a 2-worker gang: the fixed cost of one
	// conservative window.
	rounds := p.n(100000)
	p.out["exec.gang_round_ns"] = p.nsPer(rounds, func() time.Duration {
		g := exec.NewGang(2)
		defer g.Close()
		t0 := time.Now()
		for i := 0; i < rounds; i++ {
			g.Run(2, func(int) {})
		}
		return time.Since(t0)
	})

	// Sweep-point parallelism: Fig 6 at test scale, points one after the
	// other against points across the CPU budget.
	o := core.Quick()
	o.Seed = p.seed
	fig6 := func() time.Duration {
		t0 := time.Now()
		core.Fig6(o)
		return time.Since(t0)
	}
	exec.SetForEachWidth(1)
	serial := p.timed(fig6)
	exec.SetForEachWidth(0) // back to the CPU budget
	p.out["exec.foreach_speedup"] = serial / p.timed(fig6)
}
