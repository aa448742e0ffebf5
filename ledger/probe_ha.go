package main

import (
	"time"

	"hpcbd/internal/cluster"
	"hpcbd/internal/ha"
	"hpcbd/internal/sim"
)

func (p *prober) probeHA() {
	// Journal appends on a healthy 3-replica group.
	entries := p.n(200000)
	var events int64
	p.out["ha.append_ns_per_entry"] = p.nsPer(entries, func() time.Duration {
		k := sim.NewKernel(p.seed)
		c := cluster.Comet(k, 4)
		g := ha.New(c, cluster.IPoIB(), "probe", []int{0, 1, 2}, ha.Config{}, p.seed)
		k.Spawn("writer", func(q *sim.Proc) {
			g.AwaitLeader(q)
			for i := 0; i < entries; i++ {
				if err := g.Append(q, 1); err != nil {
					panic(err)
				}
			}
		})
		t0 := time.Now()
		k.Run()
		dt := time.Since(t0)
		events = k.Events()
		k.Shutdown()
		return dt
	})
	p.out["ha.events_per_append"] = float64(events) / float64(entries)
}
