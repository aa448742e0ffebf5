package main

import (
	"time"

	"hpcbd/internal/cluster"
	"hpcbd/internal/sim"
)

// xferStorm has 8 processes on nodes 0-7 of a 16-node cluster each send
// msgs messages of the given size to nodes 8-15 over RDMA verbs.
func xferStorm(msgs int, bytes int64) (time.Duration, int64) {
	k := sim.NewKernel(3)
	c := cluster.Comet(k, 16)
	for i := 0; i < 8; i++ {
		c.SpawnOnNode(i, "sender", func(p *sim.Proc) {
			for m := 0; m < msgs; m++ {
				c.Xfer(p, i, i+8, bytes, cluster.RDMAVerbsFDR())
			}
		})
	}
	t0 := time.Now()
	k.Run()
	dt := time.Since(t0)
	ev := k.Events()
	k.Shutdown()
	return dt, ev
}

func (p *prober) probeCluster() {
	msgs := p.n(20000)
	var events int64
	p.out["cluster.xfer_ns_per_msg"] = p.nsPer(8*msgs, func() time.Duration {
		dt, ev := xferStorm(msgs, 64)
		events = ev
		return dt
	})
	p.out["cluster.xfer_events_per_msg"] = float64(events) / float64(8*msgs)
	p.out["cluster.xfer_bulk_ns_per_msg"] = p.nsPer(8*msgs, func() time.Duration {
		dt, _ := xferStorm(msgs, 1<<20)
		return dt
	})

	// 8 readers contending for one node's scratch disk.
	reads := p.n(10000)
	p.out["cluster.disk_read_ns_per_op"] = p.nsPer(8*reads, func() time.Duration {
		k := sim.NewKernel(3)
		c := cluster.Comet(k, 1)
		for i := 0; i < 8; i++ {
			k.Spawn("reader", func(q *sim.Proc) {
				for r := 0; r < reads; r++ {
					c.Node(0).Scratch.Read(q, 1<<20)
				}
			})
		}
		t0 := time.Now()
		k.Run()
		dt := time.Since(t0)
		k.Shutdown()
		return dt
	})

	// Building a 4,000-node fat-tree cluster on a sharded kernel.
	nodes := p.n(4000)
	p.out["cluster.build_us_per_node"] = 1e6 * p.timed(func() time.Duration {
		t0 := time.Now()
		c := cluster.Comet(sim.NewKernel(3), nodes)
		c.EnableFatTree(scaleRack, scaleOversub)
		c.EnableSharding(windowShards)
		return time.Since(t0)
	}) / float64(nodes)
}
