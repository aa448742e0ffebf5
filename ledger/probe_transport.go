package main

import (
	"time"

	"hpcbd/internal/cluster"
	"hpcbd/internal/sim"
	"hpcbd/internal/transport"
)

// sendStorm has 4 senders push msgs 4 KiB messages each through one
// reliable transport on a fault-enabled fabric at the given loss rate.
func sendStorm(seed int64, msgs int, loss float64) (time.Duration, int64, transport.Stats) {
	k := sim.NewKernel(seed)
	c := cluster.Comet(k, 8)
	c.EnableNetFaults(seed)
	c.SetMsgLoss(loss)
	// The breaker is kept from tripping: a tripped breaker fast-fails
	// the rest of the storm, and the probe would time that instead.
	tr := transport.New(c, cluster.IPoIB(), transport.Config{BreakerThreshold: 1 << 30}, transport.StreamShuffle, seed)
	for i := 0; i < 4; i++ {
		c.SpawnOnNode(i, "sender", func(p *sim.Proc) {
			for m := 0; m < msgs; m++ {
				// A send that exhausts its retries is counted in Stats;
				// the probe times the attempt either way.
				_, _ = tr.Send(p, i, i+4, 4096)
			}
		})
	}
	t0 := time.Now()
	k.Run()
	dt := time.Since(t0)
	ev := k.Events()
	k.Shutdown()
	return dt, ev, tr.Stats
}

func (p *prober) probeTransport() {
	msgs := p.n(10000)
	p.out["transport.send_ns_per_msg"] = p.nsPer(4*msgs, func() time.Duration {
		dt, _, _ := sendStorm(p.seed, msgs, 0)
		return dt
	})
	var events int64
	var st transport.Stats
	p.out["transport.send_lossy_ns_per_msg"] = p.nsPer(4*msgs, func() time.Duration {
		dt, ev, s := sendStorm(p.seed, msgs, 0.05)
		events, st = ev, s
		return dt
	})
	p.out["transport.events_per_msg"] = float64(events) / float64(st.Sent)
	p.out["transport.retries_per_msg"] = float64(st.Retries) / float64(st.Sent)
}
