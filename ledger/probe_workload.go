package main

import (
	"time"

	"hpcbd/internal/core"
	"hpcbd/internal/keyhash"
	"hpcbd/internal/workload"
)

// probeWorkload covers input generation and the serial oracles (every
// figure point regenerates its dataset) and the shuffle key hash.
func (p *prober) probeWorkload() {
	o := core.Full()
	if p.div > 1 {
		o = core.Quick()
	}
	o.Seed = p.seed
	since := func(f func()) func() time.Duration {
		return func() time.Duration {
			t0 := time.Now()
			f()
			return time.Since(t0)
		}
	}
	var d *workload.StackExchange
	var g *workload.Graph
	p.out["workload.stackexchange_gen_s"] = p.timed(since(func() {
		d = workload.NewStackExchange(o.Seed, o.ACBytes, o.ACRecordBytes, o.ACStride)
	}))
	p.out["workload.graph_gen_s"] = p.timed(since(func() {
		g = workload.NewGraph(o.Seed, o.PRPhysVertices, o.PRLogicalVertices, o.PRAvgDegree)
	}))
	p.out["workload.oracle_s"] = p.timed(since(func() {
		d.SerialAnswersCount()
		g.SerialPageRank(o.PRIters)
	}))

	hashes := p.n(4000000)
	keys := [4]string{"q", "a", "page-rank", "stackexchange"}
	var sink uint64
	p.out["keyhash.hash_ns"] = p.nsPer(2*hashes, since(func() {
		for i := 0; i < hashes; i++ {
			sink += keyhash.Hash(i) + keyhash.Hash(keys[i&3])
		}
	}))
	hashSink = sink
}

// hashSink keeps the hash loop's result alive.
var hashSink uint64
