package cluster

import (
	"time"

	"hpcbd/internal/sim"
)

// Shard plan: mapping simulated nodes onto kernel event shards.
//
// The kernel's event queue (sim.SetShards) has one shard until a
// cluster asks for more, for cache locality and cross-shard batching;
// the cluster decides which shard each node's activity lives on. A new
// cluster has a one-shard plan. The plan is rack-contiguous:
// racks are never split across shards, so intra-rack traffic — the bulk
// of a fat-tree workload when placement is rack-aware — stays same-shard
// and sifts straight into the local heap, while inter-rack transfers ride
// the O(1) cross-shard inboxes. With topology disabled the node range is
// split into equal contiguous blocks.
//
// Placement is purely a locality hint. The kernel commits events in
// global (time, seq) order at every shard count, so EnableSharding never
// changes a simulated output — the shard-invariance suite pins that.

// EnableSharding partitions the kernel's event queue into n shards and
// installs the cluster's shard plan. The conservative lookahead bound is
// the inter-node fabric wire latency: no cross-shard interaction —
// message delivery, remote wake — can take effect sooner than one fabric
// hop (RDMA verbs, 1.2 µs on Comet, is the floor). Call before Run, and
// before spawning runtimes so their processes land on their nodes'
// shards. n <= 1 means one shard.
func (c *Cluster) EnableSharding(n int) {
	// No point sharding finer than one node per shard.
	n = max(min(n, len(c.Nodes)), 1)
	c.shards = n
	c.K.SetShards(n)
	c.K.SetLookahead(c.Fabric.Latency)
	c.traffic = make([]trafficSlot, n)
}

// ShardPlan returns the configured shard count.
func (c *Cluster) ShardPlan() int { return c.shards }

// ShardOfNode returns the event shard hosting a node's activity. Racks
// map to contiguous shard blocks; without topology, the node range is
// block-partitioned directly. Out-of-range nodes (e.g. a driver "node"
// beyond the cluster) fold to shard 0.
func (c *Cluster) ShardOfNode(node int) int {
	if node < 0 || node >= len(c.Nodes) {
		return 0
	}
	if c.RackSize > 0 {
		nracks := (len(c.Nodes) + c.RackSize - 1) / c.RackSize
		if c.shards >= nracks {
			return node / c.RackSize
		}
		return (node / c.RackSize) * c.shards / nracks
	}
	return node * c.shards / len(c.Nodes)
}

// SpawnOnNode spawns a process on the shard hosting the given node.
// Identical to sim.Kernel.Spawn in every observable way; children it
// spawns inherit the shard.
func (c *Cluster) SpawnOnNode(node int, name string, body func(p *sim.Proc)) *sim.Proc {
	return c.K.SpawnOn(c.ShardOfNode(node), name, body)
}

// AfterAt schedules fn after d on the shard hosting node — the routing
// primitive for message deliveries and remote timers.
func (c *Cluster) AfterAt(node int, d time.Duration, fn func()) {
	c.K.AfterOn(c.ShardOfNode(node), d, fn)
}

// SpawnOnNodeConfined spawns a shard-confined process on the shard
// hosting node. A confined process's wakes and callbacks are
// confined-class events, eligible for parallel window execution
// (sim.Kernel.SetParallel); the caller guarantees it only touches
// state local to its shard between synchronization points.
func (c *Cluster) SpawnOnNodeConfined(node int, name string, body func(p *sim.Proc)) *sim.Proc {
	return c.K.SpawnOnConfined(c.ShardOfNode(node), name, body)
}

// afterAtFrom schedules fn after d on the shard hosting node, on behalf
// of process p. A confined sender posting to its own shard stays in the
// confined class (window-eligible, and legal inside a window); anything
// else routes through the synchronized class exactly like AfterAt.
func (c *Cluster) afterAtFrom(p *sim.Proc, node int, d time.Duration, fn func()) {
	sh := c.ShardOfNode(node)
	if p.Confined() && sh == p.Shard() {
		p.After(d, fn)
		return
	}
	p.AfterOn(sh, d, fn)
}
