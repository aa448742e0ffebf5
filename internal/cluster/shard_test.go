package cluster

import (
	"fmt"
	"testing"
	"time"

	"hpcbd/internal/sim"
)

// TestShardOfNodeRackContiguous asserts the plan never splits a rack
// across shards and covers every shard when enough racks exist.
func TestShardOfNodeRackContiguous(t *testing.T) {
	k := sim.NewKernel(1)
	c := Comet(k, 72)
	c.EnableFatTree(18, 4) // 4 racks of 18
	c.EnableSharding(2)
	seen := map[int]bool{}
	for n := 0; n < c.Size(); n++ {
		sh := c.ShardOfNode(n)
		if sh < 0 || sh >= 2 {
			t.Fatalf("node %d: shard %d out of range", n, sh)
		}
		rackFirst := (n / 18) * 18
		if sh != c.ShardOfNode(rackFirst) {
			t.Fatalf("rack of node %d split across shards", n)
		}
		seen[sh] = true
	}
	if len(seen) != 2 {
		t.Fatalf("only %d shards used", len(seen))
	}
	// Out-of-range nodes fold to shard 0 rather than panicking.
	if c.ShardOfNode(-1) != 0 || c.ShardOfNode(10_000) != 0 {
		t.Fatal("out-of-range node did not fold to shard 0")
	}
	k.Shutdown()
}

// TestShardOfNodeFlat checks the topology-free block partition.
func TestShardOfNodeFlat(t *testing.T) {
	k := sim.NewKernel(1)
	c := Comet(k, 10)
	c.EnableSharding(4)
	prev := 0
	counts := make([]int, 4)
	for n := 0; n < 10; n++ {
		sh := c.ShardOfNode(n)
		if sh < prev {
			t.Fatalf("shard map not monotone at node %d", n)
		}
		prev = sh
		counts[sh]++
	}
	for sh, got := range counts {
		if got == 0 {
			t.Fatalf("shard %d empty: %v", sh, counts)
		}
	}
	k.Shutdown()
}

// TestEnableShardingClamps: more shards than nodes is capped, and the
// kernel observes both the count and the fabric-latency lookahead.
func TestEnableShardingClamps(t *testing.T) {
	k := sim.NewKernel(1)
	c := Comet(k, 3)
	c.EnableSharding(16)
	if got := k.Shards(); got != 3 {
		t.Fatalf("Shards() = %d, want clamp to node count 3", got)
	}
	if got := k.Lookahead(); got != c.Fabric.Latency {
		t.Fatalf("Lookahead() = %v, want fabric latency %v", got, c.Fabric.Latency)
	}
	if c.ShardPlan() != 3 {
		t.Fatalf("ShardPlan() = %d", c.ShardPlan())
	}
	k.Shutdown()
}

// clusterTrace runs a cross-rack transfer storm — blocking and async
// sends between nodes on different shards — and returns the committed
// timeline (virtual completion times, byte counters).
func clusterTrace(t *testing.T, shards int) string {
	t.Helper()
	k := sim.NewKernel(11)
	c := Comet(k, 16)
	c.EnableFatTree(4, 4)
	c.EnableSharding(shards)
	var log string
	for src := 0; src < 8; src++ {
		src := src
		c.SpawnOnNode(src, fmt.Sprintf("storm%d", src), func(p *sim.Proc) {
			dst := (src + 5) % 16 // cross-rack most of the time
			for r := 0; r < 4; r++ {
				c.Xfer(p, src, dst, 64<<10, c.Fabric)
				c.XferAsync(p, src, dst, 4<<10, c.Fabric, func() {
					log += fmt.Sprintf("deliver %d->%d @%d\n", src, dst, k.Now())
				})
				p.Sleep(time.Duration(src) * time.Microsecond)
				log += fmt.Sprintf("sent %d->%d @%d\n", src, dst, p.Now())
			}
		})
	}
	k.Run()
	defer k.Shutdown()
	return log + fmt.Sprintf("bytes=%d msgs=%d end=%d\n", c.BytesSent(), c.Messages(), k.Now())
}

// TestClusterShardInvariance: transfers, async deliveries, counters and
// the final clock are bit-identical at every shard count.
func TestClusterShardInvariance(t *testing.T) {
	ref := clusterTrace(t, 1)
	for _, n := range []int{2, 4, 8} {
		if got := clusterTrace(t, n); got != ref {
			t.Fatalf("cluster timeline at shards=%d differs from the one-shard run", n)
		}
	}
}
