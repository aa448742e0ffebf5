package cluster

import (
	"fmt"
	"testing"
	"time"

	"hpcbd/internal/sim"
)

// TestMemDiskCountersParallelDispatch hammers the accounted-RAM and
// disk-capacity counters from confined processes on every shard of a
// parallel kernel (shards=4, workers=4) — the PR-9 window executor's
// adversarial case for them. Memory-aware placement and chaos hogs read
// and CAS *other* nodes' counters from inside windows, so each hammer
// also claims against a peer across a shard boundary. Run under -race
// (the Makefile's soak does) this pins that the padded atomics keep the
// counters word-safe; the conservation check pins that no interleaving
// loses or invents a byte.
func TestMemDiskCountersParallelDispatch(t *testing.T) {
	k := sim.NewKernel(99)
	k.SetParallel(4)
	c := Comet(k, 8)
	c.EnableSharding(4)
	for i := 0; i < c.Size(); i++ {
		c.Node(i).Scratch.SetCapacity(64 << 30)
	}
	for i := 0; i < c.Size(); i++ {
		i := i
		c.SpawnOnNodeConfined(i, fmt.Sprintf("hammer.%d", i), func(p *sim.Proc) {
			own := c.Node(i)
			peer := (i + 3) % c.Size()
			for iter := 0; iter < 200; iter++ {
				if own.AllocMem(1 << 30) {
					p.Sleep(3 * time.Microsecond)
					own.FreeMem(1 << 30)
				}
				if got := own.AllocMemUpTo(2 << 30); got > 0 {
					own.FreeMem(got)
				}
				// Cross-shard traffic: a placement-style read plus a
				// hog-style claim/release against another shard's node.
				_ = c.Node(peer).MemFree()
				if got := c.Node(peer).AllocMemUpTo(1 << 20); got > 0 {
					c.Node(peer).FreeMem(got)
				}
				if own.Scratch.Alloc(1 << 30) {
					p.Sleep(2 * time.Microsecond)
					own.Scratch.Free(1 << 30)
				}
				if got := own.Scratch.AllocUpTo(2 << 30); got > 0 {
					own.Scratch.Free(got)
				}
				if got := c.Node(peer).Scratch.AllocUpTo(1 << 20); got > 0 {
					c.Node(peer).Scratch.Free(got)
				}
				p.Sleep(time.Microsecond)
			}
		})
	}
	k.Run()
	defer k.Shutdown()
	for i := 0; i < c.Size(); i++ {
		n := c.Node(i)
		if n.MemFree() != n.Spec.MemBytes {
			t.Errorf("node %d: %d RAM bytes leaked", i, n.Spec.MemBytes-n.MemFree())
		}
		if used := n.Scratch.Used(); used != 0 {
			t.Errorf("node %d: %d disk bytes leaked", i, used)
		}
	}
}
