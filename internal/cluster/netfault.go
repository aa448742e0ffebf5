package cluster

// Message-level network faults: the cluster-wide model behind the
// reliable-transport experiments. The fabric can lose messages, corrupt
// them in flight, or split into disconnected partition groups; every
// runtime sees the same faults because they are decided here, at the
// message layer, not inside any one stack.
//
// Fate decisions are stateless hash coins over (seed, src, dst, stream,
// seq, attempt): the same logical message always meets the same fate for
// a given seed, independent of when the simulation happens to send it.
// Because one uniform coin is compared against the configured rate, the
// set of lost messages at a lower rate is a strict subset of the set lost
// at any higher rate — raising the loss rate can only add faults, which
// makes "overhead grows with loss rate" a checkable shape, exactly like
// the nested-MTBF crash plans.

import (
	"time"

	"hpcbd/internal/sim"
)

// MsgFate is the network's verdict on one transmission attempt.
type MsgFate int

const (
	// FateDeliver: the message arrives intact.
	FateDeliver MsgFate = iota
	// FateLost: the message vanishes on the wire (congestion drop, link
	// error past the retry budget). The sender pays injection only.
	FateLost
	// FateCorrupt: the message arrives with flipped bits. Whether anyone
	// notices depends on the receiver's verification discipline.
	FateCorrupt
	// FatePartitioned: source and destination are in different partition
	// groups; nothing crosses the cut until it heals.
	FatePartitioned
)

func (f MsgFate) String() string {
	switch f {
	case FateDeliver:
		return "deliver"
	case FateLost:
		return "lost"
	case FateCorrupt:
		return "corrupt"
	case FatePartitioned:
		return "partitioned"
	}
	return "unknown"
}

// netFaults is the cluster's message-fault state, nil until enabled.
type netFaults struct {
	seed        int64
	lossRate    float64
	corruptRate float64

	// nodeLoss[i] is an extra loss floor for messages touching node i —
	// the signature of a gray NIC: the link is up, but bursts of frames
	// vanish. nil until some node-level rate is set.
	nodeLoss []float64

	// group[i] is node i's partition group; nil means fully connected.
	group          []int
	partitionEpoch int

	// pairSeq numbers the messages of each (stream, src, dst) flow so a
	// logical message keeps its identity — and therefore its fate —
	// across runs with different rates, whatever the global interleaving.
	pairSeq map[flowKey]int64

	partitionDrops int64
}

type flowKey struct {
	stream   int64
	src, dst int
}

// EnableNetFaults activates the message-fault model with the given coin
// seed (idempotent; the first call wins). Until some rate or partition is
// set, every message is still delivered.
func (c *Cluster) EnableNetFaults(seed int64) {
	if c.net == nil {
		c.net = &netFaults{seed: seed, pairSeq: map[flowKey]int64{}}
	}
}

// NetFaultsEnabled reports whether the message-fault model is active.
// Transports use it to skip reliability bookkeeping on perfect fabrics,
// keeping fault-free experiments bit-identical to the pre-transport ones.
func (c *Cluster) NetFaultsEnabled() bool { return c.net != nil }

func (c *Cluster) ensureNet() *netFaults {
	if c.net == nil {
		c.EnableNetFaults(1)
	}
	return c.net
}

// SetMsgLoss sets the cluster-wide message loss probability (clamped to
// [0,1]); zero clears it.
func (c *Cluster) SetMsgLoss(rate float64) { c.ensureNet().lossRate = clamp01(rate) }

// SetMsgCorrupt sets the cluster-wide in-flight corruption probability.
func (c *Cluster) SetMsgCorrupt(rate float64) { c.ensureNet().corruptRate = clamp01(rate) }

// SetNodeMsgLoss sets a per-node message loss floor: every message whose
// source or destination is the node is lost with at least this
// probability. The effective rate of a message is the max of the global
// rate and both endpoints' node rates, all compared against the one
// shared fate coin — so raising any rate only adds lost messages, and
// the nested-faults shape argument carries over unchanged. Zero clears.
func (c *Cluster) SetNodeMsgLoss(node int, rate float64) {
	n := c.ensureNet()
	if n.nodeLoss == nil {
		if rate == 0 {
			return
		}
		n.nodeLoss = make([]float64, c.Size())
	}
	if node >= 0 && node < len(n.nodeLoss) {
		n.nodeLoss[node] = clamp01(rate)
	}
}

// lossRateFor returns the effective loss probability for a src→dst
// message: the max of the global rate and both endpoints' node floors.
func (n *netFaults) lossRateFor(src, dst int) float64 {
	r := n.lossRate
	if n.nodeLoss != nil {
		if src >= 0 && src < len(n.nodeLoss) && n.nodeLoss[src] > r {
			r = n.nodeLoss[src]
		}
		if dst >= 0 && dst < len(n.nodeLoss) && n.nodeLoss[dst] > r {
			r = n.nodeLoss[dst]
		}
	}
	return r
}

// MsgLossRate returns the current loss probability.
func (c *Cluster) MsgLossRate() float64 {
	if c.net == nil {
		return 0
	}
	return c.net.lossRate
}

// MsgCorruptRate returns the current corruption probability.
func (c *Cluster) MsgCorruptRate() float64 {
	if c.net == nil {
		return 0
	}
	return c.net.corruptRate
}

// SetPartition splits the network: nodes within the same group still talk,
// nothing crosses between groups. Nodes not listed in any group form one
// implicit extra group together. Each call increments the partition epoch,
// which failure detectors compare across synchronization points.
func (c *Cluster) SetPartition(groups [][]int) {
	n := c.ensureNet()
	g := make([]int, c.Size())
	for i := range g {
		g[i] = -1
	}
	for gi, grp := range groups {
		for _, node := range grp {
			if node >= 0 && node < len(g) {
				g[node] = gi
			}
		}
	}
	for i, v := range g {
		if v < 0 {
			g[i] = len(groups)
		}
	}
	n.group = g
	n.partitionEpoch++
	c.notifyNet()
}

// HealPartition reconnects all partition groups.
func (c *Cluster) HealPartition() {
	if c.net != nil && c.net.group != nil {
		c.net.group = nil
		c.notifyNet()
	}
}

// WatchNet registers fn to run (in kernel context, like health watchers)
// after every connectivity change — a partition starting or healing. It is
// the hook failure detectors use to arm lease-expiry timers instead of
// polling the fabric, so an idle kernel still drains.
func (c *Cluster) WatchNet(fn func()) { c.netWatch = append(c.netWatch, fn) }

func (c *Cluster) notifyNet() {
	for _, fn := range c.netWatch {
		fn()
	}
}

// Partitioned reports whether a partition is currently in effect.
func (c *Cluster) Partitioned() bool { return c.net != nil && c.net.group != nil }

// PartitionEpoch counts how many partitions have ever started — the
// network analogue of CrashEpoch, compared at barriers by resilient MPI.
func (c *Cluster) PartitionEpoch() int {
	if c.net == nil {
		return 0
	}
	return c.net.partitionEpoch
}

// Reachable reports whether src can currently exchange messages with dst.
func (c *Cluster) Reachable(src, dst int) bool {
	if src == dst || c.net == nil || c.net.group == nil {
		return true
	}
	return c.net.group[src] == c.net.group[dst]
}

// NextMsgSeq issues the next sequence number of the (stream, src, dst)
// flow. Transports number their messages per flow so fate coins attach to
// logical messages, not to the global send interleaving.
func (c *Cluster) NextMsgSeq(stream int64, src, dst int) int64 {
	n := c.ensureNet()
	k := flowKey{stream, src, dst}
	s := n.pairSeq[k]
	n.pairSeq[k] = s + 1
	return s
}

// FateOf decides what the network does to transmission `attempt` of
// message `seq` on the given flow. Partition checks precede loss, which
// precedes corruption: a cut drops everything, and a lost message cannot
// also be corrupted.
func (c *Cluster) FateOf(src, dst int, stream, seq int64, attempt int) MsgFate {
	n := c.net
	if n == nil || src == dst {
		return FateDeliver
	}
	if !c.Reachable(src, dst) {
		n.partitionDrops++
		return FatePartitioned
	}
	if r := n.lossRateFor(src, dst); r > 0 && fateCoin(n.seed, 0x10c5, src, dst, stream, seq, attempt) < r {
		return FateLost
	}
	if n.corruptRate > 0 && fateCoin(n.seed, 0xc042, src, dst, stream, seq, attempt) < n.corruptRate {
		return FateCorrupt
	}
	return FateDeliver
}

// PartitionDrops reports the attempts a network partition swallowed.
func (c *Cluster) PartitionDrops() int64 {
	if c.net == nil {
		return 0
	}
	return c.net.partitionDrops
}

// XferInject charges the sender side of a message the network dropped:
// protocol overhead plus tx-port occupancy. The bytes did leave the NIC —
// they count as sent — but no delivery ever happens and the receive side
// is never charged.
func (c *Cluster) XferInject(p *sim.Proc, src, dst int, bytes int64, f FabricSpec) {
	f = c.fabricFor(src, dst, f)
	if src != dst {
		c.accountXfer(p, bytes)
	}
	p.Sleep(f.SendOverhead)
	occ := f.Occupancy(bytes)
	if src != dst {
		if st := c.Nodes[src].NICScale(); st != 1 {
			occ = time.Duration(float64(occ) * st)
		}
		s := c.Nodes[src]
		s.tx.Acquire(p, 1)
		p.Sleep(occ)
		s.tx.Release(1)
	} else {
		p.Sleep(occ)
	}
}

// fateCoin hashes the message identity into a uniform in [0,1). The salt
// decorrelates the loss and corruption coins of the same message.
func fateCoin(seed, salt int64, src, dst int, stream, seq int64, attempt int) float64 {
	x := uint64(seed) ^ 0x9e3779b97f4a7c15
	for _, v := range [...]uint64{uint64(salt), uint64(src)<<32 ^ uint64(uint32(dst)),
		uint64(stream), uint64(seq), uint64(attempt)} {
		x = splitmix64(x ^ v)
	}
	return float64(x>>11) / (1 << 53)
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
