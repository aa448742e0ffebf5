// Package cluster layers a hardware platform on the sim kernel: compute
// nodes with cores, RAM and local disks, plus interconnect fabrics with
// distinct software-path costs (RDMA verbs, IPoIB, Ethernet). Every
// programming-model runtime in this repository (MPI, OpenMP, OpenSHMEM,
// MapReduce, the RDD engine) executes on a Cluster, so all of the paper's
// comparisons share one platform.
package cluster

import (
	"fmt"
	"sync/atomic"
	"time"

	"hpcbd/internal/sim"
)

// NodeSpec describes one compute node (the paper's Table I).
type NodeSpec struct {
	Name     string
	Sockets  int
	CoresPer int // cores per socket
	ClockGHz float64
	FlopRate float64 // peak flop/s (Table I: 960 GFlop/s)
	MemBytes int64
	Scratch  DiskSpec
}

// Cores returns total cores per node.
func (s NodeSpec) Cores() int { return s.Sockets * s.CoresPer }

// CometNode returns the node configuration of SDSC Comet (Table I):
// 2× Intel Xeon E5-2680v3, 12 cores/socket, 2.5 GHz, 960 GFlop/s,
// 128 GB DDR4, 320 GB local scratch SSD.
func CometNode() NodeSpec {
	return NodeSpec{
		Name:     "comet",
		Sockets:  2,
		CoresPer: 12,
		ClockGHz: 2.5,
		FlopRate: 9.6e11,
		MemBytes: 128 << 30,
		Scratch:  LocalSSD(),
	}
}

// Node is a simulated compute node.
type Node struct {
	ID      int
	Spec    NodeSpec
	Cores   *sim.Resource
	Scratch *Disk
	GPU     *GPU          // attached accelerator, nil unless AttachGPU was called
	tx, rx  *sim.Resource // NIC port occupancy, full duplex

	// memUsed is the node's accounted RAM. Atomic with cache-line padding:
	// memory-aware task placement and overload hogs read and CAS other
	// nodes' counters from confined events inside PR 9 parallel windows,
	// so plain fields would race across gang workers. The padding keeps a
	// neighboring node's hot counter off this cache line.
	memUsed atomic.Int64
	_       [56]byte

	// Chaos performance knobs (see health.go): multipliers on compute
	// time and NIC occupancy. Zero means 1 (full speed).
	computeScale float64
	nicScale     float64
}

// MemUsed returns currently-accounted memory on the node.
func (n *Node) MemUsed() int64 { return n.memUsed.Load() }

// MemFree returns unaccounted memory.
func (n *Node) MemFree() int64 { return n.Spec.MemBytes - n.memUsed.Load() }

// AllocMem accounts a memory allocation; it reports false (allocating
// nothing) when the node lacks capacity, letting callers spill to disk.
// Safe from confined events: the CAS loop never over-commits even when
// two shards' workers race for the last bytes.
func (n *Node) AllocMem(bytes int64) bool {
	for {
		cur := n.memUsed.Load()
		if cur+bytes > n.Spec.MemBytes {
			return false
		}
		if n.memUsed.CompareAndSwap(cur, cur+bytes) {
			return true
		}
	}
}

// AllocMemUpTo claims as much of bytes as the node can supply (possibly
// zero) and returns the amount claimed — the primitive behind partial
// working-set grabs and the chaos memory hog.
func (n *Node) AllocMemUpTo(bytes int64) int64 {
	for {
		cur := n.memUsed.Load()
		free := n.Spec.MemBytes - cur
		if free <= 0 || bytes <= 0 {
			return 0
		}
		take := bytes
		if take > free {
			take = free
		}
		if n.memUsed.CompareAndSwap(cur, cur+take) {
			return take
		}
	}
}

// FreeMem returns accounted memory.
func (n *Node) FreeMem(bytes int64) {
	if n.memUsed.Add(-bytes) < 0 {
		panic("cluster: FreeMem below zero")
	}
}

// Cluster is a set of identical nodes joined by a fabric.
type Cluster struct {
	K      *sim.Kernel
	Nodes  []*Node
	Fabric FabricSpec // inter-node fabric (RDMA verbs wire view)
	Local  FabricSpec // intra-node transport
	NFS    *Disk      // shared filer, one per cluster
	Cost   CostModel

	// Topology: nodes are grouped into racks of RackSize; transfers
	// between racks additionally occupy the shared rack uplinks, which
	// carry only 1/Oversubscription of the racks' aggregate bandwidth —
	// Comet's "hybrid fat-tree" (Table I) is 4:1 between racks. A zero
	// RackSize disables the topology model (flat full-bisection network).
	RackSize         int
	Oversubscription float64
	uplinks          []*sim.Resource // per rack, capacity = concurrent uplink streams

	// Node-health state (see health.go): per-node liveness, death
	// counters and transition watchers shared by every runtime.
	health     []Health
	downCount  []int
	crashEpoch int
	watchers   []func(node int, h Health)

	// Message-fault state (see netfault.go): loss/corruption rates and
	// partition groups applied to every fabric. Nil until enabled.
	net      *netFaults
	netWatch []func()

	// Shard plan (see shard.go): event-queue shard count, at least one;
	// node activity maps onto shards rack-contiguously.
	shards int

	// Fabric traffic counters: one padded slot per shard, indexed by the
	// sending process's shard. Confined senders inside a parallel window
	// then increment a slot their worker owns exclusively, and
	// BytesSent/Messages sum at read time (serial).
	traffic []trafficSlot
}

// trafficSlot is one shard's fabric counters, padded to a cache line so
// neighboring shards' window workers never write-share.
type trafficSlot struct {
	bytes int64
	msgs  int64
	_     [48]byte
}

// accountXfer attributes an inter-node message to the sending process's
// shard slot.
func (c *Cluster) accountXfer(p *sim.Proc, bytes int64) {
	s := &c.traffic[p.Shard()]
	s.bytes += bytes
	s.msgs++
}

// New builds a cluster of n nodes.
func New(k *sim.Kernel, n int, spec NodeSpec, fabric FabricSpec, cost CostModel) *Cluster {
	if n <= 0 {
		panic("cluster: need at least one node")
	}
	c := &Cluster{
		K:       k,
		Fabric:  fabric,
		Local:   IntraNode(),
		NFS:     NewDisk(k, "nfs", NFSDisk()),
		Cost:    cost,
		shards:  1,
		traffic: make([]trafficSlot, 1),
	}
	for i := 0; i < n; i++ {
		c.Nodes = append(c.Nodes, &Node{
			ID:      i,
			Spec:    spec,
			Cores:   sim.NewResource(k, fmt.Sprintf("node%d.cores", i), int64(spec.Cores())),
			Scratch: NewDisk(k, fmt.Sprintf("node%d.scratch", i), spec.Scratch),
			tx:      sim.NewResource(k, fmt.Sprintf("node%d.tx", i), 1),
			rx:      sim.NewResource(k, fmt.Sprintf("node%d.rx", i), 1),
		})
	}
	c.health = make([]Health, n)
	c.downCount = make([]int, n)
	return c
}

// Comet builds an n-node Comet cluster with the FDR InfiniBand fabric and
// the default cost model.
func Comet(k *sim.Kernel, n int) *Cluster {
	return New(k, n, CometNode(), RDMAVerbsFDR(), DefaultCostModel())
}

// EnableFatTree activates the rack topology: racks of rackSize nodes with
// oversubscribed uplinks (Comet: 4:1). At most rackSize/oversubscription
// full-rate streams leave a rack concurrently; further bulk transfers
// queue on the uplink. Only blocking transfers (rendezvous payloads,
// shuffle fetches, DFS streams) contend for uplinks; eager control
// messages are negligible against uplink capacity.
func (c *Cluster) EnableFatTree(rackSize int, oversubscription float64) {
	if rackSize <= 0 || oversubscription < 1 {
		panic("cluster: rackSize must be positive and oversubscription >= 1")
	}
	c.RackSize = rackSize
	c.Oversubscription = oversubscription
	streams := int64(float64(rackSize) / oversubscription)
	if streams < 1 {
		streams = 1
	}
	nracks := (len(c.Nodes) + rackSize - 1) / rackSize
	c.uplinks = make([]*sim.Resource, nracks)
	for i := range c.uplinks {
		c.uplinks[i] = sim.NewResource(c.K, fmt.Sprintf("rack%d.uplink", i), streams)
	}
}

// rackOf returns the rack index of a node (-1 when topology is disabled).
func (c *Cluster) rackOf(node int) int {
	if c.RackSize <= 0 {
		return -1
	}
	return node / c.RackSize
}

// Size returns the number of nodes.
func (c *Cluster) Size() int { return len(c.Nodes) }

// Node returns node i.
func (c *Cluster) Node(i int) *Node { return c.Nodes[i] }

// BytesSent returns total bytes moved across the fabric (excludes
// intra-node copies).
func (c *Cluster) BytesSent() int64 {
	var n int64
	for i := range c.traffic {
		n += c.traffic[i].bytes
	}
	return n
}

// Messages returns the total inter-node message count.
func (c *Cluster) Messages() int64 {
	var n int64
	for i := range c.traffic {
		n += c.traffic[i].msgs
	}
	return n
}

// fabricFor picks the transport between two nodes under spec f: intra-node
// messages use shared memory regardless of the requested fabric.
func (c *Cluster) fabricFor(src, dst int, f FabricSpec) FabricSpec {
	if src == dst {
		return c.Local
	}
	return f
}

// Xfer performs a blocking transfer of n bytes from node src to node dst
// over fabric f, charging the calling process the full path: sender
// overhead, NIC occupancy at both ends (with FIFO contention), wire
// latency and receiver overhead. It returns at delivery time.
//
// Xfer holds the destination's NIC — another shard's state when the
// transfer crosses racks — so it is a synchronized-path primitive: a
// shard-confined process must not reach it (the MPI eager-threshold
// guard enforces this for rendezvous sends).
func (c *Cluster) Xfer(p *sim.Proc, src, dst int, bytes int64, f FabricSpec) {
	f = c.fabricFor(src, dst, f)
	if src == dst {
		// Intra-node: no NIC contention, no chaos NIC stretch — the whole
		// path is a fixed duration, charged as a single event.
		p.Sleep(f.SendOverhead + f.Occupancy(bytes) + f.Latency + f.RecvOverhead)
		return
	}
	c.accountXfer(p, bytes)
	p.Sleep(f.SendOverhead)
	occ := f.Occupancy(bytes)
	if st := c.nicStretch(src, dst); st != 1 {
		occ = time.Duration(float64(occ) * st)
	}
	s, d := c.Nodes[src], c.Nodes[dst]
	var uplink *sim.Resource
	if sr, dr := c.rackOf(src), c.rackOf(dst); sr >= 0 && sr != dr {
		uplink = c.uplinks[sr]
	}
	s.tx.Acquire(p, 1)
	if uplink != nil {
		uplink.Acquire(p, 1)
	}
	d.rx.Acquire(p, 1)
	p.Sleep(occ)
	d.rx.ReleaseBy(p, 1)
	if uplink != nil {
		uplink.ReleaseBy(p, 1)
	}
	s.tx.ReleaseBy(p, 1)
	p.Sleep(f.Latency + f.RecvOverhead)
}

// XferAsync charges the calling process only the sender-side injection
// cost (overhead + tx occupancy) and invokes deliver at the virtual time
// the message arrives. It models eager sends and fire-and-forget control
// messages; receiver-side overhead is charged to the receiver by the
// caller of deliver if appropriate.
func (c *Cluster) XferAsync(p *sim.Proc, src, dst int, bytes int64, f FabricSpec, deliver func()) {
	f = c.fabricFor(src, dst, f)
	if src == dst {
		// Intra-node: fixed-cost injection, one event.
		p.Sleep(f.SendOverhead + f.Occupancy(bytes))
		c.afterAtFrom(p, dst, f.Latency, deliver)
		return
	}
	c.accountXfer(p, bytes)
	p.Sleep(f.SendOverhead)
	occ := f.Occupancy(bytes)
	if st := c.Nodes[src].NICScale(); st != 1 {
		occ = time.Duration(float64(occ) * st)
	}
	s := c.Nodes[src]
	s.tx.Acquire(p, 1)
	p.Sleep(occ)
	s.tx.ReleaseBy(p, 1)
	// Delivery executes on the receiver's shard: a cross-rack message
	// lands in the destination shard's inbox and heapifies in a batch.
	c.afterAtFrom(p, dst, f.Latency, deliver)
}

// ScanCost returns the time for one core to scan n bytes at rate bw.
func ScanCost(n int64, bw float64) time.Duration {
	return time.Duration(float64(n) / bw * 1e9)
}
