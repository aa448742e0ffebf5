// Package dfs models an HDFS-like distributed filesystem (the Big Data
// stack's storage layer, §IV): a namenode tracking a block-structured
// namespace, datanodes storing replicated blocks on their node's local
// scratch disks, locality-aware reads with checksum verification, datanode
// failure with transparent client failover, and background re-replication.
//
// All protocol traffic (metadata RPCs, block streams) uses the socket
// fabric handed to New — IPoIB on the Comet configuration — never RDMA,
// matching how Hadoop-era stacks actually ran on InfiniBand clusters.
package dfs

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"sort"
	"strings"
	"time"

	"hpcbd/internal/cluster"
	"hpcbd/internal/ha"
	"hpcbd/internal/sim"
	"hpcbd/internal/transport"
)

// Config controls filesystem behaviour.
type Config struct {
	BlockSize   int64 // default 128 MiB
	Replication int   // default 3, clamped to cluster size
	// RereplicationDelay is how long after a datanode death the namenode
	// starts restoring replication (heartbeat timeout).
	RereplicationDelay time.Duration
	// Retry tunes the reliable transport under the metadata RPCs and
	// block streams; zero fields take the transport defaults.
	Retry transport.Config
	// Hedge enables hedged block reads: when serving a block outlives
	// the adaptive percentile delay learned from recent reads, the
	// client fires the same read at a second replica and takes the first
	// answer — the classic tail-latency defence against gray datanodes.
	// Off by default, leaving the read path byte-identical.
	Hedge bool
	// TrackDisk charges every stored replica against its datanode disk's
	// finite capacity (cluster.Disk.Alloc): a write that finds the disk
	// full drops the replica (the file is born under-replicated) unless
	// WriteRedirect saves it. Off by default — capacity is ignored and
	// the write path is byte-identical to the pre-overload engine.
	TrackDisk bool
	// WriteRedirect, with TrackDisk, redirects a replica write whose
	// target disk is full to the first live datanode with room instead
	// of dropping it, and is the flag gating "full disks are never
	// re-replication targets" — the DFS mitigation arm of the overload
	// sweep.
	WriteRedirect bool
}

// DefaultConfig returns HDFS-era defaults (128 MiB blocks, 3 replicas).
func DefaultConfig() Config {
	return Config{BlockSize: 128 << 20, Replication: 3, RereplicationDelay: 5 * time.Second}
}

// BlockLoc describes one block's extent and replica placement, as returned
// to locality-aware schedulers.
type BlockLoc struct {
	Offset int64
	Size   int64
	Nodes  []int // replica nodes, alive ones only
}

// castagnoli is the CRC32C polynomial table — the checksum HDFS stores
// per 512-byte chunk; here one checksum stands in for the block's worth.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

type blockMeta struct {
	id       int64
	offset   int64
	size     int64
	replicas []int
	crc      uint32       // CRC32C of the block's (modelled) contents
	corrupt  map[int]bool // replicas holding a silently bit-rotted copy
}

// blockCRC derives the block's content checksum from its identity (the
// simulation carries no real payload bytes, but the checksum algebra —
// matching means intact — is the real CRC32C).
func blockCRC(id int64) uint32 {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(id))
	return crc32.Checksum(b[:], castagnoli)
}

// replicaCRC is the checksum a client computes over the bytes this
// replica actually serves: a bit-rotted copy hashes differently.
func (b *blockMeta) replicaCRC(rep int) uint32 {
	if b.corrupt[rep] {
		return crc32.Update(b.crc, castagnoli, []byte{0xff})
	}
	return b.crc
}

func (b *blockMeta) setCorrupt(rep int) {
	if b.corrupt == nil {
		b.corrupt = map[int]bool{}
	}
	b.corrupt[rep] = true
}

// dropReplica removes rep from the block's replica list and forgets its
// corruption state (the copy no longer exists).
func (b *blockMeta) dropReplica(rep int) {
	keep := b.replicas[:0]
	for _, r := range b.replicas {
		if r != rep {
			keep = append(keep, r)
		}
	}
	b.replicas = keep
	delete(b.corrupt, rep)
}

// swapReplica rewrites the replica entry `from` to `to` in place (write
// redirection), keeping placement order.
func (b *blockMeta) swapReplica(from, to int) {
	for i, r := range b.replicas {
		if r == from {
			b.replicas[i] = to
			return
		}
	}
}

type fileMeta struct {
	name   string
	size   int64
	blocks []*blockMeta
}

type datanode struct {
	node       int
	alive      bool
	blocks     map[int64]*blockMeta
	downByNode bool // node death observed, loss pending/attributed
}

// Errors returned by filesystem operations.
var (
	ErrNotFound    = errors.New("dfs: file not found")
	ErrExists      = errors.New("dfs: file exists")
	ErrUnavailable = errors.New("dfs: no live replica for block")
)

// DFS is the filesystem. All methods taking a *sim.Proc must be called
// from simulated processes.
type DFS struct {
	c      *cluster.Cluster
	cfg    Config
	fabric cluster.FabricSpec
	nnNode int
	files  map[string]*fileMeta
	dns    []*datanode
	nextID int64

	// meta carries metadata RPCs and read block streams end-to-end
	// verified; bulk carries the write/repair pipeline unverified, the
	// channel through which silent corruption reaches disk.
	meta *transport.Transport
	bulk *transport.Transport

	// ha, when enabled, replicates the namenode's edit log to standby
	// nodes and fails the metadata endpoint over when its node dies. Nil
	// (the default) keeps the namenode a hardwired single point of
	// failure, the pre-HA behaviour.
	ha *ha.Group

	remoteReads int64
	localReads  int64

	// Recovery counters (chaos hardening)
	readFailovers      int64 // block reads that skipped a dead/faulty replica
	readRetries        int64 // replica read attempts that hit a transient disk error
	blocksRereplicated int64
	bytesRereplicated  int64

	// repairing marks blocks with a re-replication already in flight, so
	// overlapping triggers (death-time, recovery-time, quarantine) don't
	// duplicate the same transfers. sweepRunning/sweepPending coalesce
	// recovery-time namespace sweeps: under node churn every recovery
	// would otherwise stack a full-namespace repair walk, and the
	// resulting storm starves the foreground workload.
	repairing    map[int64]bool
	sweepRunning bool
	sweepPending bool

	// Integrity counters
	corruptDetected int64 // checksum mismatches caught at read time
	quarantined     int64 // corrupt replicas pulled from service
	corruptServed   int64 // tripwire: corrupt blocks handed to a client (must stay 0)

	// Hedged-read state (active only with cfg.Hedge)
	readLat    transport.LatencyEstimator // profile of recent block reads
	hedgesSent int64
	hedgeWins  int64

	// Disk-pressure counters (active only with cfg.TrackDisk)
	redirectedWrites  int64 // replica writes moved to a non-full datanode
	fullWriteFailures int64 // replicas dropped because no datanode had room

	rng *rand.Rand // seeded jitter for the namenode RPC backoff ladder
}

// New creates a filesystem over the cluster, speaking the given socket
// fabric. The namenode runs on node 0; every node hosts a datanode.
func New(c *cluster.Cluster, fabric cluster.FabricSpec, cfg Config) *DFS {
	if cfg.BlockSize <= 0 {
		cfg.BlockSize = 128 << 20
	}
	if cfg.Replication <= 0 {
		cfg.Replication = 3
	}
	if cfg.Replication > c.Size() {
		cfg.Replication = c.Size()
	}
	if cfg.RereplicationDelay <= 0 {
		cfg.RereplicationDelay = 5 * time.Second
	}
	d := &DFS{c: c, cfg: cfg, fabric: fabric, files: map[string]*fileMeta{},
		repairing: map[int64]bool{},
		rng:       rand.New(rand.NewSource(0x0d5f))}
	// Hedge after 2x the windowed median block-read latency: far enough
	// out that healthy reads never trigger it, early enough that a
	// gray-paced replica (several times slower) loses most of its excess.
	d.readLat = transport.LatencyEstimator{Floor: 2 * time.Millisecond, Mult: 2}
	d.meta = transport.New(c, fabric, cfg.Retry, transport.StreamDFSMeta, 0xd5f)
	bulkCfg := cfg.Retry
	bulkCfg.NoVerify = true
	d.bulk = transport.New(c, fabric, bulkCfg, transport.StreamDFSBulk, 0xd5f)
	for i := 0; i < c.Size(); i++ {
		d.dns = append(d.dns, &datanode{node: i, alive: true, blocks: map[int64]*blockMeta{}})
	}
	// Subscribe to cluster node health: a dead node's datanode stops
	// heartbeating and the namenode declares it lost RereplicationDelay
	// later, re-replicating its blocks from surviving replicas. A
	// recovered node rejoins as an empty datanode (its scratch died with
	// it). This shares the liveness channel with rdd and mpi.
	c.Watch(func(node int, h cluster.Health) {
		if node >= len(d.dns) {
			return
		}
		dn := d.dns[node]
		switch h {
		case cluster.Dead:
			if !dn.alive || dn.downByNode {
				return
			}
			dn.downByNode = true
			c.K.After(cfg.RereplicationDelay, func() {
				if dn.downByNode && dn.alive && !c.NodeAlive(node) {
					d.datanodeDied(node)
				}
			})
		case cluster.Alive:
			if !dn.downByNode {
				return
			}
			dn.downByNode = false
			if dn.alive {
				// The node bounced back within the heartbeat window, but
				// its on-disk block copies died with it.
				d.datanodeDied(node)
			}
			dn.alive = true
			// Blocks written while the node was down were born
			// under-replicated (placeReplicas had fewer live targets
			// than the factor); with a datanode back in service, scan
			// the namespace and restore them to full replication.
			d.scheduleRepairSweep()
		}
	})
	return d
}

// datanodeDied is the heartbeat-timeout path: the namenode has concluded
// the datanode is gone, so its blocks are scrubbed and re-replication
// starts immediately (the timeout already elapsed before the conclusion).
func (d *DFS) datanodeDied(node int) {
	lost := d.markDead(node)
	if len(lost) == 0 {
		return
	}
	d.c.K.Spawn("dfs.rereplicate", func(p *sim.Proc) {
		for _, b := range lost {
			d.rereplicate(p, b)
		}
	})
}

// scheduleRepairSweep starts one background namespace repair sweep, or —
// if one is already walking — asks it to walk again when it finishes.
// Recoveries arriving faster than repairs complete therefore share a
// single sweeper instead of stacking one walk per recovery.
func (d *DFS) scheduleRepairSweep() {
	if d.sweepRunning {
		d.sweepPending = true
		return
	}
	d.sweepRunning = true
	d.c.K.Spawn("dfs.recover-repair", func(p *sim.Proc) {
		for {
			d.repairUnderReplicated(p)
			if !d.sweepPending {
				break
			}
			d.sweepPending = false
		}
		d.sweepRunning = false
	})
}

// repairUnderReplicated walks the namespace in deterministic order and
// restores every block with fewer live replicas than the target — the
// recovery-time sweep matching the death-time one, covering blocks that
// were *created* during an outage rather than damaged by it.
func (d *DFS) repairUnderReplicated(p *sim.Proc) {
	names := make([]string, 0, len(d.files))
	for name := range d.files {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f := d.files[name] // the walk blocks in virtual time; files can vanish mid-scan
		if f == nil {
			continue
		}
		for _, b := range f.blocks {
			live := 0
			for _, r := range b.replicas {
				if d.dns[r].alive {
					live++
				}
			}
			if live > 0 && live < d.cfg.Replication {
				d.rereplicate(p, b)
			}
		}
	}
}

// Config returns the active configuration.
func (d *DFS) Config() Config { return d.cfg }

// LocalReads and RemoteReads report how many block reads were served from
// a replica on the client's own node vs across the network — the locality
// statistic behind the paper's §V-B2 observation.
func (d *DFS) LocalReads() int64  { return d.localReads }
func (d *DFS) RemoteReads() int64 { return d.remoteReads }

// ReadFailovers counts block reads that had to skip a dead or faulting
// replica before succeeding.
func (d *DFS) ReadFailovers() int64 { return d.readFailovers }

// ReadRetries counts replica read attempts aborted by transient disk
// errors.
func (d *DFS) ReadRetries() int64 { return d.readRetries }

// BlocksRereplicated and BytesRereplicated report background
// re-replication progress after datanode deaths.
func (d *DFS) BlocksRereplicated() int64 { return d.blocksRereplicated }
func (d *DFS) BytesRereplicated() int64  { return d.bytesRereplicated }

// HedgesSent counts hedged-read launches; HedgeWins counts reads where
// the hedge answered before the primary replica did.
func (d *DFS) HedgesSent() int64 { return d.hedgesSent }
func (d *DFS) HedgeWins() int64  { return d.hedgeWins }

// RedirectedWrites counts replica writes that landed on a different
// datanode because the intended disk was full (TrackDisk +
// WriteRedirect); WritesFailedFull counts replicas dropped because no
// datanode had room.
func (d *DFS) RedirectedWrites() int64 { return d.redirectedWrites }
func (d *DFS) WritesFailedFull() int64 { return d.fullWriteFailures }

// allocReplica claims a replica's bytes on a datanode's disk; trivially
// true when disk tracking is off (or the disk reports no capacity).
func (d *DFS) allocReplica(node int, bytes int64) bool {
	if !d.cfg.TrackDisk {
		return true
	}
	return d.c.Node(node).Scratch.Alloc(bytes)
}

// freeReplica releases a tracked replica's bytes.
func (d *DFS) freeReplica(node int, bytes int64) {
	if d.cfg.TrackDisk {
		d.c.Node(node).Scratch.Free(bytes)
	}
}

// claimRedirect finds a live datanode that is not already a replica of b
// and claims bytes on its disk, rotating deterministically from the
// block's placement start. Returns the node with the bytes claimed, or
// -1 if every candidate is full.
func (d *DFS) claimRedirect(b *blockMeta, bytes int64) int {
	n := d.c.Size()
	start := int((uint64(b.id)*0x9e3779b97f4a7c15)>>33) % n
	for i := 0; i < n; i++ {
		cand := (start + i) % n
		if !d.dns[cand].alive {
			continue
		}
		already := false
		for _, r := range b.replicas {
			if r == cand {
				already = true
				break
			}
		}
		if already {
			continue
		}
		if d.c.Node(cand).Scratch.Alloc(bytes) {
			return cand
		}
	}
	return -1
}

// CorruptDetected counts read-time checksum mismatches; Quarantined
// counts replicas pulled from service because of them. CorruptServed is
// a tripwire — it counts corrupt blocks handed to a client and must stay
// zero as long as read-side verification is on.
func (d *DFS) CorruptDetected() int64 { return d.corruptDetected }
func (d *DFS) Quarantined() int64     { return d.quarantined }
func (d *DFS) CorruptServed() int64   { return d.corruptServed }

// TransportStats exposes the delivery statistics of the verified
// (metadata + read streams) and unverified (write pipeline) transports.
func (d *DFS) TransportStats() (meta, bulk transport.Stats) {
	return d.meta.Stats, d.bulk.Stats
}

// UnderReplicated returns how many blocks currently have fewer live
// replicas than the target factor (clamped to the live datanode count).
func (d *DFS) UnderReplicated() int {
	target := d.cfg.Replication
	liveDNs := 0
	for _, dn := range d.dns {
		if dn.alive {
			liveDNs++
		}
	}
	if target > liveDNs {
		target = liveDNs
	}
	under := 0
	for _, f := range d.files {
		for _, b := range f.blocks {
			live := 0
			for _, r := range b.replicas {
				if d.dns[r].alive {
					live++
				}
			}
			if live < target {
				under++
			}
		}
	}
	return under
}

// EnableHA replicates the namenode's edit log to the standby nodes and
// makes every metadata RPC failover-aware: when the namenode's node dies
// the first live standby replays the journal, collects block reports
// from the surviving datanodes, and takes over; clients park and retry
// instead of failing. The returned group exposes recovery counters.
// Must be called before any traffic; calling it twice panics.
func (d *DFS) EnableHA(standbys []int, cfg ha.Config, seed int64) *ha.Group {
	if d.ha != nil {
		panic("dfs: HA already enabled")
	}
	cands := append([]int{d.nnNode}, standbys...)
	d.ha = ha.New(d.c, d.fabric, "namenode", cands, cfg, seed)
	d.ha.SetOnElect(func(p *sim.Proc, leader int) {
		// Block reports: every surviving datanode re-registers and ships
		// its block inventory to the fresh namenode, rebuilding the block
		// map the journal alone cannot carry (replica placement is
		// datanode ground truth, as in real HDFS).
		for _, dn := range d.dns {
			if dn.node == leader || !dn.alive || !d.c.NodeAlive(dn.node) {
				continue
			}
			if _, err := d.meta.Send(p, dn.node, leader, 64*int64(len(dn.blocks)+1)); err != nil {
				continue // unreachable datanode re-registers on heal; its blocks read as lost
			}
		}
	})
	return d.ha
}

// journal appends n namespace mutations to the replicated edit log under
// the lease the preceding nnRPC resolved — a no-op until EnableHA, so
// the single-namenode configuration is charged nothing. A deposed lease
// (fenced quorum refusal, or an election between the RPC and the append)
// re-resolves the leader and commits under the new epoch, so the client
// is only ever acked for a durably journaled mutation. The undo closure
// rolls the namespace back if an unfenced split-brain suffix holding the
// entry is later truncated.
func (d *DFS) journal(p *sim.Proc, clientNode int, l ha.Lease, n int64, undo func()) {
	if d.ha == nil {
		return
	}
	for {
		if err := d.ha.AppendFor(p, l, n, undo); err == nil {
			return
		}
		l = d.ha.LeaderFor(p, clientNode)
	}
}

// nnRPC charges one metadata round trip from the client to the namenode
// and returns the lease (leader node + fencing epoch) that served it.
// Under a network partition that separates the client from the namenode
// the RPC times out and the operation fails: HDFS offers no service to
// the minority side of a split-brain. With HA enabled the endpoint is
// the replication group's current leader, and a dead namenode parks the
// client through the failover instead of failing it. The lease is
// re-validated after the round trip — epoch fencing: a leader deposed
// while holding the request cannot ack it.
func (d *DFS) nnRPC(p *sim.Proc, clientNode int) (ha.Lease, error) {
	if d.ha == nil {
		// The transport models message faults, not machine death; without
		// HA a dead namenode node means no one is listening at all.
		if !d.c.NodeAlive(d.nnNode) {
			return ha.Lease{}, fmt.Errorf("%w: namenode down", ErrUnavailable)
		}
		if _, err := d.meta.Send(p, clientNode, d.nnNode, 256); err != nil {
			return ha.Lease{}, fmt.Errorf("%w: namenode rpc: %v", ErrUnavailable, err)
		}
		p.Sleep(d.c.Cost.DFSBlockRPC)
		if !d.c.NodeAlive(d.nnNode) {
			return ha.Lease{}, fmt.Errorf("%w: namenode down", ErrUnavailable)
		}
		if _, err := d.meta.Send(p, d.nnNode, clientNode, 256); err != nil {
			return ha.Lease{}, fmt.Errorf("%w: namenode rpc: %v", ErrUnavailable, err)
		}
		return ha.Lease{}, nil
	}
	for attempt := 0; attempt < 64; attempt++ {
		if attempt > 0 {
			// Capped, seeded-jitter exponential backoff, mirroring the
			// transport's ladder: parked clients re-resolving a flapping
			// leader must not stampede it in lockstep.
			p.Sleep(d.rpcBackoff(attempt))
		}
		l := d.ha.LeaderFor(p, clientNode)
		if _, err := d.meta.Send(p, clientNode, l.Node, 256); err != nil {
			continue // leader died or was partitioned away mid-request; re-resolve
		}
		p.Sleep(d.c.Cost.DFSBlockRPC)
		if !d.c.NodeAlive(l.Node) {
			continue // namenode died while holding our request
		}
		if !d.ha.ValidLease(l) {
			continue // deposed while holding our request: fenced off
		}
		if _, err := d.meta.Send(p, l.Node, clientNode, 256); err != nil {
			continue
		}
		return l, nil
	}
	return ha.Lease{}, fmt.Errorf("%w: namenode rpc: retries exhausted", ErrUnavailable)
}

// rpcBackoff returns the pause before RPC retry `attempt` (1-based): the
// transport's ladder, exponential from BackoffBase, capped at BackoffMax,
// with up to JitterFrac of seeded jitter.
func (d *DFS) rpcBackoff(attempt int) time.Duration {
	b := transport.BackoffBase << uint(attempt-1)
	if b > transport.BackoffMax || b <= 0 {
		b = transport.BackoffMax
	}
	return time.Duration(float64(b) * (1 + transport.JitterFrac*d.rng.Float64()))
}

// placeReplicas picks replica nodes for a new block: first on the writer's
// node (if its datanode is alive), the rest spread deterministically.
func (d *DFS) placeReplicas(writerNode int, blockID int64) []int {
	var out []int
	if d.dns[writerNode].alive {
		out = append(out, writerNode)
	}
	n := d.c.Size()
	// Deterministic but scrambled rotation spreads replicas without
	// aligning block i with node i.
	start := int((uint64(blockID)*0x9e3779b97f4a7c15)>>33) % n
	for i := 0; i < n && len(out) < d.cfg.Replication; i++ {
		cand := (start + i) % n
		if cand == writerNode || !d.dns[cand].alive {
			continue
		}
		out = append(out, cand)
	}
	return out
}

// Create writes a new file of the given logical size from clientNode,
// charging the full write pipeline: per-block namenode allocation, a
// socket transfer to each remote replica and a disk write on every
// replica (pipelined, so replicas proceed concurrently).
func (d *DFS) Create(p *sim.Proc, clientNode int, name string, size int64) error {
	if _, ok := d.files[name]; ok {
		return fmt.Errorf("%w: %s", ErrExists, name)
	}
	f := &fileMeta{name: name, size: size}
	for off := int64(0); off < size; off += d.cfg.BlockSize {
		bsz := d.cfg.BlockSize
		if off+bsz > size {
			bsz = size - off
		}
		l, err := d.nnRPC(p, clientNode)
		if err != nil {
			return err
		}
		// The file enters the namespace only once the namenode has
		// answered the first allocation — a client cut off before that
		// must not leave a phantom entry behind.
		if f.blocks == nil {
			d.files[name] = f
		}
		d.journal(p, clientNode, l, 1, func() { delete(d.files, name) })
		b := &blockMeta{id: d.nextID, offset: off, size: bsz,
			replicas: d.placeReplicas(clientNode, d.nextID), crc: blockCRC(d.nextID)}
		d.nextID++
		f.blocks = append(f.blocks, b)
		// Pipelined replica writes: all replicas work concurrently; the
		// client waits for the slowest. The pipeline is the unverified
		// channel — a frame corrupted in flight lands on disk as a
		// silently bit-rotted copy, caught only by read-time checksums.
		wg := sim.NewWaitGroup(d.c.K)
		for _, rep := range append([]int(nil), b.replicas...) {
			rep := rep
			wg.Add(1)
			d.c.SpawnOnNode(rep, "dfs.write", func(wp *sim.Proc) {
				defer wg.Done()
				target := rep
				if !d.allocReplica(target, bsz) {
					// The intended disk is full. Redirect the pipeline
					// stage to a datanode with room, or drop the replica
					// (the file is born under-replicated at this block).
					alt := -1
					if d.cfg.WriteRedirect {
						alt = d.claimRedirect(b, bsz)
					}
					if alt < 0 {
						d.fullWriteFailures++
						b.dropReplica(rep)
						return
					}
					d.redirectedWrites++
					b.swapReplica(rep, alt)
					target = alt
				}
				if target != clientNode {
					res, err := d.bulk.Send(wp, clientNode, target, bsz)
					if err != nil {
						// The stream never reached the datanode.
						b.dropReplica(target)
						d.freeReplica(target, bsz)
						return
					}
					if res.Corrupted {
						b.setCorrupt(target)
					}
				}
				d.c.Node(target).Scratch.Write(wp, bsz)
				d.dns[target].blocks[b.id] = b
			})
		}
		p.Sleep(d.c.Cost.DFSStreamSetup)
		wg.Wait(p)
	}
	if size <= 0 {
		d.files[name] = f // empty file: pure namespace entry, no allocation round trips
	}
	return nil
}

// Stat returns the file's size.
func (d *DFS) Stat(name string) (int64, error) {
	f, ok := d.files[name]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	return f.size, nil
}

// Locations returns block extents and live replica nodes, the interface
// locality-aware schedulers (MapReduce, the RDD engine) consume.
func (d *DFS) Locations(name string) ([]BlockLoc, error) {
	f, ok := d.files[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	out := make([]BlockLoc, 0, len(f.blocks))
	for _, b := range f.blocks {
		loc := BlockLoc{Offset: b.offset, Size: b.size}
		for _, r := range b.replicas {
			if d.dns[r].alive {
				loc.Nodes = append(loc.Nodes, r)
			}
		}
		out = append(out, loc)
	}
	return out, nil
}

// Read charges a read of [offset, offset+length) from clientNode: per
// covered block a namenode lookup, stream setup, a disk read at the chosen
// replica (local preferred), a socket transfer when remote, and client-
// side checksum verification. Datanode failures are transparent as long
// as any replica survives — the property the paper credits for Spark's
// job-level fault tolerance on HDFS (§V-B2, §VI-D).
func (d *DFS) Read(p *sim.Proc, clientNode int, name string, offset, length int64) error {
	f, ok := d.files[name]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	if offset < 0 || offset+length > f.size {
		return fmt.Errorf("dfs: read [%d,%d) outside %s (%d bytes)", offset, offset+length, name, f.size)
	}
	end := offset + length
	for _, b := range f.blocks {
		if b.offset+b.size <= offset || b.offset >= end {
			continue
		}
		lo := max64(offset, b.offset)
		hi := min64(end, b.offset+b.size)
		n := hi - lo
		if _, err := d.nnRPC(p, clientNode); err != nil {
			return err
		}
		var served int
		var failover bool
		if d.cfg.Hedge {
			served, failover = d.readBlockHedged(p, b, clientNode, n)
		} else {
			served, failover = d.readBlock(p, b, clientNode, n)
		}
		if served < 0 {
			return fmt.Errorf("%w: block %d of %s", ErrUnavailable, b.id, name)
		}
		if b.corrupt[served] {
			d.corruptServed++ // unreachable while verification is on
		}
		if failover {
			d.readFailovers++
		}
		if served == clientNode {
			d.localReads++
		} else {
			d.remoteReads++
		}
	}
	return nil
}

// errReadCancelled marks a hedged-read branch torn down because the
// other branch already served the client; it is not a replica failure.
var errReadCancelled = errors.New("dfs: read branch cancelled")

// tryReplica plays one replica's serve path for n bytes of block b on
// behalf of clientNode; a non-nil error means the client fails over.
// cancelled (nil for unhedged reads) is polled between charged steps: a
// losing hedge branch abandons the stream at the next step boundary
// instead of pushing a now-useless transfer through the client's NIC.
func (d *DFS) tryReplica(p *sim.Proc, b *blockMeta, clientNode, rep int, n int64, cancelled func() bool) error {
	// A datanode the namenode already declared dead, one on a crashed
	// node the namenode has not noticed yet, or one cut off by a network
	// partition: either way the client's stream setup fails and it moves
	// on to the next replica.
	if !d.dns[rep].alive || !d.c.NodeAlive(rep) || !d.c.Reachable(clientNode, rep) {
		return fmt.Errorf("%w: datanode %d unreachable", ErrUnavailable, rep)
	}
	p.Sleep(d.c.Cost.DFSStreamSetup)
	// The datanode path — a JVM stream plus a local socket hop and
	// inline checksumming — realizes well under raw device bandwidth. A
	// transient disk fault aborts the stream; the client retries against
	// the next replica.
	if err := d.c.Node(rep).Scratch.ReadChecked(p, n, d.c.Cost.DFSReadFactor); err != nil {
		d.readRetries++
		return err
	}
	if cancelled != nil && cancelled() {
		return errReadCancelled
	}
	if rep != clientNode {
		// Remote stream rides the verified transport: wire-level loss
		// and corruption are retried; a partition or sustained loss
		// fails the stream over to another replica.
		if _, err := d.meta.Send(p, rep, clientNode, n); err != nil {
			return err
		}
	}
	// Client-side CRC32C pass over the received bytes, then the verdict:
	// a checksum mismatch means this replica's on-disk copy is
	// bit-rotted — quarantine it, repair in the background, and fail
	// over rather than deliver bad bytes.
	p.Sleep(cluster.ScanCost(n, d.c.Cost.DFSChecksumBW))
	if b.replicaCRC(rep) != b.crc {
		d.corruptDetected++
		d.quarantine(b, rep)
		return fmt.Errorf("dfs: replica %d of block %d failed checksum", rep, b.id)
	}
	return nil
}

// readBlock serves n bytes of b sequentially, failing over replica by
// replica — the pre-hedging read path, byte-identical to it.
func (d *DFS) readBlock(p *sim.Proc, b *blockMeta, clientNode int, n int64) (served int, failover bool) {
	for _, rep := range d.replicaOrder(b, clientNode) {
		if err := d.tryReplica(p, b, clientNode, rep, n, nil); err != nil {
			failover = true
			continue
		}
		return rep, failover
	}
	return -1, failover
}

// readBlockHedged serves n bytes of b with hedging: a primary branch
// walks the replica order as usual, and if it outlives the adaptive
// percentile delay learned from recent reads, a hedge branch starts one
// replica further along; the first success wins and the loser's
// in-flight work is simply wasted effort, exactly as in a real cluster.
// Replicas on currently-ejected nodes are demoted to the back of the
// order before anything fires.
func (d *DFS) readBlockHedged(p *sim.Proc, b *blockMeta, clientNode int, n int64) (int, bool) {
	order := d.replicaOrder(b, clientNode)
	if len(order) == 0 {
		return -1, false
	}
	var good, bad []int
	for _, r := range order {
		if d.meta.Ejected(r) {
			bad = append(bad, r)
		} else {
			good = append(good, r)
		}
	}
	order = append(good, bad...)

	type outcome struct {
		rep      int
		failover bool
	}
	start := p.Now()
	fut := &sim.Future[outcome]{}
	resolved := false
	outstanding := 0
	complete := func(o outcome) {
		if !resolved {
			resolved = true
			fut.Complete(o)
		}
	}
	lost := func() bool { return resolved }
	branch := func(name string, first int, hedge bool) {
		// The branch chases replicas starting at order[first]: home it on
		// that replica's shard.
		d.c.SpawnOnNode(order[first%len(order)], name, func(wp *sim.Proc) {
			fo := false
			for i := 0; i < len(order) && !resolved; i++ {
				rep := order[(first+i)%len(order)]
				err := d.tryReplica(wp, b, clientNode, rep, n, lost)
				if err != nil {
					if errors.Is(err, errReadCancelled) {
						return
					}
					fo = true
					continue
				}
				if !resolved {
					if hedge {
						d.hedgeWins++
					}
					d.readLat.Observe(wp.Now().Sub(start))
					complete(outcome{rep: rep, failover: fo})
				}
				return
			}
			outstanding--
			if outstanding == 0 {
				complete(outcome{rep: -1, failover: true})
			}
		})
	}
	outstanding++
	branch("dfs.read", 0, false)
	if len(order) > 1 {
		if delay := d.readLat.Delay(); delay > 0 {
			outstanding++ // reserve the hedge slot before the timer fires
			d.c.K.After(delay, func() {
				if resolved {
					outstanding--
					return
				}
				d.hedgesSent++
				branch("dfs.read-hedge", 1, true)
			})
		}
	}
	o := fut.Wait(p)
	return o.rep, o.failover
}

// quarantine pulls a silently corrupted replica out of service and
// schedules a background repair from an intact copy — the same
// re-replication machinery that handles datanode death, triggered here
// by integrity loss rather than liveness loss.
func (d *DFS) quarantine(b *blockMeta, rep int) {
	b.dropReplica(rep)
	delete(d.dns[rep].blocks, b.id)
	d.freeReplica(rep, b.size)
	d.quarantined++
	d.c.K.Spawn("dfs.repair", func(p *sim.Proc) {
		d.rereplicate(p, b)
	})
}

// CorruptReplica flips the stored copy of block blockIdx of name on the
// given node to a silently bit-rotted state — the test/chaos hook for
// at-rest corruption. Returns false if no such replica exists.
func (d *DFS) CorruptReplica(name string, blockIdx, node int) bool {
	f, ok := d.files[name]
	if !ok || blockIdx < 0 || blockIdx >= len(f.blocks) {
		return false
	}
	b := f.blocks[blockIdx]
	for _, r := range b.replicas {
		if r == node {
			b.setCorrupt(node)
			return true
		}
	}
	return false
}

// replicaOrder lists a block's replicas in client preference order: the
// client's own node first, then placement order.
func (d *DFS) replicaOrder(b *blockMeta, clientNode int) []int {
	out := make([]int, 0, len(b.replicas))
	for _, r := range b.replicas {
		if r == clientNode {
			out = append(out, r)
		}
	}
	for _, r := range b.replicas {
		if r != clientNode {
			out = append(out, r)
		}
	}
	return out
}

// KillDatanode kills a datanode process directly (the node stays up) —
// the reproducible equivalent of stopping one datanode daemon. Blocks it
// held survive on other replicas; after the heartbeat timeout the
// namenode re-replicates under-replicated blocks in the background. Node
// crashes take the same markDead path via the cluster health watcher.
func (d *DFS) KillDatanode(node int) {
	lost := d.markDead(node)
	if len(lost) == 0 {
		return
	}
	d.c.K.After(d.cfg.RereplicationDelay, func() {
		d.c.K.Spawn("dfs.rereplicate", func(p *sim.Proc) {
			for _, b := range lost {
				d.rereplicate(p, b)
			}
		})
	})
}

// markDead is the single datanode-death path: the datanode goes offline,
// its node is scrubbed from every block's replica list (so a later
// revival does not resurrect stale copies) and the lost blocks are
// returned in deterministic id order for re-replication.
func (d *DFS) markDead(node int) []*blockMeta {
	dn := d.dns[node]
	if !dn.alive {
		return nil
	}
	dn.alive = false
	lost := make([]*blockMeta, 0, len(dn.blocks))
	for _, b := range dn.blocks {
		lost = append(lost, b)
	}
	sort.Slice(lost, func(i, j int) bool { return lost[i].id < lost[j].id })
	for _, b := range lost {
		keep := b.replicas[:0]
		for _, r := range b.replicas {
			if r != node {
				keep = append(keep, r)
			}
		}
		b.replicas = keep
		// The copies are scrubbed; a revived node rejoins with an empty
		// disk, so their tracked bytes are released.
		d.freeReplica(node, b.size)
	}
	dn.blocks = map[int64]*blockMeta{}
	return lost
}

// rereplicate copies a block from a live, intact replica to nodes that
// lack it until the replication factor is restored (or no candidates
// remain). Corrupt replicas still count toward placement (they occupy a
// datanode) but are never used as a copy source.
func (d *DFS) rereplicate(p *sim.Proc, b *blockMeta) {
	if d.repairing[b.id] {
		return
	}
	d.repairing[b.id] = true
	defer delete(d.repairing, b.id)
	for {
		src := -1
		have := map[int]bool{}
		var alive []int
		for _, r := range b.replicas {
			if d.dns[r].alive {
				if src < 0 && !b.corrupt[r] {
					src = r
				}
				have[r] = true
				alive = append(alive, r)
			}
		}
		if src < 0 || len(alive) >= d.cfg.Replication {
			b.replicas = alive
			return
		}
		dst := -1
		for i := 0; i < d.c.Size(); i++ {
			cand := (src + 1 + i) % d.c.Size()
			if !d.dns[cand].alive || have[cand] {
				continue
			}
			// A full disk is never a re-replication target (the claim
			// doubles as the reservation when tracking is on).
			if !d.allocReplica(cand, b.size) {
				continue
			}
			dst = cand
			break
		}
		if dst < 0 {
			b.replicas = alive
			return
		}
		d.c.Node(src).Scratch.Read(p, b.size)
		res, err := d.bulk.Send(p, src, dst, b.size)
		if err != nil {
			// The copy never landed (partition or sustained loss); leave
			// the block under-replicated rather than spin. The next
			// quarantine or death trigger retries the repair.
			d.freeReplica(dst, b.size)
			b.replicas = alive
			return
		}
		d.c.Node(dst).Scratch.Write(p, b.size)
		d.dns[dst].blocks[b.id] = b
		if res.Corrupted {
			// Repair traffic is as vulnerable as the original write
			// pipeline: the fresh copy can itself be bit-rotted, to be
			// caught (and re-quarantined) by a future read.
			b.setCorrupt(dst)
		}
		b.replicas = append(alive, dst)
		d.blocksRereplicated++
		d.bytesRereplicated += b.size
	}
}

// ReplicasOf returns the live replica count of every block of a file (for
// tests and the replication ablation).
func (d *DFS) ReplicasOf(name string) ([]int, error) {
	f, ok := d.files[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	var out []int
	for _, b := range f.blocks {
		n := 0
		for _, r := range b.replicas {
			if d.dns[r].alive {
				n++
			}
		}
		out = append(out, n)
	}
	return out, nil
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// Delete removes a file and its blocks from all datanodes (metadata-only
// cost; block reclamation is asynchronous in real HDFS and free here).
// The RPC happens before the namespace is consulted: a client that
// cannot reach the namenode learns nothing, not even ErrNotFound.
func (d *DFS) Delete(p *sim.Proc, clientNode int, name string) error {
	l, err := d.nnRPC(p, clientNode)
	if err != nil {
		return err
	}
	f, ok := d.files[name]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	d.journal(p, clientNode, l, 1, func() {
		d.files[name] = f
		for _, b := range f.blocks {
			for _, r := range b.replicas {
				d.dns[r].blocks[b.id] = b
			}
		}
	})
	for _, b := range f.blocks {
		for _, r := range b.replicas {
			if _, held := d.dns[r].blocks[b.id]; held {
				d.freeReplica(r, b.size)
			}
			delete(d.dns[r].blocks, b.id)
		}
	}
	delete(d.files, name)
	return nil
}

// Rename moves a file within the namespace (a pure namenode operation —
// one of HDFS's few cheap mutations). Like Delete, the RPC precedes the
// namespace lookups so partition and failover semantics cover the whole
// call.
func (d *DFS) Rename(p *sim.Proc, clientNode int, from, to string) error {
	l, err := d.nnRPC(p, clientNode)
	if err != nil {
		return err
	}
	f, ok := d.files[from]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, from)
	}
	if _, dup := d.files[to]; dup {
		return fmt.Errorf("%w: %s", ErrExists, to)
	}
	d.journal(p, clientNode, l, 1, func() {
		delete(d.files, to)
		f.name = from
		d.files[from] = f
	})
	delete(d.files, from)
	f.name = to
	d.files[to] = f
	return nil
}

// List returns the file names under the given prefix, sorted.
func (d *DFS) List(prefix string) []string {
	var out []string
	for name := range d.files {
		if strings.HasPrefix(name, prefix) {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}
