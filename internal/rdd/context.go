// Package rdd models a Spark-style engine (Spark 1.5 in the paper):
// lazily-evaluated resilient distributed datasets with lineage, a DAG
// scheduler that cuts stages at shuffle dependencies, a locality-aware
// task scheduler over a driver/executor architecture, a block manager with
// storage levels and eviction, broadcast variables, and a pluggable
// shuffle transport.
//
// Two properties central to the paper's experiments are modelled
// faithfully:
//
//   - Orchestration always uses sockets. The RDMA shuffle plugin (Lu et
//     al., the paper's [35]) accelerates only shuffle payloads, so jobs
//     that barely shuffle see no benefit from it (Fig 3, Fig 6), while
//     shuffle-heavy jobs do (Fig 7).
//
//   - Lost partitions are recomputed from lineage rather than restored
//     from checkpoints: kill an executor and the scheduler re-runs just
//     the tasks needed to rebuild what was lost (§VI-D).
package rdd

import (
	"fmt"
	"reflect"
	"time"

	"hpcbd/internal/cluster"
	"hpcbd/internal/ha"
	"hpcbd/internal/sim"
	"hpcbd/internal/transport"
)

// StorageLevel mirrors Spark's persistence levels.
type StorageLevel int

// Supported storage levels.
const (
	None StorageLevel = iota
	MemoryOnly
	MemoryAndDisk
	DiskOnly
)

func (l StorageLevel) String() string {
	switch l {
	case None:
		return "NONE"
	case MemoryOnly:
		return "MEMORY_ONLY"
	case MemoryAndDisk:
		return "MEMORY_AND_DISK"
	case DiskOnly:
		return "DISK_ONLY"
	}
	return fmt.Sprintf("StorageLevel(%d)", int(l))
}

// Config tunes a Spark application.
type Config struct {
	// CoresPerExecutor is the task slots per executor (one executor per
	// node, Spark's coarse-grained mode).
	CoresPerExecutor int
	// ExecutorMemory bounds the block manager's memory store.
	ExecutorMemory int64
	// ShuffleTransport carries shuffle payloads: IPoIB for default Spark,
	// RDMAVerbsFDR for the RDMA plugin. Control traffic ignores this.
	ShuffleTransport cluster.FabricSpec
	// CtrlTransport carries orchestration (task launch/status); always a
	// socket path in real deployments.
	CtrlTransport cluster.FabricSpec
	// Scale is the logical/physical data ratio of sampled workloads; all
	// per-record costs and sizes are multiplied by it so MB-sized
	// samples are charged as the paper's GB-sized inputs.
	Scale float64
	// MaxTaskRetries bounds per-task rescheduling on executor failure.
	MaxTaskRetries int

	// HeartbeatTimeout is how long after a node death the driver declares
	// its executor lost (spark.network.timeout). Until it expires the
	// scheduler keeps assigning tasks to the dead executor and their
	// output is discarded as zombie work — exactly the detection-latency
	// cost real Spark pays.
	HeartbeatTimeout time.Duration

	// Speculation enables straggler mitigation: once speculationQuantile
	// of a stage's tasks have finished, any task running longer than
	// speculationMultiplier x the median duration gets a second copy on a
	// different executor; the first copy to finish wins. Off by default
	// (as in Spark) so fault-free timings are unchanged.
	Speculation         bool
	SpeculationInterval time.Duration

	// BlacklistThreshold excludes an executor from scheduling after this
	// many genuine (non-loss) task failures; 0 disables blacklisting.
	// Blacklisted executors are still used as a last resort when every
	// other executor is gone.
	BlacklistThreshold int

	// ShuffleRetry tunes the reliable transport under shuffle fetches;
	// zero fields take the transport defaults.
	ShuffleRetry transport.Config
	// FetchRetryWait is the pause after an exhausted fetch before the
	// failure is reported and lineage recomputation kicks in
	// (spark.shuffle.io.retryWait's role). Only fault paths pay it.
	FetchRetryWait time.Duration

	// HedgedFetch enables hedged shuffle fetches: a remote fetch that
	// outlives the transport's adaptive percentile delay fires a
	// duplicate transfer on an independent stream (independent fault
	// coins) and the first copy to land wins. A source the transport has
	// ejected as a latency outlier fast-fails the primary and the hedge
	// is promoted immediately; a fetch that fails both channels skips
	// FetchRetryWait and reports the failure at once. Off by default,
	// leaving the fetch path byte-identical.
	HedgedFetch bool

	// TaskMemory enables finite-memory execution: each task claims this
	// many bytes of its node's RAM for its working set for the task's
	// duration, and memory-resident cache blocks are charged against
	// node RAM too — tasks, caches and external hogs then compete for
	// the same finite bytes. A claim the node cannot satisfy OOM-kills
	// the task (a genuine, countable failure) unless OOMMitigate is on.
	// Zero (the default) disables all node-memory accounting, keeping
	// every pre-overload code path byte-identical.
	TaskMemory int64
	// OOMMitigate enables the graceful-degradation path for memory
	// pressure. A task that cannot claim its working set first has its
	// executor spill cached blocks to disk (a blockManager migration —
	// the data survives, unlike an eviction) and retries the claim; if
	// RAM is still short it runs in external-spill mode, claiming
	// whatever is free and streaming the shortfall through scratch —
	// extra disk I/O instead of death. Retries of OOM-killed tasks
	// escalate their memory request (doubling, capped at half the node)
	// so placement — which becomes memory-aware, skipping executors
	// whose nodes cannot fit the request — steers them to nodes with
	// headroom. Off by default.
	OOMMitigate bool
	// FetchWindow, when positive, replaces the serial reduce-side fetch
	// loop with a credit-based bounded window: up to FetchWindow
	// fetches are in flight concurrently, each holding one credit and
	// (under TaskMemory accounting) its buffer's node RAM for its
	// lifetime, so a slow consumer's memory stays bounded instead of
	// ballooning until the node OOMs. Zero (the default) keeps the
	// pre-overload serial fetch path byte-identical.
	FetchWindow int
}

// DefaultConfig returns the configuration used by the experiments: 8
// cores/executor (the paper runs 8 or 16 processes per node), IPoIB
// everywhere, no scaling.
func DefaultConfig() Config {
	return Config{
		CoresPerExecutor:   8,
		ExecutorMemory:     96 << 30,
		ShuffleTransport:   cluster.IPoIB(),
		CtrlTransport:      cluster.IPoIB(),
		Scale:              1,
		MaxTaskRetries:     4,
		HeartbeatTimeout:   time.Second,
		BlacklistThreshold: 3,
	}
}

// Context is the driver: it owns the DAG, the executors and the shuffle
// registry. Create one per application with NewContext.
type Context struct {
	C    *cluster.Cluster
	Conf Config
	// parallelism is the partition count used when callers pass 0:
	// executors x cores.
	parallelism int

	driverNode int
	executors  []*executor
	nextRDD    int
	nextShuf   int
	shuffles   map[int]*shuffleState
	broadcasts int
	shuffleNet *transport.Transport
	hedgeNet   *transport.Transport // duplicate-transfer channel (HedgedFetch)

	// haGroup, when enabled, journals scheduler state to standby nodes
	// and relocates the driver when its node dies. driverGen counts
	// driver incarnations (tasks launched by a dead incarnation report
	// driverLost); driverDown snapshots the driver node's crash epoch so
	// a bounce of the same node is detected too; driverEpoch snapshots
	// the group's fencing epoch so a driver deposed by a partition — node
	// up, lease gone — is also detected.
	haGroup     *ha.Group
	driverGen   int
	driverDown  int
	driverEpoch int64
	// pools holds per-record-type free lists of retired partition
	// buffers (see recycle.go); values are *[][]T keyed by reflect type.
	pools map[reflect.Type]any
	// fusedLen remembers the last fused output length per record type —
	// the capacity hint for the next fused compute of that type, which
	// expanding operators (FlatMap) need because their output overruns
	// the base-length hint on every partition.
	fusedLen map[reflect.Type]int

	// Stats
	TasksLaunched  int64
	TasksRetried   int64
	StagesRun      int64
	JobsRun        int64
	ShuffleBytes   int64 // logical bytes fetched across the network
	RecomputedPart int64 // partitions rebuilt from lineage
	FetchFailures  int64 // shuffle fetches that exhausted transport retries

	// Recovery stats (chaos hardening)
	ExecutorsLost        int64 // executors declared dead (manual kill or heartbeat timeout)
	ExecutorsBlacklisted int64 // executors excluded after repeated task failures
	SpeculativeLaunched  int64 // duplicate copies started for stragglers
	SpeculativeWins      int64 // stragglers where the duplicate finished first
	DriverFailovers      int64 // driver relocations to a standby node (HA)

	// Gray-failure mitigation stats (HedgedFetch)
	HedgesSent int64 // duplicate shuffle transfers fired
	HedgeWins  int64 // fetches where the duplicate landed first

	// Overload stats (TaskMemory / OOMMitigate / FetchWindow)
	OOMKills    int64 // tasks killed by a working-set claim the node refused
	OOMRetries  int64 // re-dispatches of OOM-killed tasks with an escalated request
	TaskSpills  int64 // tasks that ran in external-spill mode instead of dying
	SpillBytes  int64 // working-set bytes streamed through scratch by spill-mode tasks
	FetchStalls int64 // bounded-window fetches that waited for a credit

	// memReqs records the escalated per-task memory request after OOM
	// kills (OOMMitigate), keyed by stage name and partition, so the
	// retry — a fresh runTasks dispatch — asks for more than the
	// incarnation that died.
	memReqs map[string]int64
}

// NewContext creates a Spark application over the cluster. The driver
// runs on node 0 and one executor is started per node.
func NewContext(c *cluster.Cluster, conf Config) *Context {
	if conf.CoresPerExecutor <= 0 {
		conf.CoresPerExecutor = 8
	}
	if conf.ExecutorMemory <= 0 {
		conf.ExecutorMemory = 96 << 30
	}
	if conf.Scale <= 0 {
		conf.Scale = 1
	}
	if conf.MaxTaskRetries <= 0 {
		conf.MaxTaskRetries = 4
	}
	if conf.HeartbeatTimeout <= 0 {
		conf.HeartbeatTimeout = time.Second
	}
	if conf.SpeculationInterval <= 0 {
		conf.SpeculationInterval = 100 * time.Millisecond
	}
	if conf.ShuffleTransport.Bandwidth == 0 {
		conf.ShuffleTransport = cluster.IPoIB()
	}
	if conf.CtrlTransport.Bandwidth == 0 {
		conf.CtrlTransport = cluster.IPoIB()
	}
	if conf.FetchRetryWait <= 0 {
		conf.FetchRetryWait = 100 * time.Millisecond
	}
	ctx := &Context{C: c, Conf: conf, parallelism: c.Size() * conf.CoresPerExecutor,
		shuffles: map[int]*shuffleState{}, pools: map[reflect.Type]any{},
		fusedLen: map[reflect.Type]int{}, memReqs: map[string]int64{}}
	ctx.shuffleNet = transport.New(c, conf.ShuffleTransport, conf.ShuffleRetry, transport.StreamShuffle, 0x5a7c)
	if conf.HedgedFetch {
		// The hedge channel is the escape hatch for ejected or gray
		// primaries — it must never eject peers itself, or a source could
		// become unreachable on both channels at once. It is likewise
		// exempt from the shared retry budget: the budget caps primary
		// retry amplification, and denying the recovery path too would
		// convert budget pressure straight into fetch failures.
		hedgeCfg := conf.ShuffleRetry
		hedgeCfg.EjectFactor = 0
		hedgeCfg.Budget = nil
		ctx.hedgeNet = transport.New(c, conf.ShuffleTransport, hedgeCfg, transport.StreamShuffleHedge, 0x5a7c)
	}
	for i := 0; i < c.Size(); i++ {
		bm := newBlockManager(conf.ExecutorMemory)
		if conf.TaskMemory > 0 {
			bm.node = c.Node(i)
		}
		ctx.executors = append(ctx.executors, &executor{
			id:    i,
			node:  i,
			alive: true,
			cores: sim.NewResource(c.K, fmt.Sprintf("exec%d.cores", i), int64(conf.CoresPerExecutor)),
			bm:    bm,
		})
	}
	// Subscribe to cluster node health: when a node dies, the executor's
	// heartbeats stop and the driver declares it lost HeartbeatTimeout
	// later; when the node comes back, a fresh executor is re-registered.
	// This is the single liveness channel shared with dfs and mpi, so all
	// layers agree on who is dead.
	c.Watch(func(node int, h cluster.Health) {
		if node >= len(ctx.executors) {
			return
		}
		e := ctx.executors[node]
		switch h {
		case cluster.Dead:
			if !e.alive || e.downByNode {
				return
			}
			e.downByNode = true
			c.K.After(ctx.Conf.HeartbeatTimeout, func() {
				if e.downByNode && e.alive && !c.NodeAlive(e.node) {
					ctx.loseExecutor(e.id)
				}
			})
		case cluster.Alive:
			if !e.downByNode {
				return
			}
			e.downByNode = false
			if e.alive {
				// The node bounced back within the heartbeat timeout,
				// but the executor process still died with it.
				ctx.loseExecutor(e.id)
			}
			ctx.RestartExecutor(e.id)
		}
	})
	return ctx
}

// executor is one worker JVM.
type executor struct {
	id    int
	node  int
	alive bool
	cores *sim.Resource
	bm    *blockManager

	// broadcast ids already resident on this executor
	bcSeen map[int]bool

	epoch       int  // incremented on every loss; tasks detect restarts
	failures    int  // genuine task failures charged to this executor
	blacklisted bool // excluded from scheduling after repeated failures
	downByNode  bool // node death observed, loss pending/attributed
}

// KillExecutor kills an executor process directly (the node stays up) —
// the reproducible equivalent of `kill -9` on one worker JVM. It routes
// through the same loss path the node-health watcher uses, so rdd, dfs
// and cluster agree on liveness; the only difference from a node crash is
// that there is no heartbeat-detection delay (the process exit is
// observed immediately, as in real Spark).
func (ctx *Context) KillExecutor(id int) {
	ctx.loseExecutor(id)
}

// loseExecutor is the single executor-death path: cached blocks and
// shuffle outputs are dropped and future tasks avoid the executor.
// Everything it held will be recomputed from lineage on demand.
func (ctx *Context) loseExecutor(id int) {
	e := ctx.executors[id]
	if !e.alive {
		return
	}
	e.alive = false
	e.epoch++
	ctx.ExecutorsLost++
	e.bm.dropAll()
	for _, ss := range ctx.shuffles {
		for m, out := range ss.outputs {
			if out != nil && out.exec == id {
				ss.outputs[m] = nil
			}
		}
	}
}

// RestartExecutor brings a fresh executor up on the same node (empty
// caches, clean failure record).
func (ctx *Context) RestartExecutor(id int) {
	e := ctx.executors[id]
	e.alive = true
	e.bm = newBlockManager(ctx.Conf.ExecutorMemory)
	if ctx.Conf.TaskMemory > 0 {
		e.bm.node = ctx.C.Node(e.node)
	}
	e.bcSeen = nil
	e.failures = 0
	e.blacklisted = false
	e.downByNode = false
}

// aliveExecutors returns live executor ids in deterministic order.
func (ctx *Context) aliveExecutors() []int {
	var out []int
	for _, e := range ctx.executors {
		if e.alive {
			out = append(out, e.id)
		}
	}
	return out
}

// taskContext is the per-task runtime handle threaded through compute.
type taskContext struct {
	ctx  *Context
	exec *executor
	p    *sim.Proc
	// epoch is the executor incarnation the task started under; shuffle
	// registration checks it so zombie tasks can't publish outputs into a
	// restarted executor.
	epoch int
}

// live reports whether the task's executor incarnation is still current.
func (tc *taskContext) live() bool {
	return tc.exec.alive && tc.exec.epoch == tc.epoch
}

// chargeRecords charges framework per-record cost for n physical records,
// scaled to logical volume.
func (tc *taskContext) chargeRecords(n int) {
	if d := tc.recordsDur(n); d > 0 {
		tc.p.Sleep(d)
	}
}

// deferRecords accumulates the framework per-record cost for n records
// into the process's charge accumulator instead of sleeping immediately:
// the duration (computed now, so straggler stretch reads the same state
// chargeRecords would) elapses in full at the task's next kernel event.
// Use it wherever the charge is immediately followed by more task work —
// consecutive accounting sleeps collapse into one kernel event.
func (tc *taskContext) deferRecords(n int) {
	tc.p.Charge(tc.recordsDur(n))
}

// recordsDur is the virtual duration chargeRecords(n) sleeps — exposed so
// offloaded payloads can overlap host work with exactly that accounting
// window (identical event footprint either way).
func (tc *taskContext) recordsDur(n int) time.Duration {
	if n <= 0 {
		return 0
	}
	d := time.Duration(float64(tc.ctx.C.Cost.SparkPerRecord) * float64(n) * tc.ctx.Conf.Scale)
	return tc.stretch(d)
}

// stretch applies the executor node's straggler compute multiplier.
func (tc *taskContext) stretch(d time.Duration) time.Duration {
	if cs := tc.ctx.C.Node(tc.exec.node).ComputeScale(); cs != 1 {
		return time.Duration(float64(d) * cs)
	}
	return d
}

// chargeCompute charges user compute: n physical records at per-record
// cost d (already a JVM-rate figure), scaled to logical volume. The charge
// is deferred to the next kernel event so it merges with adjacent
// accounting sleeps.
func (tc *taskContext) chargeCompute(n int, d time.Duration) {
	if n <= 0 || d <= 0 {
		return
	}
	tc.p.Charge(tc.stretch(time.Duration(float64(d) * float64(n) * tc.ctx.Conf.Scale)))
}

// logicalBytes converts a physical record count and per-record logical
// size into charged bytes.
func (tc *taskContext) logicalBytes(n int, recBytes int64) int64 {
	return int64(float64(n) * tc.ctx.Conf.Scale * float64(recBytes))
}

// Broadcast represents a broadcast variable: shipped to each executor at
// most once, then read locally (the paper cites Broadcast variables as one
// of the few executor-side sharing mechanisms, §VI-B).
type Broadcast[T any] struct {
	ctx   *Context
	id    int
	Value T
	bytes int64
}

// NewBroadcast registers v (of the given logical size) for broadcast.
func NewBroadcast[T any](ctx *Context, v T, bytes int64) *Broadcast[T] {
	ctx.broadcasts++
	return &Broadcast[T]{ctx: ctx, id: ctx.broadcasts, Value: v, bytes: bytes}
}

// Get fetches the value on an executor, paying the driver transfer the
// first time this executor sees it.
func (b *Broadcast[T]) Get(tc *taskContext) T {
	e := tc.exec
	if e.bcSeen == nil {
		e.bcSeen = map[int]bool{}
	}
	if !e.bcSeen[b.id] {
		e.bcSeen[b.id] = true
		tc.ctx.C.Xfer(tc.p, tc.ctx.driverNode, e.node, b.bytes, tc.ctx.Conf.CtrlTransport)
		tc.p.Charge(tc.ctx.C.Cost.DeserTime(b.bytes))
	}
	return b.Value
}

// ExecutorStats exposes per-executor block-manager counters for
// diagnostics and ablations.
type ExecutorStats struct {
	id int
	bm *blockManager
}

// Evictions returns cache evictions on this executor.
func (e ExecutorStats) Evictions() int64 { return e.bm.Evictions }

// ShuffleTransportStats exposes the reliable-delivery statistics of the
// shuffle fetch path (retries, timeouts, corrupt frames dropped).
func (ctx *Context) ShuffleTransportStats() transport.Stats {
	return ctx.shuffleNet.Stats
}

// EnableDriverHA journals the driver's scheduler state (stage commits
// and map-output registrations) to the standby nodes and relocates the
// driver to the first live standby when its node dies. A recovered
// driver replays the journal, so only unfinished stages are
// re-dispatched; executors re-register with the new driver instead of
// deadlocking against a dead one. Call before running jobs; twice
// panics. The returned group exposes recovery counters.
func (ctx *Context) EnableDriverHA(standbys []int, cfg ha.Config, seed int64) *ha.Group {
	if ctx.haGroup != nil {
		panic("rdd: driver HA already enabled")
	}
	cands := append([]int{ctx.driverNode}, standbys...)
	ctx.haGroup = ha.New(ctx.C, ctx.Conf.CtrlTransport, "spark-driver", cands, cfg, seed)
	ctx.driverDown = ctx.C.DownCount(ctx.driverNode)
	ctx.driverEpoch = ctx.haGroup.Epoch()
	return ctx.haGroup
}

// driverHealthy reports whether the current driver incarnation's node is
// up AND still holds the group's lease at its original epoch — a driver
// deposed by a partition (node alive, lease lost) is as gone as a dead
// one. Without HA it is vacuously true: there is no failover to wait
// for, and the pre-HA scheduler semantics apply unchanged.
func (ctx *Context) driverHealthy() bool {
	if ctx.haGroup == nil {
		return true
	}
	return !ctx.haGroup.Recovering() &&
		ctx.C.NodeAlive(ctx.driverNode) &&
		ctx.C.DownCount(ctx.driverNode) == ctx.driverDown &&
		ctx.haGroup.Leader() == ctx.driverNode &&
		ctx.haGroup.Epoch() == ctx.driverEpoch
}

// recoverDriver parks through the HA failover and restarts the driver on
// the elected node: the journal replay already happened in the election;
// here the new incarnation is published and every live executor
// re-registers with it (one control round trip each).
func (ctx *Context) recoverDriver(p *sim.Proc) {
	if ctx.haGroup == nil || ctx.driverHealthy() {
		return
	}
	node := ctx.haGroup.AwaitLeader(p)
	ctx.driverNode = node
	ctx.driverDown = ctx.C.DownCount(node)
	ctx.driverEpoch = ctx.haGroup.Epoch()
	ctx.driverGen++
	ctx.DriverFailovers++
	for _, e := range ctx.executors {
		if !e.alive || !ctx.C.NodeAlive(e.node) || e.node == node {
			continue
		}
		ctx.C.Xfer(p, e.node, node, ctx.C.Cost.SparkCtrlBytes, ctx.Conf.CtrlTransport)
		ctx.C.Xfer(p, node, e.node, ctx.C.Cost.SparkCtrlBytes, ctx.Conf.CtrlTransport)
	}
}

// journalAppend checkpoints n scheduler records (stage commits, map
// output locations) to the replicated journal under the current driver
// incarnation's lease — free without HA. A deposed lease is simply
// refused (no events charged): driverHealthy turns false at the same
// instant and the scheduler recovers through recoverDriver, where the
// new incarnation re-journals whatever state it replays.
func (ctx *Context) journalAppend(p *sim.Proc, n int64) {
	if ctx.haGroup == nil || n <= 0 || !ctx.driverHealthy() {
		return
	}
	_ = ctx.haGroup.AppendFor(p, ha.Lease{Node: ctx.driverNode, Epoch: ctx.driverEpoch}, n, nil)
}

// CacheSpills sums, over all executors, the cache blocks pushed to disk
// by node memory pressure and their bytes — the blockManager half of the
// spill story (TaskSpills/SpillBytes count the task-working-set half).
func (ctx *Context) CacheSpills() (blocks, bytes int64) {
	for _, e := range ctx.executors {
		blocks += e.bm.Spills
		bytes += e.bm.SpilledBytes
	}
	return blocks, bytes
}

// Executors returns stats handles for all executors.
func (ctx *Context) Executors() []ExecutorStats {
	out := make([]ExecutorStats, len(ctx.executors))
	for i, e := range ctx.executors {
		out[i] = ExecutorStats{id: e.id, bm: e.bm}
	}
	return out
}
