package core

import (
	"sync/atomic"
	"time"

	"hpcbd/internal/cluster"
	"hpcbd/internal/sim"
)

// kernelShards is the event-shard count every experiment cluster is
// built with (see cluster.EnableSharding). Atomic because sweep points
// build clusters concurrently under exec.ForEach. Values below one mean
// one shard.
var kernelShards atomic.Int64

// SetShards configures the event-queue shard count for all subsequently
// built experiment clusters (n <= 1 means one shard, the default).
// Shard counts are a pure performance knob: every figure, table and
// counter is bit-identical at every value — the host-invariance tests
// and golden digests pin that contract.
func SetShards(n int) { kernelShards.Store(int64(n)) }

// Shards reports the configured shard count (minimum 1).
func Shards() int {
	if n := int(kernelShards.Load()); n > 1 {
		return n
	}
	return 1
}

// kernelWorkers is the dispatch worker count every experiment kernel is
// configured with (see sim.Kernel.SetParallel). Like kernelShards it is
// atomic for concurrent sweep points. Zero/one = serial dispatch.
var kernelWorkers atomic.Int64

// SetWorkers configures the parallel-dispatch worker count for all
// subsequently built experiment clusters. Workers, like shards, are a
// pure performance knob: committed event order, virtual times and every
// counter are bit-identical at every value — the host-invariance tests
// pin that contract. Parallel dispatch engages only when the kernel
// also has several shards (Shards() > 1).
func SetWorkers(n int) { kernelWorkers.Store(int64(n)) }

// Workers reports the configured worker count (minimum 1).
func Workers() int {
	if n := int(kernelWorkers.Load()); n > 1 {
		return n
	}
	return 1
}

// Options scales the experiments. Full() reproduces the paper's
// configurations (logical sizes; physical samples stay small); Quick()
// shrinks everything for unit tests.
type Options struct {
	Seed int64

	// Fig 3 — reduce microbenchmark
	ReduceNodes   int
	ReducePPN     int
	ReduceSizes   []int64 // message bytes (float32 elements x4)
	ReduceMaxPhys int     // physical element cap for the Spark side
	ReduceIters   int

	// Table II — parallel file read
	FileReadNodes int
	FileReadPPN   int
	FileReadSizes []int64 // logical file bytes

	// Fig 4 — StackExchange AnswersCount
	ACBytes       int64 // logical dataset bytes (paper: 80 GB)
	ACRecordBytes int64
	ACStride      int64 // sampling stride (physical = records/stride)
	ACPPN         int
	ACProcs       []int // total process counts (nodes = procs/ppn)
	ACOMPThreads  []int // OpenMP-only configurations (paper: 8, 16)

	// Figs 6/7 — PageRank
	PRLogicalVertices int64 // paper: 1,000,000
	PRPhysVertices    int
	PRAvgDegree       float64
	PRIters           int
	PRPPN             int
	PRNodes           []int

	// Tail-latency sweep — gray-failure resilience
	TailNodes      int     // cluster size (node 0 is client + namenode, spared)
	TailReads      int     // DFS block reads per point
	TailJobs       int     // small shuffle jobs per point
	TailBlockBytes int64   // DFS block size; each read covers one block
	TailBlocks     int     // blocks per staged file (one file per writer node)
	TailGrayFactor float64 // compute/disk/NIC slowdown on gray nodes
	TailGrayLoss   float64 // per-message loss floor on gray nodes
	TailMPIIters   int     // iterations of the plain-MPI contrast loop

	// Overload sweep — resource-exhaustion resilience
	OverNodes       int           // cluster size (node 0 hosts driver + namenode)
	OverLoads       []int         // storm sizes: concurrent jobs submitted per point
	OverTaskMem     int64         // per-task working-set claim (Config.TaskMemory)
	OverDiskCap     int64         // per-node scratch-disk capacity for the sweep
	OverOutBytes    int64         // DFS output file written (then deleted) per job
	OverRecsPerPart int           // records per source partition of the storm job
	OverRecBytes    int64         // logical bytes per record
	OverFetchWindow int           // reduce-side fetch credits (mitigated arm)
	OverAdmit       int           // admission gate: max concurrently active jobs
	OverQueue       int           // admission gate: max queued jobs before shedding
	OverSpread      time.Duration // storm submissions spread over this window
	OverMPIRankMem  int64         // static per-rank allocation of the MPI contrast
	OverMPIIters    int           // iterations of the MPI contrast loop
}

// Full returns the paper-scale configuration (logical sizes match the
// paper; simulation keeps physical samples small).
func Full() Options {
	return Options{
		Seed: 20160926, // CLUSTER 2016

		ReduceNodes:   8,
		ReducePPN:     8,
		ReduceSizes:   []int64{4, 16, 64, 256, 1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20},
		ReduceMaxPhys: 1 << 16,
		ReduceIters:   3,

		FileReadNodes: 8,
		FileReadPPN:   8,
		FileReadSizes: []int64{8e9, 80e9},

		ACBytes:       80e9,
		ACRecordBytes: 512,
		ACStride:      2048,
		ACPPN:         8,
		ACProcs:       []int{8, 16, 32, 64, 128},
		ACOMPThreads:  []int{8, 16},

		PRLogicalVertices: 1_000_000,
		PRPhysVertices:    20_000,
		PRAvgDegree:       8,
		PRIters:           10,
		PRPPN:             16,
		PRNodes:           []int{1, 2, 4, 8},

		TailNodes:      10,
		TailReads:      160,
		TailJobs:       10,
		TailBlockBytes: 4 << 20,
		TailBlocks:     4,
		TailGrayFactor: 8,
		TailGrayLoss:   0.15,
		TailMPIIters:   40,

		OverNodes:       8,
		OverLoads:       []int{12, 24},
		OverTaskMem:     8 << 30,
		OverDiskCap:     128 << 30,
		OverOutBytes:    2 << 30,
		OverRecsPerPart: 1024,
		OverRecBytes:    1 << 20,
		OverFetchWindow: 4,
		OverAdmit:       4,
		OverQueue:       8,
		OverSpread:      200 * time.Millisecond,
		OverMPIRankMem:  16 << 30,
		OverMPIIters:    20,
	}
}

// Quick returns a configuration small enough for unit tests.
func Quick() Options {
	o := Full()
	o.ReduceSizes = []int64{4, 1 << 10, 64 << 10}
	o.ReduceNodes, o.ReducePPN = 2, 4
	o.ReduceMaxPhys = 1 << 12
	o.ReduceIters = 1
	o.FileReadNodes, o.FileReadPPN = 2, 4
	o.FileReadSizes = []int64{1e9, 4e9}
	o.ACBytes = 2e9
	o.ACStride = 4096
	o.ACProcs = []int{8, 16}
	o.ACOMPThreads = []int{4, 8}
	o.PRLogicalVertices = 1_000_000
	o.PRPhysVertices = 4_000
	o.PRIters = 3
	o.PRNodes = []int{2, 4}
	o.TailReads = 80
	o.TailJobs = 6
	o.TailBlockBytes = 2 << 20
	o.TailMPIIters = 20
	o.OverNodes = 6
	o.OverLoads = []int{6, 12}
	o.OverOutBytes = 512 << 20
	o.OverRecsPerPart = 512
	o.OverAdmit = 3
	o.OverQueue = 4
	o.OverMPIIters = 10
	return o
}

// newCluster builds a Comet cluster of n nodes with a fresh kernel, so
// every measurement starts from a cold, isolated platform. The global
// shard count (SetShards) is applied before any runtime spawns, so
// processes land on their nodes' shards.
func newCluster(seed int64, n int) *cluster.Cluster {
	k := sim.NewKernel(seed)
	k.SetParallel(Workers())
	c := cluster.Comet(k, n)
	c.EnableSharding(Shards())
	return c
}
