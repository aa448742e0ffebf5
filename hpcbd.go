// Package hpcbd reproduces "A Comparative Survey of the HPC and Big Data
// Paradigms: Analysis and Experiments" (Asaadi, Khaldi, Chapman — IEEE
// CLUSTER 2016) as an executable Go library.
//
// The repository models the paper's whole experimental universe on a
// deterministic discrete-event simulator:
//
//   - internal/sim      — virtual-time kernel (processes, resources)
//   - internal/cluster  — Comet-like nodes, disks, and the three network
//     software paths (RDMA verbs, IPoIB, Ethernet)
//   - internal/mpi      — MPI runtime: p2p, tuned collectives, MPI-IO
//   - internal/omp      — OpenMP-style shared-memory runtime
//   - internal/shmem    — OpenSHMEM-style PGAS runtime
//   - internal/dfs      — HDFS-like replicated block filesystem
//   - internal/mapred   — Hadoop-like MapReduce engine
//   - internal/rdd      — Spark-like RDD engine (lineage, DAG scheduler,
//     block manager, pluggable shuffle transport)
//   - internal/rda      — the paper's §VIII future-work prototype:
//     resilient distributed arrays on the HPC runtime
//   - internal/core     — the comparative benchmark framework that
//     regenerates every table and figure of the paper
//
// This package is the facade: platform construction, experiment
// regeneration (Tables I-III, Figs 3-4, 6-7), the ablations supporting the
// paper's Discussion section, and the shape checks that verify each
// artifact still exhibits the paper's qualitative findings. Programs that
// want to write code against the programming models themselves (the way
// examples/ do) import the internal runtime packages directly.
package hpcbd

import (
	"hpcbd/internal/cluster"
	"hpcbd/internal/core"
	"hpcbd/internal/rm"
	"hpcbd/internal/sim"
	"hpcbd/internal/workload"
)

// Re-exported experiment and report types.
type (
	// Options scales the experiments (see FullOptions / QuickOptions).
	Options = core.Options
	// Figure is a reproduced figure: series of (x, seconds) points.
	Figure = core.Figure
	// Table is a reproduced table.
	Table = core.Table
	// Series is one line of a Figure.
	Series = core.Series
	// Point is one measurement of a Series.
	Point = core.Point
	// Cluster is the simulated platform shared by every runtime.
	Cluster = cluster.Cluster
	// AnswersCountResult is the Fig 4 statistic.
	AnswersCountResult = workload.AnswersCountResult
	// FaultAblation is the §VI-D fault-tolerance comparison.
	FaultAblation = core.FaultAblation
	// RDAAblation is the §VIII convergence-prototype comparison.
	RDAAblation = core.RDAAblation
	// ChaosSweepResult is the §VI-D chaos-engine fault-tolerance sweep.
	ChaosSweepResult = core.ChaosSweepResult
	// ChaosPoint is one MTBF measurement of a ChaosSweepResult series.
	ChaosPoint = core.ChaosPoint
	// CkptPoint is one checkpoint-interval measurement of a ChaosSweepResult.
	CkptPoint = core.CkptPoint
	// TransportSweepResult is the lossy-network & integrity sweep.
	TransportSweepResult = core.TransportSweepResult
	// TransportPoint is one (runtime, fault rate) measurement of a
	// TransportSweepResult series.
	TransportPoint = core.TransportPoint
	// MasterSweepResult is the control-plane failover sweep: journaled
	// masters killed mid-job with standby takeover.
	MasterSweepResult = core.MasterSweepResult
	// MasterPoint is one (workload, kill point) measurement of a
	// MasterSweepResult series.
	MasterPoint = core.MasterPoint
	// PartitionSweepResult is the split-brain sweep: journaled masters
	// isolated by a network partition, with epoch fencing on or off.
	PartitionSweepResult = core.PartitionSweepResult
	// PartitionPoint is one (workload, cut) measurement of a
	// PartitionSweepResult series.
	PartitionPoint = core.PartitionPoint
	// TailSweepResult is the gray-failure tail-latency sweep: the same
	// seeded read + shuffle workload at increasing gray-node fractions,
	// mitigations off vs on, with a plain-MPI contrast arm.
	TailSweepResult = core.TailSweepResult
	// TailPoint is one (gray fraction, mitigation arm) measurement of a
	// TailSweepResult series.
	TailPoint = core.TailPoint
	// TailMPIPoint is one plain-MPI contrast measurement of a
	// TailSweepResult series.
	TailMPIPoint = core.TailMPIPoint
	// OverloadSweepResult is the resource-exhaustion sweep: a seeded job
	// storm against hogged RAM and full disks, mitigations off vs on,
	// with a statically allocated plain-MPI contrast arm.
	OverloadSweepResult = core.OverloadSweepResult
	// OverloadPoint is one (load, pressure, mitigation arm) measurement
	// of an OverloadSweepResult series.
	OverloadPoint = core.OverloadPoint
	// OverloadMPIPoint is one static-allocation MPI contrast measurement
	// of an OverloadSweepResult series.
	OverloadMPIPoint = core.OverloadMPIPoint
)

// FullOptions returns the paper-scale experiment configuration.
func FullOptions() Options { return core.Full() }

// QuickOptions returns a configuration small enough for tests and demos.
func QuickOptions() Options { return core.Quick() }

// SetShards splits every subsequently built experiment kernel's event
// queue into n shards (default one; see internal/sim's shard notes).
// Shard counts are a pure performance knob: every figure, table and
// counter is bit-identical at every value.
func SetShards(n int) { core.SetShards(n) }

// Shards reports the configured experiment shard count (minimum 1).
func Shards() int { return core.Shards() }

// SetWorkers configures parallel event dispatch for every subsequently
// built experiment kernel: between commit barriers, each shard's
// independent events run on their own OS thread (see internal/sim's
// conservative-window notes). Like shard counts, workers are a pure
// performance knob — committed event order, virtual times and every
// counter are bit-identical at every value. Engages only when the
// kernel also has several shards (SetShards > 1).
func SetWorkers(n int) { core.SetWorkers(n) }

// Workers reports the configured dispatch worker count (minimum 1).
func Workers() int { return core.Workers() }

type (
	// ScaleConfig parameterizes the production-scale AnswersCount sweep.
	ScaleConfig = core.ScaleConfig
	// ScalePoint is one production-scale sweep measurement.
	ScalePoint = core.ScalePoint
)

// DefaultScaleConfig returns the 1,000–4,000 node sweep configuration.
func DefaultScaleConfig() ScaleConfig { return core.DefaultScaleConfig() }

// ScaleSweep runs MPI AnswersCount at production node counts on the
// sharded kernel, reporting simulated results plus kernel telemetry.
func ScaleSweep(o Options, cfg ScaleConfig) []ScalePoint { return core.ScaleSweep(o, cfg) }

// ScaleTable renders a ScaleSweep as a report table.
func ScaleTable(pts []ScalePoint) Table { return core.ScaleTable(pts) }

// NewComet builds an n-node simulated Comet cluster (Table I hardware)
// with a fresh deterministic kernel.
func NewComet(seed int64, nodes int) *Cluster {
	return cluster.Comet(sim.NewKernel(seed), nodes)
}

// Table1 regenerates Table I (platform characteristics).
func Table1() Table { return core.Table1() }

// Fig3 regenerates Fig 3 (reduce microbenchmark: MPI vs Spark vs
// Spark-RDMA across message sizes).
func Fig3(o Options) Figure { return core.Fig3(o) }

// Fig3Extended is Fig 3 plus the OpenSHMEM series the paper surveys but
// does not plot.
func Fig3Extended(o Options) Figure { return core.Fig3Extended(o) }

// Table2 regenerates Table II (parallel file read: Spark-on-HDFS vs
// Spark-local vs MPI-IO).
func Table2(o Options) Table { return core.Table2(o) }

// Table2Values returns Table II numerically ([size][hdfs, local, mpi]
// seconds).
func Table2Values(o Options) [][3]float64 { return core.Table2Values(o) }

// Fig4 regenerates Fig 4 (StackExchange AnswersCount across OpenMP, MPI,
// Spark, Hadoop) along with each framework's computed result.
func Fig4(o Options) (Figure, map[string]AnswersCountResult) { return core.Fig4(o) }

// Fig6 regenerates Fig 6 (BigDataBench PageRank: MPI vs tuned Spark vs
// tuned Spark-RDMA) along with final ranks per series.
func Fig6(o Options) (Figure, map[string][]float64) { return core.Fig6(o) }

// Fig7 regenerates Fig 7 (HiBench PageRank: untuned Spark vs Spark-RDMA).
func Fig7(o Options) (Figure, map[string][]float64) { return core.Fig7(o) }

// Table3 regenerates Table III (maintainability: LoC and boilerplate of
// the benchmark implementations in this repository).
func Table3() (Table, error) { return core.Table3() }

// AblationPersist measures the §VI-C persist() speedup on PageRank.
func AblationPersist(o Options, nodes int) (tuned, untuned float64) {
	return core.AblationPersist(o, nodes)
}

// AblationReplication reproduces the §V-B2 replication-vs-locality study.
func AblationReplication(o Options) Table { return core.AblationReplication(o) }

// AblationFaults runs the §VI-D fault-tolerance comparison.
func AblationFaults(o Options) FaultAblation { return core.AblationFaults(o) }

// AblationRDA measures the §VIII convergence prototype's recovery models.
func AblationRDA(o Options) RDAAblation { return core.AblationRDA(o) }

// ChaosSweep runs the §VI-D fault-tolerance sweep: Fig 4 and Fig 6 jobs
// under seeded chaos plans at increasing failure rates, Spark lineage
// recovery vs MPI checkpoint/restart, plus a checkpoint-interval study.
func ChaosSweep(o Options) ChaosSweepResult { return core.ChaosSweep(o) }

// ChaosTables renders a ChaosSweepResult as report tables.
func ChaosTables(r ChaosSweepResult) []Table { return core.ChaosTables(r) }

// CheckChaosSweep verifies the chaos sweep's documented shapes, including
// bit-exact determinism between two runs of the same options.
func CheckChaosSweep(a, b ChaosSweepResult) []string { return core.CheckChaosSweep(a, b) }

// TransportSweep runs the lossy-network & integrity sweep: the Fig 4
// workload per runtime under message loss, silent corruption and a
// network partition, riding the reliable transport and the DFS's
// end-to-end checksums, with plain MPI as the transport-fragile contrast.
func TransportSweep(o Options) TransportSweepResult { return core.TransportSweep(o) }

// TransportTables renders a TransportSweepResult as report tables.
func TransportTables(r TransportSweepResult) []Table { return core.TransportTables(r) }

// CheckTransportSweep verifies the transport sweep's documented shapes,
// including bit-exact determinism between two runs of the same options.
func CheckTransportSweep(a, b TransportSweepResult) []string {
	return core.CheckTransportSweep(a, b)
}

// MasterSweep runs the control-plane failover sweep: the DFS namenode,
// Spark driver and MapReduce job tracker — all journaled to standbys —
// are killed at fixed fractions of each workload's clean duration, and
// every job must finish with a byte-identical result; a plain MPI job
// under the same kill deadlocks, the measured fragility contrast.
func MasterSweep(o Options) MasterSweepResult { return core.MasterSweep(o) }

// MasterTables renders a MasterSweepResult as report tables.
func MasterTables(r MasterSweepResult) []Table { return core.MasterTables(r) }

// CheckMasterSweep verifies the master-kill sweep's documented shapes,
// including bit-exact determinism between two runs of the same options.
func CheckMasterSweep(a, b MasterSweepResult) []string {
	return core.CheckMasterSweep(a, b)
}

// PartitionSweep runs the split-brain sweep: the control-plane node is
// CUT OFF (not killed) mid-job at varying minority sizes and cut
// lengths. Fenced arms must step the isolated leader down and finish
// byte-identical across epochs with zero acknowledged-then-lost journal
// entries; the unfenced DFS arm measures exactly how many acknowledged
// writes a split brain loses; plain MPI deadlocks even though the cut
// heals.
func PartitionSweep(o Options) PartitionSweepResult { return core.PartitionSweep(o) }

// PartitionTables renders a PartitionSweepResult as report tables.
func PartitionTables(r PartitionSweepResult) []Table { return core.PartitionTables(r) }

// CheckPartitionSweep verifies the split-brain sweep's documented
// shapes, including bit-exact determinism between two runs of the same
// options.
func CheckPartitionSweep(a, b PartitionSweepResult) []string {
	return core.CheckPartitionSweep(a, b)
}

// TailSweep runs the gray-failure tail-latency sweep: a sustained seeded
// read + shuffle workload at increasing fractions of gray nodes (alive
// but degraded), once with fixed timeouts and no hedging, once with the
// full mitigation set — adaptive timeouts, latency-outlier ejection,
// hedged requests and a shared retry budget — plus plain MPI under the
// loss-free variant of the same gray plan as the paradigm contrast.
func TailSweep(o Options) TailSweepResult { return core.TailSweep(o) }

// TailTables renders a TailSweepResult as report tables.
func TailTables(r TailSweepResult) []Table { return core.TailTables(r) }

// CheckTailSweep verifies the tail sweep's documented shapes — the
// mitigations' p99 cuts, clean-run overhead bound, retry-budget
// engagement, MPI pacing contrast — including bit-exact determinism
// between two runs of the same options.
func CheckTailSweep(a, b TailSweepResult) []string {
	return core.CheckTailSweep(a, b)
}

// OverloadSweep runs the resource-exhaustion sweep: a seeded job storm
// at increasing offered loads against a cluster whose RAM is hogged on
// every node and whose scratch disks are filled on half of them, once
// with every task claiming its full working set or dying, once with the
// mitigation set — task-memory spill, OOM retry escalation with
// memory-aware placement, credit-bounded shuffle fetches, full-disk
// write redirect and deterministic admission control — plus plain MPI
// whose static up-front allocation fails the whole job at the first
// refused reservation.
func OverloadSweep(o Options) OverloadSweepResult { return core.OverloadSweep(o) }

// OverloadTables renders an OverloadSweepResult as report tables.
func OverloadTables(r OverloadSweepResult) []Table { return core.OverloadTables(r) }

// CheckOverloadSweep verifies the overload sweep's documented shapes —
// off-arm collapse under pressure, the mitigated arm's goodput hold,
// machinery engagement, admission honesty, the MPI static-allocation
// contrast — including bit-exact determinism between two runs of the
// same options.
func CheckOverloadSweep(a, b OverloadSweepResult) []string {
	return core.CheckOverloadSweep(a, b)
}

// AblationMRMPI reproduces the related-work claims ([36],[37]): MapReduce
// on MPI vs Hadoop, blocking vs non-blocking exchange.
func AblationMRMPI(o Options) (Table, map[string]float64) { return core.AblationMRMPI(o) }

// AblationInterconnect sweeps the §IV transport stacks under a
// shuffle-heavy job.
func AblationInterconnect(o Options) (Table, map[string]float64) {
	return core.AblationInterconnect(o)
}

// AblationFilesystem sweeps the §IV storage layers under the parallel
// read workload.
func AblationFilesystem(o Options) (Table, map[string]float64) {
	return core.AblationFilesystem(o)
}

// AblationScheduler contrasts the §IV resource managers (Slurm-like
// exclusive nodes vs YARN-like containers) on a mixed workload.
func AblationScheduler(o Options) (Table, map[string]rm.Summary) {
	return core.AblationScheduler(o)
}

// AblationTopology measures rack-level oversubscription (Table I's hybrid
// fat-tree) against a shuffle microbenchmark.
func AblationTopology(o Options) (Table, map[string]float64) {
	return core.AblationTopology(o)
}

// Shape checks: each returns the list of violations of the paper's
// qualitative findings (empty = the reproduction preserves the shape).

// CheckFig3 verifies the Fig 3 findings.
func CheckFig3(f Figure) []string { return core.CheckFig3(f) }

// CheckTable2 verifies the Table II findings.
func CheckTable2(vals [][3]float64) []string { return core.CheckTable2(vals) }

// CheckFig4 verifies the Fig 4 findings.
func CheckFig4(f Figure, results map[string]AnswersCountResult, acBytes int64) []string {
	return core.CheckFig4(f, results, acBytes)
}

// CheckFig6 verifies the Fig 6 findings.
func CheckFig6(f Figure, ranks map[string][]float64) []string { return core.CheckFig6(f, ranks) }

// CheckFig7 verifies the Fig 7 findings.
func CheckFig7(f Figure, ranks map[string][]float64) []string { return core.CheckFig7(f, ranks) }

// AblationKMeans runs the related-work [38] cross-paradigm k-means
// comparison (OpenMP vs MPI vs Spark) with oracle verification.
func AblationKMeans(o Options, nodes, ppn, iters int) (Table, map[string]core.KMResult) {
	return core.AblationKMeans(o, nodes, ppn, iters)
}

// AblationOffload quantifies the §III-D accelerator trade-off: GPU
// offload vs arithmetic intensity on a HeteroSpark-style map.
func AblationOffload(o Options) (Table, map[string][2]float64) {
	return core.AblationOffload(o)
}

// AblationMemory sweeps executor memory under tuned PageRank, exposing
// block-manager eviction and lineage recomputation (§III-B).
func AblationMemory(o Options) (Table, map[string][2]float64) {
	return core.AblationMemory(o)
}

// AblationConverged answers the paper's §VIII convergence question with
// numbers: PageRank on raw MPI, on the RDA converged model, and on Spark.
func AblationConverged(o Options) (Table, map[string]core.PRResult) {
	return core.AblationConverged(o)
}
