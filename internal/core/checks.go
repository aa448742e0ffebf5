package core

import (
	"fmt"
	"math"
	"reflect"

	"hpcbd/internal/workload"
)

// Shape checks: each Check* function verifies that a reproduced artifact
// exhibits the qualitative findings the paper reports for it, returning a
// list of violations (empty = shape holds). EXPERIMENTS.md records the
// outcomes.

// CheckFig3 verifies the reduce microbenchmark findings: MPI beats Spark
// decisively at every message size, and the RDMA shuffle plugin changes
// Spark's latency only marginally.
func CheckFig3(f Figure) []string {
	var bad []string
	mpiS, _ := f.Get("MPI")
	spark, _ := f.Get("Spark")
	rdma, _ := f.Get("Spark-RDMA")
	for _, p := range mpiS.Points {
		sy, ok1 := spark.Y(p.X)
		ry, ok2 := rdma.Y(p.X)
		if !ok1 || !ok2 {
			bad = append(bad, fmt.Sprintf("fig3: missing Spark point at %g", p.X))
			continue
		}
		if sy < p.Y*5 {
			bad = append(bad, fmt.Sprintf("fig3: at %gB Spark (%.6fs) not >>5x MPI (%.6fs)", p.X, sy, p.Y))
		}
		if math.Abs(ry-sy)/sy > 0.10 {
			bad = append(bad, fmt.Sprintf("fig3: at %gB Spark-RDMA differs from Spark by %.0f%% (paper: marginal)",
				p.X, 100*math.Abs(ry-sy)/sy))
		}
	}
	// MPI latency must grow with message size (tuned algorithms, mild).
	first, last := mpiS.Points[0], mpiS.Points[len(mpiS.Points)-1]
	if last.Y <= first.Y {
		bad = append(bad, "fig3: MPI latency not increasing with message size")
	}
	return bad
}

// CheckTable2 verifies the parallel-read findings: MPI fastest, Spark on
// local scratch next, Spark on HDFS slowest with a 20-60% penalty over
// local (the paper reports 26% at 8 GB and 56% at 80 GB), and times grow
// roughly linearly with file size.
func CheckTable2(vals [][3]float64) []string {
	var bad []string
	for i, row := range vals {
		hdfs, local, mpiT := row[0], row[1], row[2]
		if !(mpiT < local && local < hdfs) {
			bad = append(bad, fmt.Sprintf("table2 row %d: ordering violated (mpi=%.2f local=%.2f hdfs=%.2f)",
				i, mpiT, local, hdfs))
		}
		over := (hdfs - local) / local
		if over < 0.05 || over > 0.9 {
			bad = append(bad, fmt.Sprintf("table2 row %d: HDFS overhead %.0f%% outside (5%%, 90%%)", i, over*100))
		}
	}
	if len(vals) >= 2 {
		// 10x the bytes should cost roughly 5-15x the time for each column.
		for col := 0; col < 3; col++ {
			ratio := vals[len(vals)-1][col] / vals[0][col]
			if ratio < 3 {
				bad = append(bad, fmt.Sprintf("table2 col %d: big/small time ratio %.1f implies no size sensitivity", col, ratio))
			}
		}
	}
	return bad
}

// CheckFig4 verifies the AnswersCount findings: Hadoop notably slower than
// Spark; MPI absent below the 2 GiB-chunk floor and fastest where
// runnable; OpenMP confined to one node and slowest at scale; Spark
// improving with process count (scalability).
func CheckFig4(f Figure, results map[string]workload.AnswersCountResult, acBytes int64) []string {
	var bad []string
	spark, _ := f.Get("Spark")
	hadoop, _ := f.Get("Hadoop")
	mpiS, _ := f.Get("MPI")
	openmp, _ := f.Get("OpenMP")

	for _, p := range spark.Points {
		hy, ok := hadoop.Y(p.X)
		if !ok {
			continue
		}
		if hy < p.Y*1.2 {
			bad = append(bad, fmt.Sprintf("fig4: at %g procs Hadoop (%.1fs) not slower than Spark (%.1fs)", p.X, hy, p.Y))
		}
	}
	// MPI int-limit floor: chunk > 2 GiB must be unrunnable.
	floor := float64(acBytes) / float64(math.MaxInt32)
	for _, p := range mpiS.Points {
		if float64(p.X) < floor && p.OK {
			bad = append(bad, fmt.Sprintf("fig4: MPI ran with %g procs though chunks exceed the C int limit", p.X))
		}
		if float64(p.X) >= floor && !p.OK {
			bad = append(bad, fmt.Sprintf("fig4: MPI failed at %g procs though chunks fit", p.X))
		}
		if p.OK {
			if sy, ok := spark.Y(p.X); ok && p.Y >= sy {
				bad = append(bad, fmt.Sprintf("fig4: at %g procs MPI (%.1fs) not faster than Spark (%.1fs)", p.X, p.Y, sy))
			}
		}
	}
	// Spark scales: more processes, less time.
	if len(spark.Points) >= 2 {
		first, last := spark.Points[0], spark.Points[len(spark.Points)-1]
		if last.Y >= first.Y {
			bad = append(bad, "fig4: Spark does not scale with process count")
		}
	}
	// OpenMP (single node) cannot compete once the distributed frameworks
	// have several nodes of aggregate disk bandwidth. Only meaningful when
	// the largest configuration really is multi-node (>= 4x the OpenMP
	// node), as in the paper's runs.
	if len(openmp.Points) > 0 && len(spark.Points) > 1 {
		last := spark.Points[len(spark.Points)-1]
		ompBest := openmp.Points[len(openmp.Points)-1]
		if last.X >= 4*ompBest.X && ompBest.Y <= last.Y {
			bad = append(bad, fmt.Sprintf("fig4: OpenMP single node (%.1fs) beats Spark at scale (%.1fs)", ompBest.Y, last.Y))
		}
	}
	// Cross-framework agreement on the computed statistic.
	ref, ok := results["Serial"]
	if !ok {
		bad = append(bad, "fig4: missing serial reference result")
	} else {
		for name, r := range results {
			if r.Questions != ref.Questions || r.Answers != ref.Answers {
				bad = append(bad, fmt.Sprintf("fig4: %s computed %d/%d, serial %d/%d",
					name, r.Questions, r.Answers, ref.Questions, ref.Answers))
			}
		}
	}
	return bad
}

// CheckFig6 verifies the BigDataBench PageRank findings: MPI much faster
// than Spark and nearly flat across node counts; Spark scaling down with
// nodes; Spark-RDMA within a few percent of default Spark (persistence
// suppresses shuffling).
func CheckFig6(f Figure, ranks map[string][]float64) []string {
	var bad []string
	mpiS, _ := f.Get("MPI")
	spark, _ := f.Get("Spark")
	rdma, _ := f.Get("Spark-RDMA")
	for _, p := range mpiS.Points {
		if sy, ok := spark.Y(p.X); ok && sy < p.Y*3 {
			bad = append(bad, fmt.Sprintf("fig6: at %g nodes Spark (%.2fs) not >>3x MPI (%.2fs)", p.X, sy, p.Y))
		}
	}
	// MPI roughly flat: max/min below 3.
	minY, maxY := math.Inf(1), 0.0
	for _, p := range mpiS.Points {
		minY = math.Min(minY, p.Y)
		maxY = math.Max(maxY, p.Y)
	}
	if maxY/minY > 3 {
		bad = append(bad, fmt.Sprintf("fig6: MPI varies %.1fx across nodes (paper: almost flat)", maxY/minY))
	}
	// Spark scales down with nodes.
	if len(spark.Points) >= 2 && spark.Points[len(spark.Points)-1].Y >= spark.Points[0].Y {
		bad = append(bad, "fig6: Spark does not scale with nodes")
	}
	// RDMA gains are insignificant when tuned.
	for _, p := range spark.Points {
		if ry, ok := rdma.Y(p.X); ok && math.Abs(ry-p.Y)/p.Y > 0.10 {
			bad = append(bad, fmt.Sprintf("fig6: at %g nodes RDMA changes tuned Spark by %.0f%%", p.X, 100*math.Abs(ry-p.Y)/p.Y))
		}
	}
	bad = append(bad, checkRuns("fig6", f)...)
	bad = append(bad, checkRanks("fig6", ranks)...)
	return bad
}

// CheckFig7 verifies the HiBench PageRank findings: with heavy shuffling,
// Spark-RDMA beats default Spark, and the gap does not shrink as nodes
// are added.
func CheckFig7(f Figure, ranks map[string][]float64) []string {
	var bad []string
	spark, _ := f.Get("Spark")
	rdma, _ := f.Get("Spark-RDMA")
	var gaps []float64
	for _, p := range spark.Points {
		if p.X < 2 {
			continue // single node: shuffles never touch the network
		}
		ry, ok := rdma.Y(p.X)
		if !ok {
			continue
		}
		if ry >= p.Y {
			bad = append(bad, fmt.Sprintf("fig7: at %g nodes RDMA (%.2fs) not faster than sockets (%.2fs)", p.X, ry, p.Y))
		}
		gaps = append(gaps, (p.Y-ry)/p.Y)
	}
	if len(gaps) >= 2 && gaps[len(gaps)-1] < gaps[0]*0.5 {
		bad = append(bad, fmt.Sprintf("fig7: RDMA advantage shrinks with nodes (%.0f%% -> %.0f%%)",
			gaps[0]*100, gaps[len(gaps)-1]*100))
	}
	bad = append(bad, checkRuns("fig7", f)...)
	bad = append(bad, checkRanks("fig7", ranks)...)
	return bad
}

// CheckChaosSweep verifies the §VI-D fault-tolerance findings on two
// independently executed sweeps:
//
//   - determinism: identical seeds produce bit-identical completion times
//     and recovery counters (a == b);
//   - Spark: lineage + DFS recovery completes every job with the correct
//     result at every failure rate, within SparkChaosOverheadBound of the
//     failure-free time, and the recovery machinery demonstrably engaged;
//   - MPI: checkpoint/restart overhead (restarts and completion time)
//     grows monotonically as MTBF shrinks;
//   - checkpoint interval: re-executed work shrinks monotonically as
//     checkpoints become more frequent, under a fixed failure script.
func CheckChaosSweep(a, b ChaosSweepResult) []string {
	var bad []string
	if !reflect.DeepEqual(a, b) {
		bad = append(bad, "chaos: two sweeps with identical seeds differ (determinism broken)")
	}
	bad = append(bad, checkChaosSpark("spark-ac", a.SparkAC)...)
	bad = append(bad, checkChaosSpark("spark-pr", a.SparkPR)...)

	m := a.MPIPR
	if len(m) > 0 && (m[0].Restarts != 0 || m[0].RedoneIters != 0) {
		bad = append(bad, "chaos: failure-free MPI run restarted")
	}
	for i, p := range m {
		if !p.Completed {
			bad = append(bad, fmt.Sprintf("chaos: MPI run %d (MTBF %s) did not complete", i, fmtSeconds(p.MTBFSeconds)))
		}
		if i == 0 {
			continue
		}
		q := m[i-1]
		if p.Seconds < q.Seconds {
			bad = append(bad, fmt.Sprintf("chaos: MPI time fell from %s to %s as MTBF shrank %s->%s",
				fmtSeconds(q.Seconds), fmtSeconds(p.Seconds), fmtSeconds(q.MTBFSeconds), fmtSeconds(p.MTBFSeconds)))
		}
		if p.Restarts < q.Restarts {
			bad = append(bad, fmt.Sprintf("chaos: MPI restarts fell from %d to %d as MTBF shrank", q.Restarts, p.Restarts))
		}
	}
	if len(m) > 0 && m[len(m)-1].Restarts == 0 {
		bad = append(bad, "chaos: highest MPI failure rate never forced a restart (sweep tested nothing)")
	}

	for i, p := range a.Ckpt {
		if !p.Completed {
			bad = append(bad, fmt.Sprintf("chaos: checkpoint series (every=%d) did not complete", p.Every))
		}
		if i == 0 {
			continue
		}
		q := a.Ckpt[i-1]
		if p.RedoneIters > q.RedoneIters {
			bad = append(bad, fmt.Sprintf("chaos: redone iters rose from %d to %d as checkpoint interval shrank %d->%d",
				q.RedoneIters, p.RedoneIters, q.Every, p.Every))
		}
		if p.Checkpoints < q.Checkpoints {
			bad = append(bad, fmt.Sprintf("chaos: checkpoints fell from %d to %d as interval shrank", q.Checkpoints, p.Checkpoints))
		}
	}
	return bad
}

// checkChaosSpark validates one Spark series of the chaos sweep.
func checkChaosSpark(name string, pts []ChaosPoint) []string {
	var bad []string
	if len(pts) == 0 {
		return []string{"chaos: " + name + " series empty"}
	}
	clean := pts[0]
	if clean.MTBFSeconds != 0 || !clean.Completed || clean.Seconds <= 0 {
		bad = append(bad, "chaos: "+name+" has no valid failure-free baseline")
	}
	if clean.ExecutorsLost != 0 || clean.RecomputedParts != 0 || clean.Crashes != 0 {
		bad = append(bad, "chaos: "+name+" failure-free run saw recovery activity")
	}
	for i, p := range pts[1:] {
		if !p.Completed {
			bad = append(bad, fmt.Sprintf("chaos: %s run %d (MTBF %s) failed or produced a wrong result", name, i+1, fmtSeconds(p.MTBFSeconds)))
			continue
		}
		if over := p.Seconds / clean.Seconds; over > SparkChaosOverheadBound {
			bad = append(bad, fmt.Sprintf("chaos: %s at MTBF %s took %.2fx the clean run (bound %.1fx)",
				name, fmtSeconds(p.MTBFSeconds), over, SparkChaosOverheadBound))
		}
	}
	last := pts[len(pts)-1]
	if last.Crashes == 0 || last.ExecutorsLost == 0 {
		bad = append(bad, "chaos: "+name+" highest failure rate never killed an executor (sweep tested nothing)")
	}
	return bad
}

// checkRuns reports every point of a PageRank figure whose run failed:
// the other checks skip such a point, so it must not pass silently.
func checkRuns(fig string, f Figure) []string {
	var bad []string
	for _, s := range f.Series {
		for _, p := range s.Points {
			if !p.OK {
				bad = append(bad, fmt.Sprintf("%s: %s run at %g nodes failed", fig, s.Name, p.X))
			}
		}
	}
	return bad
}

// checkRanks verifies every framework's final PageRank vector against the
// serial oracle.
func checkRanks(fig string, ranks map[string][]float64) []string {
	var bad []string
	ref, ok := ranks["Serial"]
	if !ok {
		return []string{fig + ": missing serial PageRank reference"}
	}
	for name, rs := range ranks {
		if name == "Serial" {
			continue
		}
		if len(rs) != len(ref) {
			bad = append(bad, fmt.Sprintf("%s: %s produced %d ranks, want %d", fig, name, len(rs), len(ref)))
			continue
		}
		for v := range ref {
			if math.Abs(rs[v]-ref[v]) > 1e-6*(1+math.Abs(ref[v])) {
				bad = append(bad, fmt.Sprintf("%s: %s rank[%d]=%.9f, serial %.9f", fig, name, v, rs[v], ref[v]))
				break
			}
		}
	}
	return bad
}

// CheckMasterSweep verifies the control-plane failover findings on two
// independently executed sweeps:
//
//   - determinism: identical seeds produce bit-identical times, digests
//     and recovery counters;
//   - availability: every HA workload completes every master-kill point
//     with a digest byte-identical to its failure-free run, within the
//     documented overhead bound, having actually failed over (>= 1
//     election) and journaled state (> 0 entries);
//   - fragility contrast: the plain MPI job completes failure-free and
//     deadlocks at every kill point — no master recovery exists there.
func CheckMasterSweep(a, b MasterSweepResult) []string {
	var bad []string
	if !reflect.DeepEqual(a, b) {
		bad = append(bad, "master: two sweeps with identical seeds differ (determinism broken)")
	}
	bad = append(bad, checkMasterHA("dfs", a.DFS)...)
	bad = append(bad, checkMasterHA("spark-ac", a.SparkAC)...)
	bad = append(bad, checkMasterHA("hadoop-ac", a.HadoopAC)...)

	m := a.MPIPlain
	if len(m) == 0 {
		return append(bad, "master: mpi-plain series empty")
	}
	if !m[0].Completed {
		bad = append(bad, "master: failure-free plain MPI run did not complete")
	}
	for _, p := range m[1:] {
		if p.Completed {
			bad = append(bad, fmt.Sprintf("master: plain MPI survived a master kill at %.2f x T (fragility contrast lost)", p.KillFrac))
		}
	}
	return bad
}

// checkMasterHA validates one HA series of the master-kill sweep.
func checkMasterHA(name string, pts []MasterPoint) []string {
	var bad []string
	if len(pts) == 0 {
		return []string{"master: " + name + " series empty"}
	}
	clean := pts[0]
	if clean.KillFrac != 0 || !clean.Completed || clean.Seconds <= 0 {
		bad = append(bad, "master: "+name+" has no valid failure-free baseline")
	}
	if clean.Failovers != 0 {
		bad = append(bad, fmt.Sprintf("master: %s failed over %d times with no fault injected", name, clean.Failovers))
	}
	if clean.JournalEntries == 0 {
		bad = append(bad, "master: "+name+" baseline journaled nothing (HA was not active)")
	}
	if clean.Digest == "" {
		bad = append(bad, "master: "+name+" baseline produced no digest")
	}
	for _, p := range pts[1:] {
		id := fmt.Sprintf("master: %s kill at %.2f x T", name, p.KillFrac)
		if !p.Completed {
			bad = append(bad, id+" did not complete")
			continue
		}
		if p.Digest != clean.Digest {
			bad = append(bad, fmt.Sprintf("%s changed the output across leader generations: %q vs clean %q", id, p.Digest, clean.Digest))
		}
		if p.Failovers < 1 {
			bad = append(bad, id+" completed without a failover (the kill missed the master)")
		}
		if p.RecoverySeconds <= 0 {
			bad = append(bad, id+" failed over in zero recovery time")
		}
		if p.JournalEntries == 0 {
			bad = append(bad, id+" journaled nothing")
		}
		if p.Seconds > MasterKillOverheadBound*clean.Seconds {
			bad = append(bad, fmt.Sprintf("%s took %s, over the %gx bound on clean %s",
				id, fmtSeconds(p.Seconds), MasterKillOverheadBound, fmtSeconds(clean.Seconds)))
		}
	}
	return bad
}

// CheckPartitionSweep validates the split-brain sweep against the
// invariants that make it publishable: determinism, zero
// acknowledged-then-lost entries with byte-identical digests wherever
// fencing is on, a measurable acknowledged-write loss where it is off,
// and plain MPI's deadlock under the very same (healing) cut.
func CheckPartitionSweep(a, b PartitionSweepResult) []string {
	var bad []string
	if !reflect.DeepEqual(a, b) {
		bad = append(bad, "partition: two sweeps with identical seeds differ (determinism broken)")
	}
	bad = append(bad, checkPartitionFenced("dfs-fenced", a.DFSFenced)...)
	bad = append(bad, checkPartitionFenced("spark-ac", a.SparkAC)...)
	bad = append(bad, checkPartitionFenced("hadoop-ac", a.HadoopAC)...)
	bad = append(bad, checkPartitionUnfenced("dfs-unfenced", a.DFSUnfenced)...)

	m := a.MPIPlain
	if len(m) == 0 {
		return append(bad, "partition: mpi-plain series empty")
	}
	if !m[0].Completed {
		bad = append(bad, "partition: failure-free plain MPI run did not complete")
	}
	for _, p := range m[1:] {
		if p.Completed {
			bad = append(bad, fmt.Sprintf("partition: plain MPI survived a %d-node cut of %s (fragility contrast lost)",
				p.Split, fmtSeconds(p.WindowSeconds)))
		}
	}
	return bad
}

// checkPartitionBaseline validates the shared failure-free invariants
// of one HA series and returns its clean point.
func checkPartitionBaseline(name string, pts []PartitionPoint) (PartitionPoint, []string) {
	var bad []string
	clean := pts[0]
	if clean.Split != 0 || !clean.Completed || clean.Seconds <= 0 {
		bad = append(bad, "partition: "+name+" has no valid failure-free baseline")
	}
	if clean.Failovers != 0 || clean.StepDowns != 0 {
		bad = append(bad, fmt.Sprintf("partition: %s failed over (%d) or stepped down (%d) with no cut injected",
			name, clean.Failovers, clean.StepDowns))
	}
	if clean.LostAcked != 0 {
		bad = append(bad, fmt.Sprintf("partition: %s lost %d acknowledged entries with no cut injected", name, clean.LostAcked))
	}
	if clean.JournalEntries == 0 {
		bad = append(bad, "partition: "+name+" baseline journaled nothing (HA was not active)")
	}
	if clean.Digest == "" {
		bad = append(bad, "partition: "+name+" baseline produced no digest")
	}
	return clean, bad
}

// checkPartitionFenced validates one fenced series: the isolated leader
// must step down, the majority must elect, and the result must be
// byte-identical to the clean run with zero acknowledged-then-lost
// journal entries, inside a bounded time budget.
func checkPartitionFenced(name string, pts []PartitionPoint) []string {
	if len(pts) == 0 {
		return []string{"partition: " + name + " series empty"}
	}
	clean, bad := checkPartitionBaseline(name, pts)
	for _, p := range pts[1:] {
		id := fmt.Sprintf("partition: %s %d-node cut of %s", name, p.Split, fmtSeconds(p.WindowSeconds))
		if !p.Completed {
			bad = append(bad, id+" did not complete")
			continue
		}
		if p.Digest != clean.Digest {
			bad = append(bad, fmt.Sprintf("%s changed the output across epochs: %q vs clean %q", id, p.Digest, clean.Digest))
		}
		if p.LostAcked != 0 {
			bad = append(bad, fmt.Sprintf("%s lost %d ACKNOWLEDGED journal entries despite fencing", id, p.LostAcked))
		}
		if p.Failovers < 1 {
			bad = append(bad, id+" completed without a failover (the cut missed the leader)")
		}
		if p.StepDowns < 1 {
			bad = append(bad, id+" never forced a fenced step-down")
		}
		if p.Epoch < 2 {
			bad = append(bad, id+" never advanced the leader epoch")
		}
		if p.RecoverySeconds <= 0 {
			bad = append(bad, id+" failed over in zero recovery time")
		}
		if p.JournalEntries == 0 {
			bad = append(bad, id+" journaled nothing")
		}
		// The cut window is additive: work pinned to the minority side can
		// only resume at the heal, which is not a control-plane cost.
		if limit := PartitionOverheadBound*clean.Seconds + 4*p.WindowSeconds; p.Seconds > limit {
			bad = append(bad, fmt.Sprintf("%s took %s, over the %gx-clean + 4x-window budget of %s",
				id, fmtSeconds(p.Seconds), PartitionOverheadBound, fmtSeconds(limit)))
		}
	}
	return bad
}

// checkPartitionUnfenced validates the split-brain contrast: with
// fencing off and the client trapped on the leader's side of the cut,
// the sweep must MEASURE acknowledged-write loss — at least one point
// with LostAcked > 0 — and any point that lost acknowledged writes must
// show a diverged digest (the client was told those ops happened; the
// cluster disagrees).
func checkPartitionUnfenced(name string, pts []PartitionPoint) []string {
	if len(pts) == 0 {
		return []string{"partition: " + name + " series empty"}
	}
	clean, bad := checkPartitionBaseline(name, pts)
	anyLost := false
	for _, p := range pts[1:] {
		id := fmt.Sprintf("partition: %s %d-node cut of %s", name, p.Split, fmtSeconds(p.WindowSeconds))
		if p.Seconds <= 0 {
			bad = append(bad, id+" client script never finished")
			continue
		}
		if p.Failovers < 1 {
			bad = append(bad, id+" majority never elected a successor")
		}
		if p.LostAcked > 0 {
			anyLost = true
			if p.Digest == clean.Digest {
				bad = append(bad, fmt.Sprintf("%s lost %d acknowledged entries yet the digest did not change", id, p.LostAcked))
			}
		}
	}
	if !anyLost {
		bad = append(bad, "partition: "+name+" never lost an acknowledged write — the unfenced contrast measured nothing")
	}
	return bad
}
