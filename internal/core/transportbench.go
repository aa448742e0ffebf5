package core

// The lossy-network & integrity sweep: the Fig 4 AnswersCount workload
// re-run over a fabric that drops, corrupts or partitions messages, for
// every runtime in the comparison. The Big Data stacks ride the reliable
// transport (retry + verify + breaker) and the DFS's end-to-end
// checksums, so they complete with oracle-correct results and pay a
// measurable, monotone overhead; plain MPI is transport-fragile (§VI-D:
// a lost message deadlocks the job), while RunResilient's retransmission
// and partition-triggered rollback recover at checkpoint/restart cost.
// Everything is deterministic: CheckTransportSweep compares two runs.

import (
	"fmt"
	"time"

	"hpcbd/internal/chaos"
	"hpcbd/internal/cluster"
	"hpcbd/internal/sim"
	"hpcbd/internal/transport"
)

// TransportOverheadBound is the documented ceiling on Spark/Hadoop
// completion time under message loss relative to the loss-free run. The
// reliable transport turns each lost frame into a timeout plus a
// retransmission, so even the harshest point of the sweep (5% loss)
// must stay within this factor.
const TransportOverheadBound = 8.0

// TransportLossRates and TransportCorruptRates are the per-message fault
// probabilities the sweep injects (index 0 is the fault-free baseline).
var (
	TransportLossRates    = []float64{0, 0.001, 0.01, 0.05}
	TransportCorruptRates = []float64{0, 0.02, 0.1}
)

// TransportPoint is one (runtime, fault rate) cell of the sweep.
type TransportPoint struct {
	LossPct    float64 // message loss probability, percent
	CorruptPct float64 // message corruption probability, percent
	Partition  bool    // a partition window was injected
	Seconds    float64 // virtual completion time
	Completed  bool    // job finished AND its result matches the serial oracle

	// Reliable-transport counters, summed over the run's verified flows
	// (DFS metadata/read streams, shuffle fetches); bulk-flow counters
	// are folded in too, minus CorruptDelivered — an unverified write
	// pipeline legitimately delivers corrupt frames, which the DFS's
	// at-rest checksums catch instead.
	Sent, Retries, Timeouts, Duplicates int64
	BreakerTrips, FastFails             int64
	CorruptDropped, CorruptDelivered    int64
	PartitionDrops                      int64 // cluster-wide attempts swallowed by the cut

	// Engine-level recovery counters.
	FetchFailures   int64 // shuffle fetches that exhausted transport retries
	RecomputedParts int64 // partitions rebuilt through lineage
	Quarantined     int64 // corrupt DFS replicas detected and dropped
	Repaired        int64 // DFS blocks re-replicated after quarantine
	CorruptServed   int64 // corrupt bytes a DFS read returned (must stay 0)

	// MPI counters.
	LostMsgs    int64 // messages a plain world lost with no retry
	CommFaults  int64 // retransmissions a resilient world performed
	Restarts    int   // resilient rollbacks (partition-triggered here)
	RedoneIters int
}

// TransportSweepResult holds the full lossy-network sweep.
type TransportSweepResult struct {
	Nodes       int
	LossPcts    []float64        // percent, aligned with the loss series below
	CorruptPcts []float64        // percent, aligned with Corrupt
	SparkAC     []TransportPoint // Spark AnswersCount vs message loss
	HadoopAC    []TransportPoint // Hadoop MapReduce AnswersCount vs message loss
	MPIPlain    []TransportPoint // plain MPI (no delivery guarantee) vs loss
	MPIResil    []TransportPoint // RunResilient MPI (retransmit + rollback) vs loss
	Corrupt     []TransportPoint // Spark AnswersCount vs silent corruption

	// One partition window ([0.3T, 0.6T] of each runtime's clean T,
	// cutting off the last node) per runtime.
	PartSpark, PartHadoop, PartMPIPlain, PartMPIResil TransportPoint
}

// netSpec is one injected network condition.
type netSpec struct {
	loss, corrupt    float64
	partFrom, partTo time.Duration // partition window, relative to job start
	minority         int           // node cut off during the window
}

func (s netSpec) point() TransportPoint {
	return TransportPoint{LossPct: s.loss * 100, CorruptPct: s.corrupt * 100, Partition: s.partTo > 0}
}

// setup is the spec's AnswersCount stack. The message-fault model is on
// whenever the spec injects anything, and corruption is armed at once,
// so the DFS write pipeline (an unverified bulk flow, like real HDFS
// write checksum gaps on faulty NICs) seeds silently rotted replicas
// during staging for the read path's checksums to catch. Loss and
// partitions start after staging, which the paper's methodology
// excludes from measurement; under a partition the retry budget must
// not run out before the cut heals.
func (s netSpec) setup(o Options) acSetup {
	return acSetup{
		prep:  func(c *cluster.Cluster) { s.prep(c, o.Seed) },
		retry: s.partTo > 0,
		arm: func(p *sim.Proc, r *acRun) {
			if s.corrupt > 0 {
				// One deterministic at-rest corruption event: block 0's
				// replica on node 1 is bit-rotted, and a scrubber-style
				// probe read issued from that node (the client-preferred
				// replica is always tried first) detects it, quarantining
				// the copy and kicking off the background repair — so the
				// integrity machinery engages at every corruption rate,
				// independent of where the workload's locality-scheduled
				// tasks happen to land.
				r.fs.CorruptReplica(acFile, 0, 1)
				_ = r.fs.Read(p, 1, acFile, 0, 1)
			}
			s.install(r.c)
		},
	}
}

func (s netSpec) prep(c *cluster.Cluster, seed int64) {
	if s.loss > 0 || s.corrupt > 0 || s.partTo > 0 {
		c.EnableNetFaults(seed)
	}
	if s.corrupt > 0 {
		c.SetMsgCorrupt(s.corrupt)
	}
}

// install arms loss and partitions. The Spark and Hadoop points call it
// from the job's driving process after staging, which the paper's
// methodology excludes from measurement; the MPI points, which stage
// nothing, call it before launch. Constant rates take effect
// immediately, and a partition window is scheduled through the chaos
// engine so the cut opens and heals at reproducible virtual times.
func (s netSpec) install(c *cluster.Cluster) {
	if s.loss > 0 {
		c.SetMsgLoss(s.loss)
	}
	if s.partTo > 0 {
		chaos.Install(c, chaos.Script(chaos.Partition([][]int{{s.minority}}, s.partFrom, s.partTo)...))
	}
}

func (pt *TransportPoint) addStats(ss ...transport.Stats) {
	for _, s := range ss {
		pt.Sent += s.Sent
		pt.Retries += s.Retries
		pt.Timeouts += s.Timeouts
		pt.Duplicates += s.Duplicates
		pt.BreakerTrips += s.BreakerTrips
		pt.FastFails += s.FastFails
		pt.CorruptDropped += s.CorruptDropped
		pt.CorruptDelivered += s.CorruptDelivered
	}
}

// TransportSweep measures completion time and recovery activity for each
// runtime under message loss, silent corruption and a network partition.
// Fault coins attach to logical message sequence numbers, so raising a
// rate strictly grows the fault set and overhead monotonicity is exactly
// checkable, point by point. Every point is a job of its own, in two
// rounds: the resilient MPI points under loss and the partition windows
// need a clean run's duration, so they run after the rest.
func TransportSweep(o Options) TransportSweepResult {
	nodes := sweepNodes(o, 4)
	nl := len(TransportLossRates)
	res := TransportSweepResult{Nodes: nodes, SparkAC: make([]TransportPoint, nl), HadoopAC: make([]TransportPoint, nl),
		MPIPlain: make([]TransportPoint, nl), MPIResil: make([]TransportPoint, nl),
		Corrupt: make([]TransportPoint, len(TransportCorruptRates))}
	jobs := []job{{2, func() { res.MPIResil[0] = mpiTransportPoint(o, nodes, netSpec{}, true, 0) }}}
	for i, r := range TransportLossRates {
		res.LossPcts = append(res.LossPcts, r*100)
		jobs = append(jobs,
			job{1, func() { res.MPIPlain[i] = mpiTransportPoint(o, nodes, netSpec{loss: r}, false, 0) }},
			job{0, func() { res.SparkAC[i] = acTransport(o, nodes, netSpec{loss: r}, sparkAC) }},
			job{0, func() { res.HadoopAC[i] = acTransport(o, nodes, netSpec{loss: r}, hadoopAC) }})
	}
	// Corruption series: the clean point is the same run as the loss
	// series' baseline, so it is reused rather than re-measured.
	res.CorruptPcts = []float64{0}
	for i, r := range TransportCorruptRates[1:] {
		res.CorruptPcts = append(res.CorruptPcts, r*100)
		jobs = append(jobs, job{0, func() { res.Corrupt[i+1] = acTransport(o, nodes, netSpec{corrupt: r}, sparkAC) }})
	}
	runLargestFirst(jobs)
	res.Corrupt[0] = res.SparkAC[0]
	penalty := chaosRestartPen(virtual(res.MPIResil[0].Seconds))

	// The window is placed where each runtime actually talks (in
	// twentieths of the clean run). Spark front-loads its network
	// activity — namenode RPCs at task start, then local disk and
	// compute — so its cut opens with the job and heals at T/2: a job
	// submitted into a split cluster. Hadoop spends seconds in job
	// submission before any task runs, so its cut spans the map/shuffle
	// phase at [0.55T, 0.9T]. MPI communicates every iteration; a
	// mid-job window [0.3T, 0.6T] crosses its traffic while staying
	// clear of the resilient world's initial epoch snapshot.
	window := func(cleanSeconds float64, from20, to20 int) netSpec {
		T := virtual(cleanSeconds)
		return netSpec{partFrom: time.Duration(from20) * T / 20,
			partTo: time.Duration(to20) * T / 20, minority: nodes - 1}
	}
	spark, hadoop := window(res.SparkAC[0].Seconds, 0, 10), window(res.HadoopAC[0].Seconds, 11, 18)
	plain, resil := window(res.MPIPlain[0].Seconds, 6, 12), window(res.MPIResil[0].Seconds, 6, 12)
	jobs = []job{
		{1, func() { res.PartMPIResil = mpiTransportPoint(o, nodes, resil, true, penalty) }},
		{1, func() { res.PartMPIPlain = mpiTransportPoint(o, nodes, plain, false, 0) }},
		{0, func() { res.PartSpark = acTransport(o, nodes, spark, sparkAC) }},
		{0, func() { res.PartHadoop = acTransport(o, nodes, hadoop, hadoopAC) }},
	}
	for i, r := range TransportLossRates[1:] {
		jobs = append(jobs, job{1, func() { res.MPIResil[i+1] = mpiTransportPoint(o, nodes, netSpec{loss: r}, true, penalty) }})
	}
	runLargestFirst(jobs)
	return res
}

// acTransport runs the Spark or Hadoop AnswersCount job under one network
// condition. Map-side DFS reads ride the verified metadata transport and
// shuffle fetches the job's own, re-attempting the task (Hadoop) or
// recomputing through lineage (Spark) when retries run out. Counters are
// read after the kernel drains so background repairs the quarantine
// spawned are included.
func acTransport(o Options, nodes int, spec netSpec, run acRunner) TransportPoint {
	r := run(o, nodes, spec.setup(o))
	pt := spec.point()
	pt.Completed, pt.Seconds = r.ok, r.secs
	pt.FetchFailures = r.fetchFailures
	if r.ctx != nil {
		pt.RecomputedParts = r.ctx.RecomputedPart
	}
	pt.Quarantined = r.fs.Quarantined()
	pt.Repaired = r.fs.BlocksRereplicated()
	pt.CorruptServed = r.fs.CorruptServed()
	meta, bulk := r.fs.TransportStats()
	bulk.CorruptDelivered = 0 // unverified flow; caught by DFS checksums instead
	pt.addStats(meta, r.shuffle, bulk)
	pt.PartitionDrops = r.c.PartitionDrops()
	return pt
}

// mpiTransportPoint runs the PageRank-shaped iterative MPI job (per-rank
// compute plus one allreduce per iteration) under one network condition.
// A plain world has no delivery guarantee: the first lost message parks
// a receiver forever and the job never finishes — the kernel simply runs
// out of runnable work. A resilient world retransmits dropped sends and
// treats a partition seen at a barrier as a rollback-worthy failure.
func mpiTransportPoint(o Options, nodes int, spec netSpec, resilient bool, penalty time.Duration) TransportPoint {
	pt := spec.point()
	c := newCluster(o.Seed, nodes)
	spec.prep(c, o.Seed)
	spec.install(c)
	if resilient {
		st := runResilientLoop(o, c, nodes, 8*o.PRIters, o.PRIters, penalty)
		pt.Seconds, pt.Completed = st.Seconds, st.Completed
		pt.Restarts, pt.RedoneIters, pt.CommFaults = st.Restarts, st.RedoneIters, st.CommFaults
	} else {
		l := prPlain(o, c, nodes)
		pt.Seconds, pt.Completed, pt.LostMsgs = l.secs, l.done(), l.w.LostMsgs()
	}
	pt.PartitionDrops = c.PartitionDrops()
	return pt
}

// CheckTransportSweep verifies the lossy-network findings on two
// independently executed sweeps:
//
//   - determinism: identical seeds produce bit-identical times and counters;
//   - integrity: no corrupt byte ever reaches a consumer — verified flows
//     deliver nothing corrupt, and DFS reads never serve a rotted replica;
//   - Spark and Hadoop complete with oracle-correct results at every loss
//     rate, with monotone nondecreasing overhead within the bound, and the
//     retry machinery demonstrably engaged at the top rate;
//   - plain MPI completes loss-free but deadlocks once messages vanish;
//   - resilient MPI always completes; loss costs retransmissions, a
//     partition forces at least one rollback.
func CheckTransportSweep(a, b TransportSweepResult) []string {
	bad := determinism("net", a, b)
	bad = append(bad, checkNetSeries("spark-ac", a.SparkAC)...)
	bad = append(bad, checkNetSeries("hadoop-ac", a.HadoopAC)...)

	for _, set := range [][]TransportPoint{a.SparkAC, a.HadoopAC, a.MPIPlain, a.MPIResil, a.Corrupt,
		{a.PartSpark, a.PartHadoop, a.PartMPIPlain, a.PartMPIResil}} {
		for _, p := range set {
			if p.CorruptServed != 0 {
				bad = append(bad, fmt.Sprintf("net: a DFS read served %d corrupt replicas", p.CorruptServed))
			}
			if p.CorruptDelivered != 0 {
				bad = append(bad, fmt.Sprintf("net: a verified flow delivered %d corrupt frames", p.CorruptDelivered))
			}
		}
	}

	m := a.MPIPlain
	if len(m) > 0 {
		if !m[0].Completed {
			bad = append(bad, "net: loss-free plain MPI did not complete")
		}
		for i, p := range m[1:] {
			if p.LossPct >= 1 && p.Completed {
				bad = append(bad, fmt.Sprintf("net: plain MPI completed at %.1f%% loss (should deadlock)", p.LossPct))
			}
			if p.LostMsgs > 0 && p.Completed {
				bad = append(bad, fmt.Sprintf("net: plain MPI run %d lost %d messages yet completed", i+1, p.LostMsgs))
			}
			if p.LossPct >= 1 && p.LostMsgs == 0 {
				bad = append(bad, fmt.Sprintf("net: plain MPI at %.1f%% loss lost no messages (sweep tested nothing)", p.LossPct))
			}
		}
	}

	r := a.MPIResil
	for i, p := range r {
		if !p.Completed {
			bad = append(bad, fmt.Sprintf("net: resilient MPI run %d (loss %.1f%%) did not complete", i, p.LossPct))
		}
		if p.Restarts != 0 {
			bad = append(bad, fmt.Sprintf("net: resilient MPI rolled back %d times under loss alone", p.Restarts))
		}
		if i > 0 && p.Seconds < r[i-1].Seconds {
			bad = append(bad, fmt.Sprintf("net: resilient MPI time fell from %s to %s as loss rose",
				fmtSeconds(r[i-1].Seconds), fmtSeconds(p.Seconds)))
		}
	}
	if len(r) > 0 && r[len(r)-1].CommFaults == 0 {
		bad = append(bad, "net: highest loss rate never forced an MPI retransmission (sweep tested nothing)")
	}

	for i, p := range a.Corrupt {
		if !p.Completed {
			bad = append(bad, fmt.Sprintf("net: corruption run %d (%.1f%%) failed or returned a wrong result", i, p.CorruptPct))
		}
		if i == 0 {
			continue
		}
		if p.Quarantined == 0 || p.Repaired == 0 {
			bad = append(bad, fmt.Sprintf("net: corruption at %.1f%% never exercised quarantine+repair (q=%d r=%d)",
				p.CorruptPct, p.Quarantined, p.Repaired))
		}
	}
	if n := len(a.Corrupt); n > 1 && a.Corrupt[n-1].CorruptDropped == 0 {
		bad = append(bad, "net: highest corruption rate never tripped transport verification")
	}

	if !a.PartSpark.Completed || a.PartSpark.PartitionDrops == 0 {
		bad = append(bad, "net: Spark did not ride out the partition window")
	}
	if !a.PartHadoop.Completed || a.PartHadoop.PartitionDrops == 0 {
		bad = append(bad, "net: Hadoop did not ride out the partition window")
	}
	if a.PartMPIPlain.Completed || a.PartMPIPlain.LostMsgs == 0 {
		bad = append(bad, "net: plain MPI survived the partition (it must deadlock)")
	}
	if !a.PartMPIResil.Completed || a.PartMPIResil.Restarts == 0 {
		bad = append(bad, "net: resilient MPI did not roll back across the partition")
	}
	return bad
}

// checkNetSeries validates one Big Data loss series.
func checkNetSeries(name string, pts []TransportPoint) []string {
	var bad []string
	if len(pts) == 0 {
		return []string{"net: " + name + " series empty"}
	}
	clean := pts[0]
	if clean.LossPct != 0 || !clean.Completed || clean.Seconds <= 0 {
		bad = append(bad, "net: "+name+" has no valid loss-free baseline")
	}
	if clean.Retries != 0 || clean.Timeouts != 0 {
		bad = append(bad, "net: "+name+" loss-free run saw transport recovery activity")
	}
	for i, p := range pts[1:] {
		if !p.Completed {
			bad = append(bad, fmt.Sprintf("net: %s run %d (loss %.1f%%) failed or produced a wrong result", name, i+1, p.LossPct))
			continue
		}
		if over := p.Seconds / clean.Seconds; over > TransportOverheadBound {
			bad = append(bad, fmt.Sprintf("net: %s at %.1f%% loss took %.2fx the clean run (bound %.1fx)",
				name, p.LossPct, over, TransportOverheadBound))
		}
		// Fault coins attach to message sequence numbers, so a higher
		// rate's fault set contains the lower rate's and time cannot
		// fall (beyond scheduling noise at the same fault set).
		if prev := pts[i]; p.Seconds < prev.Seconds*0.999 {
			bad = append(bad, fmt.Sprintf("net: %s time fell from %s to %s as loss rose %.1f%%->%.1f%%",
				name, fmtSeconds(prev.Seconds), fmtSeconds(p.Seconds), prev.LossPct, p.LossPct))
		}
	}
	last := pts[len(pts)-1]
	if last.Retries == 0 {
		bad = append(bad, "net: "+name+" highest loss rate never forced a retry (sweep tested nothing)")
	}
	return bad
}

// TransportTables renders the sweep as report tables.
func TransportTables(r TransportSweepResult) []Table {
	rate := func(pct float64, part bool) string {
		if part {
			return "partition"
		}
		if pct == 0 {
			return "none"
		}
		return fmt.Sprintf("%g%%", pct)
	}
	series := func(id, title string, pts []TransportPoint, part TransportPoint) Table {
		return seriesTable(id, title, []string{"fault", "done", "sent", "retries", "dup dropped", "fetch fails", "part drops"},
			append(append([]TransportPoint(nil), pts...), part), func(p TransportPoint) (string, []string) {
				return rate(p.LossPct, p.Partition), []string{fmt.Sprintf("%v", p.Completed),
					fmtInt(p.Sent), fmtInt(p.Retries), fmtInt(p.Duplicates), fmtInt(p.FetchFailures), fmtInt(p.PartitionDrops)}
			})
	}
	out := []Table{
		series("net-spark-ac", "Spark AnswersCount under message loss (reliable transport + lineage)", r.SparkAC, r.PartSpark),
		series("net-hadoop-ac", "Hadoop AnswersCount under message loss (fetch retry + task re-attempt)", r.HadoopAC, r.PartHadoop),
	}
	mt := Table{ID: "net-mpi", Title: "MPI under message loss: plain (fragile) vs resilient (retransmit + rollback)",
		Columns: []string{"fault", "plain time", "plain done", "msgs lost", "resil time", "resil done", "retransmits", "rollbacks"}}
	resil := append(append([]TransportPoint(nil), r.MPIResil...), r.PartMPIResil)
	for i, p := range append(append([]TransportPoint(nil), r.MPIPlain...), r.PartMPIPlain) {
		q := resil[i]
		mt.Rows = append(mt.Rows, []string{rate(p.LossPct, p.Partition), fmtSeconds(p.Seconds),
			fmt.Sprintf("%v", p.Completed), fmtInt(p.LostMsgs),
			fmtSeconds(q.Seconds), fmt.Sprintf("%v", q.Completed), fmtInt(q.CommFaults), fmtInt(int64(q.Restarts))})
	}
	out = append(out, mt)

	ct := Table{ID: "net-corrupt", Title: "Spark AnswersCount under silent corruption (checksums + quarantine + repair)",
		Columns: []string{"corrupt", "time", "done", "verify drops", "quarantined", "repaired", "corrupt served"}}
	for _, p := range r.Corrupt {
		ct.Rows = append(ct.Rows, []string{rate(p.CorruptPct, false), fmtSeconds(p.Seconds),
			fmt.Sprintf("%v", p.Completed), fmtInt(p.CorruptDropped),
			fmtInt(p.Quarantined), fmtInt(p.Repaired), fmtInt(p.CorruptServed)})
	}
	return append(out, ct)
}
