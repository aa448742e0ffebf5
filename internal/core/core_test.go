package core

import (
	"runtime"
	"strings"
	"testing"

	"hpcbd/internal/rdd"
	"hpcbd/internal/sim"
	"hpcbd/internal/workload"
)

func TestTable1MatchesPaper(t *testing.T) {
	tab := Table1()
	s := tab.String()
	for _, want := range []string{"E5-2680v3", "2.5 GHz", "960 GFlop/s", "128 GB", "InfiniBand"} {
		if !strings.Contains(s, want) {
			t.Errorf("Table I missing %q:\n%s", want, s)
		}
	}
	// The Full preset carries the paper's dataset sizes; Quick shrinks them.
	full, quick := Full(), Quick()
	if full.ACBytes != 80e9 {
		t.Errorf("full AC dataset %g, want the paper's 80 GB", float64(full.ACBytes))
	}
	if full.PRLogicalVertices != 1_000_000 {
		t.Errorf("full PR vertices %d, want the paper's 1M", full.PRLogicalVertices)
	}
	if quick.ACBytes >= full.ACBytes {
		t.Error("quick options not smaller than full")
	}
}

func TestFig3ShapeHolds(t *testing.T) {
	fig := Fig3(Quick())
	if v := CheckFig3(fig); len(v) != 0 {
		t.Errorf("fig3 shape violations: %v\n%s", v, fig)
	}
}

func TestFig3ExtendedHasSHMEMSeries(t *testing.T) {
	o := Quick()
	o.ReduceSizes = []int64{4, 4096}
	fig := Fig3Extended(o)
	sh, ok := fig.Get("OpenSHMEM")
	if !ok || len(sh.Points) != 2 {
		t.Fatalf("OpenSHMEM series missing: %+v", fig.Series)
	}
	// PGAS reduce should be in the HPC latency class: far below Spark.
	spark, _ := fig.Get("Spark")
	for _, p := range sh.Points {
		if sy, ok := spark.Y(p.X); ok && p.Y > sy/5 {
			t.Errorf("at %gB OpenSHMEM (%.6fs) not well below Spark (%.6fs)", p.X, p.Y, sy)
		}
	}
}

// TestMPIReduceLatencyPinsOneMessage runs Fig 3's 1 MiB MPI point (64
// ranks at 8 per node, 262,144 float32 elements, one iteration) between
// two GCs. Its ranks share one 2 MiB input, not one each (128 MiB), and
// its 2 MiB leaf snapshots die with the world instead of staying alive in
// a process-wide pool's victim cache (64 MiB) after the run.
func TestMPIReduceLatencyPinsOneMessage(t *testing.T) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if lat := MPIReduceLatency(newCluster(1, 8), 64, 8, 1<<18, 1); lat <= 0 {
		t.Fatalf("latency %v, want > 0", lat)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if live := int64(after.HeapAlloc) - int64(before.HeapAlloc); live >= 8<<20 {
		t.Errorf("live heap grew %.1f MiB across the run, want < 8 MiB", float64(live)/(1<<20))
	}
	if total := after.TotalAlloc - before.TotalAlloc; total >= 80<<20 {
		t.Errorf("run allocated %.1f MiB, want < 80 MiB", float64(total)/(1<<20))
	}
}

func TestTable2ShapeHolds(t *testing.T) {
	o := Quick()
	vals := Table2Values(o)
	if v := CheckTable2(vals); len(v) != 0 {
		t.Errorf("table2 shape violations: %v (values %v)", v, vals)
	}
}

func TestFig4ShapeAndAgreement(t *testing.T) {
	o := Quick()
	fig, results := Fig4(o)
	if v := CheckFig4(fig, results, o.ACBytes); len(v) != 0 {
		t.Errorf("fig4 violations: %v\n%s", v, fig)
	}
}

// TestFig4LeavesNoGoroutines: every kernel a figure builds reclaims its
// coroutines when Run returns, so regenerating a figure again and again
// (the ledger's passes, a long sweep) holds the goroutine count flat
// instead of parking a few hundred more per call.
func TestFig4LeavesNoGoroutines(t *testing.T) {
	o := Quick()
	Fig4(o) // starts the process-wide worker pool, which stays
	base := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		Fig4(o)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("%d goroutines after three more Fig4 runs, %d after the first", n, base)
	}
}

func TestFig4MPIIntLimit(t *testing.T) {
	// At the paper's 80 GB, MPI must be marked non-runnable below 40
	// processes and runnable above.
	o := Quick()
	o.ACBytes = 80e9
	o.ACProcs = []int{32, 40}
	o.ACPPN = 8
	// Keep the test fast: only the MPI series matters here.
	d := workload.NewStackExchange(o.Seed, o.ACBytes, o.ACRecordBytes, o.ACStride)
	low := MPIAnswersCount(newCluster(o.Seed, 4), d, 32, 8)
	if low.Err == nil {
		t.Error("MPI ran at 32 procs with 2.5GB chunks (C int overflow expected)")
	}
	high := MPIAnswersCount(newCluster(o.Seed, 5), d, 40, 8)
	if high.Err != nil {
		t.Errorf("MPI failed at 40 procs: %v", high.Err)
	}
	if high.Err == nil {
		ref := d.SerialAnswersCount()
		if high.Questions != ref.Questions || high.Answers != ref.Answers {
			t.Errorf("MPI counted %d/%d, serial %d/%d", high.Questions, high.Answers, ref.Questions, ref.Answers)
		}
	}
}

func TestFig6ShapeAndCorrectness(t *testing.T) {
	o := Quick()
	fig, ranks := Fig6(o)
	if v := CheckFig6(fig, ranks); len(v) != 0 {
		t.Errorf("fig6 violations: %v\n%s", v, fig)
	}
}

func TestFig7ShapeAndCorrectness(t *testing.T) {
	o := Quick()
	fig, ranks := Fig7(o)
	if v := CheckFig7(fig, ranks); len(v) != 0 {
		t.Errorf("fig7 violations: %v\n%s", v, fig)
	}
}

func TestAblationPersistSpeedsUp(t *testing.T) {
	o := Quick()
	tuned, untuned := AblationPersist(o, 2)
	if untuned <= tuned {
		t.Errorf("persist did not speed up PageRank: tuned=%.3fs untuned=%.3fs", tuned, untuned)
	}
	if ratio := untuned / tuned; ratio < 1.2 {
		t.Errorf("persist speedup %.2fx, want a large improvement (paper: ~3x)", ratio)
	}
}

func TestTable3CountsImplementations(t *testing.T) {
	stats, err := LoCStats()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{
		"reduce/mpi": true, "reduce/spark": true, "reduce/shmem": true,
		"answerscount/openmp": true, "answerscount/mpi": true,
		"answerscount/spark": true, "answerscount/hadoop": true,
		"pagerank/mpi": true, "pagerank/spark": true,
	}
	got := map[string]LoCStat{}
	for _, s := range stats {
		got[s.Benchmark+"/"+s.Framework] = s
	}
	for k := range want {
		s, ok := got[k]
		if !ok {
			t.Errorf("missing LoC region %s", k)
			continue
		}
		if s.Lines <= 0 || s.Boilerplate < 0 || s.Boilerplate > s.Lines {
			t.Errorf("%s: implausible counts %+v", k, s)
		}
	}
	// Paper's Table III findings: Hadoop has the most boilerplate for
	// AnswersCount; MPI's explicit control shows in its PageRank size.
	if got["answerscount/hadoop"].Boilerplate <= got["answerscount/mpi"].Boilerplate {
		t.Errorf("Hadoop boilerplate (%d) not above MPI (%d)",
			got["answerscount/hadoop"].Boilerplate, got["answerscount/mpi"].Boilerplate)
	}
	tab, err := Table3()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != len(stats) {
		t.Errorf("table rows %d != stats %d", len(tab.Rows), len(stats))
	}
}

func TestFigureRendering(t *testing.T) {
	fig := Figure{
		ID: "figX", Title: "demo", XLabel: "n", YLabel: "t",
		Series: []Series{
			{Name: "A", Points: []Point{{X: 1, Y: 0.5, OK: true}, {X: 2, Y: 0.25, OK: true}}},
			{Name: "B", Points: []Point{{X: 1, Y: 1.5, OK: true}, {X: 2, OK: false}}},
		},
	}
	s := fig.String()
	for _, want := range []string{"FIGX", "A", "B", "500.000ms", "n/a"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendering missing %q:\n%s", want, s)
		}
	}
	csv := fig.CSV()
	if !strings.HasPrefix(csv, "n,A,B\n1,0.500000,1.500000\n") {
		t.Errorf("csv:\n%s", csv)
	}
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != 3 {
		t.Errorf("csv lines %d, want 3", len(lines))
	}
}

func TestTableRendering(t *testing.T) {
	tab := Table{ID: "t", Title: "demo", Columns: []string{"a", "b"}, Rows: [][]string{{"x", "y"}}}
	if s := tab.String(); !strings.Contains(s, "a") || !strings.Contains(s, "x") {
		t.Errorf("table rendering:\n%s", s)
	}
	if csv := tab.CSV(); csv != "a,b\nx,y\n" {
		t.Errorf("table csv %q", csv)
	}
}

func TestExperimentsDeterministic(t *testing.T) {
	o := Quick()
	o.ReduceSizes = []int64{1024}
	a, b := Fig3(o), Fig3(o)
	for i := range a.Series {
		for j := range a.Series[i].Points {
			if a.Series[i].Points[j] != b.Series[i].Points[j] {
				t.Fatalf("fig3 not deterministic: %+v vs %+v",
					a.Series[i].Points[j], b.Series[i].Points[j])
			}
		}
	}
}

func TestAblationReplicationLocality(t *testing.T) {
	tab := AblationReplication(Quick())
	if len(tab.Rows) != 4 {
		t.Fatalf("rows %d, want 4", len(tab.Rows))
	}
	// Last row (replication == nodes) must be 100% local.
	last := tab.Rows[len(tab.Rows)-1]
	if last[3] != "100%" {
		t.Errorf("replication=nodes locality %s, want 100%%", last[3])
	}
	// Locality must not decrease as replication grows.
	if tab.Rows[0][3] > last[3] && tab.Rows[0][3] != "100%" {
		// string compare is fine for NN% with same width; do a sanity check only
		t.Logf("locality rows: %v", tab.Rows)
	}
}

func TestAblationFaults(t *testing.T) {
	o := Quick()
	o.PRIters = 4
	fa := AblationFaults(o)
	if !fa.DFSKillOK {
		t.Error("DFS read across datanode death failed")
	}
	if fa.SparkFailure <= fa.SparkClean {
		t.Errorf("executor kill did not cost time: clean=%.3f failure=%.3f", fa.SparkClean, fa.SparkFailure)
	}
	if fa.SparkRecomputed == 0 {
		t.Error("no lineage recomputation recorded")
	}
	if fa.MPICheckpoint <= fa.MPIClean {
		t.Errorf("checkpointing free: clean=%.3f ckpt=%.3f", fa.MPIClean, fa.MPICheckpoint)
	}
	if fa.MPIRecovery <= fa.MPICheckpoint {
		t.Errorf("rollback free: ckpt=%.3f recovery=%.3f", fa.MPICheckpoint, fa.MPIRecovery)
	}
	if tab := fa.Table(); len(tab.Rows) != 6 {
		t.Errorf("fault table rows %d", len(tab.Rows))
	}
}

func TestAblationRDA(t *testing.T) {
	ab := AblationRDA(Quick())
	if ab.CkptRecovery >= ab.ReplayRecovery {
		t.Errorf("checkpoint restore (%.6f) not faster than deep replay (%.6f)", ab.CkptRecovery, ab.ReplayRecovery)
	}
	if ab.CkptOverhead <= 0 {
		t.Error("checkpoint overhead not charged")
	}
}

func TestMRMPIAnswersCountMatchesOracle(t *testing.T) {
	o := Quick()
	d := workload.NewStackExchange(o.Seed, o.ACBytes, o.ACRecordBytes, o.ACStride)
	ref := d.SerialAnswersCount()
	for _, nb := range []bool{false, true} {
		r := MRMPIAnswersCount(newCluster(o.Seed, 2), d, 16, 8, nb)
		if r.Err != nil {
			t.Fatalf("nonblocking=%v: %v", nb, r.Err)
		}
		if r.Questions != ref.Questions || r.Answers != ref.Answers {
			t.Errorf("nonblocking=%v: counted %d/%d, serial %d/%d",
				nb, r.Questions, r.Answers, ref.Questions, ref.Answers)
		}
	}
}

func TestAblationMRMPIBeatsHadoop(t *testing.T) {
	o := Quick()
	tab, times := AblationMRMPI(o)
	if len(tab.Rows) != 3 {
		t.Fatalf("rows %d", len(tab.Rows))
	}
	// [37]: orders of magnitude over Hadoop.
	speedup := times["Hadoop"] / times["MR-MPI (blocking)"]
	if speedup < 10 {
		t.Errorf("MR-MPI only %.1fx over Hadoop; paper's [37] reports >100x", speedup)
	}
	// [36]: non-blocking no slower than blocking.
	if times["MR-MPI (non-blocking)"] > times["MR-MPI (blocking)"] {
		t.Errorf("non-blocking (%.4fs) slower than blocking (%.4fs)",
			times["MR-MPI (non-blocking)"], times["MR-MPI (blocking)"])
	}
}

func TestAblationInterconnectOrdering(t *testing.T) {
	o := Quick()
	_, times := AblationInterconnect(o)
	eth := times["Ethernet 10G sockets"]
	ipoib := times["IPoIB sockets"]
	rdma := times["RDMA shuffle + IPoIB control"]
	if !(rdma <= ipoib && ipoib <= eth) {
		t.Errorf("transport ordering violated: eth=%.3f ipoib=%.3f rdma=%.3f", eth, ipoib, rdma)
	}
	if rdma >= eth {
		t.Errorf("RDMA (%.3f) not faster than Ethernet (%.3f)", rdma, eth)
	}
}

func TestAblationFilesystemOrdering(t *testing.T) {
	o := Quick()
	_, times := AblationFilesystem(o)
	nfs := times["MPI on shared NFS"]
	scratch := times["MPI on local scratch"]
	if scratch >= nfs {
		t.Errorf("local scratch (%.3f) not faster than shared NFS (%.3f)", scratch, nfs)
	}
	if times["Spark on DFS"] <= 0 {
		t.Error("Spark on DFS did not run")
	}
}

func TestAblationScheduler(t *testing.T) {
	tab, out := AblationScheduler(Quick())
	if len(tab.Rows) != 3 {
		t.Fatalf("rows %d", len(tab.Rows))
	}
	fifo := out["Slurm-like FIFO"]
	backfill := out["Slurm-like backfill"]
	yarn := out["YARN-like containers"]
	if backfill.MeanWait > fifo.MeanWait {
		t.Errorf("backfill mean wait %v above FIFO %v", backfill.MeanWait, fifo.MeanWait)
	}
	if yarn.MeanWait >= fifo.MeanWait {
		t.Errorf("containers mean wait %v not below exclusive-node FIFO %v", yarn.MeanWait, fifo.MeanWait)
	}
	if yarn.Utilization <= fifo.Utilization {
		t.Errorf("containers utilization %.2f not above FIFO %.2f", yarn.Utilization, fifo.Utilization)
	}
}

func TestAblationTopologyMonotone(t *testing.T) {
	_, times := AblationTopology(Quick())
	flat := times["full bisection"]
	two := times["fat-tree 2:1"]
	four := times["fat-tree 4:1"]
	if !(flat <= two && two <= four) {
		t.Errorf("oversubscription not monotone: flat=%.3f 2:1=%.3f 4:1=%.3f", flat, two, four)
	}
	if four <= flat {
		t.Errorf("4:1 fat-tree (%.3f) not slower than full bisection (%.3f)", four, flat)
	}
}

func TestSaveTextToDFS(t *testing.T) {
	o := Quick()
	c := newCluster(o.Seed, 3)
	fs := dfsIPoIB(c)
	conf := rdd.DefaultConfig()
	conf.Scale = 1000
	ctx := rdd.NewContext(c, conf)
	var names []string
	c.K.Spawn("driver", func(p *sim.Proc) {
		data := make([]int, 3000)
		r := rdd.Parallelize(ctx, "out", data, 6, 64)
		if err := SaveTextToDFS(p, r, fs, "/out", conf.Scale); err != nil {
			t.Error(err)
		}
		names = fs.List("/out/")
	})
	c.K.Run()
	if len(names) != 6 {
		t.Fatalf("part files %d, want 6: %v", len(names), names)
	}
	var total int64
	for _, n := range names {
		sz, err := fs.Stat(n)
		if err != nil {
			t.Fatal(err)
		}
		total += sz
	}
	want := int64(3000) * 1000 * 64
	if total != want {
		t.Errorf("saved %d logical bytes, want %d", total, want)
	}
	// Disk writes must reflect the replicated pipeline.
	var written int64
	for i := 0; i < c.Size(); i++ {
		written += c.Node(i).Scratch.BytesWritten()
	}
	if written < want*2 { // replication clamped to 3 on a 3-node cluster
		t.Errorf("disk writes %d below replicated volume", written)
	}
}

func TestKMeansAllFrameworksMatchOracle(t *testing.T) {
	o := Quick()
	d := workload.NewKMeans(o.Seed, 600, 1_000_000, 4, 6)
	iters := 4
	want := d.SerialKMeans(iters)
	check := func(name string, got KMResult) {
		t.Helper()
		if got.Err != nil {
			t.Fatalf("%s: %v", name, got.Err)
		}
		if len(got.Centers) != len(want) {
			t.Fatalf("%s: %d centers, want %d", name, len(got.Centers), len(want))
		}
		for c := range want {
			for j := range want[c] {
				diff := got.Centers[c][j] - want[c][j]
				if diff < -1e-9 || diff > 1e-9 {
					t.Fatalf("%s: center %d dim %d = %f, want %f", name, c, j, got.Centers[c][j], want[c][j])
				}
			}
		}
	}
	check("MPI", MPIKMeans(newCluster(o.Seed, 2), d, 16, 8, iters))
	check("Spark", SparkKMeans(newCluster(o.Seed, 2), d, 2, 8, iters))
	check("OpenMP", OMPKMeans(newCluster(o.Seed, 1), d, 8, iters))
}

func TestAblationKMeansShape(t *testing.T) {
	o := Quick()
	tab, out := AblationKMeans(o, 2, 8, 3)
	if len(tab.Rows) != 3 {
		t.Fatalf("rows %d", len(tab.Rows))
	}
	// HPC-favoured compute-bound workload: MPI fastest (the [38] finding
	// that the HPC ecosystem wins k-means at this scale).
	if out["MPI"].Seconds >= out["Spark"].Seconds {
		t.Errorf("MPI (%.3fs) not faster than Spark (%.3fs)", out["MPI"].Seconds, out["Spark"].Seconds)
	}
	if out["MPI"].Seconds >= out["OpenMP (1 node)"].Seconds {
		t.Errorf("multi-node MPI (%.3fs) not faster than single-node OpenMP (%.3fs)",
			out["MPI"].Seconds, out["OpenMP (1 node)"].Seconds)
	}
}

func TestAblationOffloadCrossover(t *testing.T) {
	_, out := AblationOffload(Quick())
	low, high := out["0.25"], out["1024"]
	// Low arithmetic intensity: offload buys (almost) nothing — disk and
	// PCIe data movement dominate, the §III-D "very high cost of
	// transferring data" effect.
	if gain := low[0] / low[1]; gain > 1.1 {
		t.Errorf("low intensity: GPU gained %.2fx; transfers should erase the benefit", gain)
	}
	// High intensity: transfers amortize and the device wins big.
	if gain := high[0] / high[1]; gain < 10 {
		t.Errorf("high intensity: GPU gained only %.1fx", gain)
	}
}

func TestAblationMemoryPressure(t *testing.T) {
	o := Quick()
	o.PRIters = 3
	_, out := AblationMemory(o)
	ample, starved := out["ample (96 GiB)"], out["starved"]
	if ample[1] != 0 {
		t.Errorf("ample memory evicted %0.f blocks", ample[1])
	}
	if starved[1] == 0 {
		t.Error("starved memory evicted nothing")
	}
	if starved[0] <= ample[0] {
		t.Errorf("starved run (%.3fs) not slower than ample (%.3fs)", starved[0], ample[0])
	}
}

func TestFigurePlot(t *testing.T) {
	fig := Figure{
		ID: "p", Title: "demo", XLabel: "x", YLabel: "t", XLog: true,
		Series: []Series{
			{Name: "fast", Points: []Point{{X: 4, Y: 1e-5, OK: true}, {X: 1024, Y: 1e-4, OK: true}}},
			{Name: "slow", Points: []Point{{X: 4, Y: 1e-2, OK: true}, {X: 1024, Y: 2e-2, OK: true}}},
		},
	}
	s := fig.Plot(40, 10)
	if !strings.Contains(s, "*") || !strings.Contains(s, "o") {
		t.Errorf("plot missing series marks:\n%s", s)
	}
	if !strings.Contains(s, "fast") || !strings.Contains(s, "slow") {
		t.Errorf("plot missing legend:\n%s", s)
	}
	// Degenerate figures must not panic.
	empty := Figure{ID: "e", Title: "none", Series: []Series{{Name: "a"}}}
	if out := empty.Plot(10, 4); !strings.Contains(out, "no plottable") {
		t.Errorf("empty plot: %q", out)
	}
}

func TestScanRegionsEdgeCases(t *testing.T) {
	src := `
// bench:x:alpha:begin
line1()
// a comment does not count
// bp:begin
setup()
// bp:end
line2()
// bench:x:alpha:end
stray()
// bench:y:beta:begin
only()
`
	stats := scanRegions(src)
	if len(stats) != 1 {
		t.Fatalf("regions %d, want 1 (unterminated region dropped)", len(stats))
	}
	s := stats[0]
	if s.Benchmark != "x" || s.Framework != "alpha" {
		t.Errorf("region identity %+v", s)
	}
	if s.Lines != 3 || s.Boilerplate != 1 {
		t.Errorf("lines=%d bp=%d, want 3/1", s.Lines, s.Boilerplate)
	}
}

func TestFormatHelpers(t *testing.T) {
	cases := map[float64]string{
		250:    "250.0s",
		2.5:    "2.50s",
		0.025:  "25.000ms",
		2.5e-6: "2.50us",
	}
	for in, want := range cases {
		if got := fmtSeconds(in); got != want {
			t.Errorf("fmtSeconds(%g) = %q, want %q", in, got, want)
		}
	}
	if formatX(float64(1<<20)) != "1MiB" || formatX(64) != "64" || formatX(2.5) != "2.5" {
		t.Errorf("formatX: %q %q %q", formatX(float64(1<<20)), formatX(64), formatX(2.5))
	}
}

func TestSeriesAccessors(t *testing.T) {
	f := Figure{Series: []Series{{Name: "a", Points: []Point{{X: 1, Y: 2, OK: true}, {X: 3, OK: false}}}}}
	if _, ok := f.Get("missing"); ok {
		t.Error("Get found a missing series")
	}
	s, _ := f.Get("a")
	if y, ok := s.Y(1); !ok || y != 2 {
		t.Errorf("Y(1) = %f %v", y, ok)
	}
	if _, ok := s.Y(3); ok {
		t.Error("non-runnable point reported ok")
	}
	if _, ok := s.Y(9); ok {
		t.Error("absent x reported ok")
	}
}

func TestAblationConverged(t *testing.T) {
	o := Quick()
	o.PRIters = 3
	tab, out := AblationConverged(o)
	if len(tab.Rows) != 3 {
		t.Fatalf("rows %d", len(tab.Rows))
	}
	// All three models must match the serial oracle.
	want := newGraph(o).SerialPageRank(o.PRIters)
	for name, r := range out {
		if r.Err != nil {
			t.Fatalf("%s: %v", name, r.Err)
		}
		if len(r.Ranks) != len(want) {
			t.Fatalf("%s: %d ranks, want %d", name, len(r.Ranks), len(want))
		}
		for v := range want {
			diff := r.Ranks[v] - want[v]
			if diff > 1e-6 || diff < -1e-6 {
				t.Fatalf("%s: vertex %d = %.9f, want %.9f", name, v, r.Ranks[v], want[v])
			}
		}
	}
	// The convergence price: RDA stays in MPI's cost class (the
	// abstractions are nearly free on the HPC runtime) while the full Big
	// Data stack costs an order of magnitude more.
	mpiT := out["MPI (hand-written)"].Seconds
	rdaT := out["RDA (converged model)"].Seconds
	sparkT := out["Spark (tuned)"].Seconds
	if rdaT < 0.5*mpiT || rdaT > 3*mpiT {
		t.Errorf("converged model (%.4fs) not in raw MPI's class (%.4fs)", rdaT, mpiT)
	}
	if rdaT*3 >= sparkT {
		t.Errorf("converged model (%.4fs) not well below Spark (%.4fs)", rdaT, sparkT)
	}
}

// TestCheckPageRankFailedRuns: a PageRank run that failed leaves its
// point OK=false and its rank vector nil. Every other Fig 6/7 check skips
// such a point, so CheckFig6 and CheckFig7 must report it themselves.
func TestCheckPageRankFailedRuns(t *testing.T) {
	series := func(name string, ys ...float64) Series {
		s := Series{Name: name}
		for i, y := range ys {
			s.Points = append(s.Points, Point{X: float64(2 * (i + 1)), Y: y, OK: true})
		}
		return s
	}
	vec := []float64{0.25, 0.75}
	fig6 := Figure{ID: "fig6", Series: []Series{series("MPI", 1, 1), series("Spark", 10, 6), series("Spark-RDMA", 10, 6)}}
	fig7 := Figure{ID: "fig7", Series: []Series{series("Spark", 10, 8), series("Spark-RDMA", 8, 6)}}
	ranks := func(names ...string) map[string][]float64 {
		m := map[string][]float64{"Serial": vec}
		for _, n := range names {
			m[n] = vec
		}
		return m
	}
	// failed marks the named series' last point as a failed run.
	failed := func(f Figure, name string) Figure {
		g := Figure{ID: f.ID}
		for _, s := range f.Series {
			s.Points = append([]Point(nil), s.Points...)
			if s.Name == name {
				s.Points[len(s.Points)-1].OK = false
			}
			g.Series = append(g.Series, s)
		}
		return g
	}
	without := func(m map[string][]float64, name string) map[string][]float64 {
		m[name] = nil
		return m
	}
	for _, c := range []struct {
		name  string
		check func(Figure, map[string][]float64) []string
		fig   Figure
		ranks map[string][]float64
		bad   bool
	}{
		{"fig6 ok", CheckFig6, fig6, ranks("MPI", "Spark", "Spark-RDMA"), false},
		{"fig6 failed Spark run", CheckFig6, failed(fig6, "Spark"), without(ranks("MPI", "Spark", "Spark-RDMA"), "Spark"), true},
		{"fig6 failed MPI run", CheckFig6, failed(fig6, "MPI"), ranks("MPI", "Spark", "Spark-RDMA"), true},
		{"fig6 nil MPI ranks", CheckFig6, fig6, without(ranks("MPI", "Spark", "Spark-RDMA"), "MPI"), true},
		{"fig7 ok", CheckFig7, fig7, ranks("Spark", "Spark-RDMA"), false},
		{"fig7 failed RDMA run", CheckFig7, failed(fig7, "Spark-RDMA"), without(ranks("Spark", "Spark-RDMA"), "Spark-RDMA"), true},
		{"fig7 nil Spark ranks", CheckFig7, fig7, without(ranks("Spark", "Spark-RDMA"), "Spark"), true},
	} {
		if got := c.check(c.fig, c.ranks); (len(got) > 0) != c.bad {
			t.Errorf("%s: violations %q, want some: %v", c.name, got, c.bad)
		}
	}
}
