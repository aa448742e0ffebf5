package hpcbd

// Host-invariance suite: every simulated output — figures, sweep
// results, counters, PageRank vectors — must be bit-identical on every
// host configuration. The payload pool, the ForEach width and
// narrow-stage fusion change which host thread does the work, in what
// order sweep points finish and how many kernel events a charge costs,
// never the committed event order, timestamps or RNG draws.
//
// The suite is a matrix: the columns are core.Artifacts() entries, each
// with a serial reference computed once per test binary; the rows are
// host configurations. Each test below is one cell group — an artifact
// checked on a set of rows.

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"hpcbd/internal/chaos"
	"hpcbd/internal/cluster"
	"hpcbd/internal/core"
	"hpcbd/internal/exec"
	"hpcbd/internal/mpi"
	"hpcbd/internal/rdd"
	"hpcbd/internal/sim"
)

// host is one row: a host configuration. Zero fields keep the process
// default (the GOMAXPROCS pool, the CPU-budget ForEach width).
type host struct {
	pool    int
	width   int // exec.ForEach width: sweep points or runs in flight
	unfused bool
}

// serialHost is the reference row: one payload worker, one sweep point
// or run at a time, fusion on.
var serialHost = host{pool: 1, width: 1}

// run executes fn on host h, restoring the previous settings afterwards.
func (h host) run(fn func()) {
	if h.pool > 0 {
		exec.SetDefaultSize(h.pool)
		defer exec.SetDefaultSize(0)
	}
	if h.width > 0 {
		exec.SetForEachWidth(h.width)
		defer exec.SetForEachWidth(0)
	}
	if h.unfused {
		defer rdd.SetFusion(rdd.SetFusion(false))
	}
	fn()
}

var pool8 = host{pool: 8}

// refs holds each column's serial reference, by artifact name.
var refs = map[string]any{}

// reference returns a's serial reference: its run at core.Quick() on the
// serial host, rendered on first use. TestArtifacts digests a sweep's
// reference, so a sweep renders it once per test binary.
func reference(a core.Artifact) any {
	ref, ok := refs[a.Name]
	if !ok {
		serialHost.run(func() { ref = a.Run(core.Quick()) })
		refs[a.Name] = ref
	}
	return ref
}

// invariant checks the named core.Artifacts() entry at core.Quick() on
// every row against its serial reference: a sweep with its own
// Check*Sweep(ref, got), which asserts bit-identity and the sweep's
// shapes on both results, anything else with reflect.DeepEqual.
func invariant(t *testing.T, name string, rows ...host) {
	t.Helper()
	arts := core.Artifacts()
	i := slices.IndexFunc(arts, func(a core.Artifact) bool { return a.Name == name })
	if i < 0 {
		t.Fatalf("no artifact %q", name)
	}
	a := arts[i]
	if a.Slow && testing.Short() {
		t.Skipf("%s is slow; run without -short", name)
	}
	ref := reference(a)
	for _, h := range rows {
		var got any
		h.run(func() { got = a.Run(core.Quick()) })
		if a.Pair {
			for _, v := range a.Check(ref, got) {
				t.Errorf("%s on %+v: %s", name, h, v)
			}
		} else if !reflect.DeepEqual(ref, got) {
			t.Errorf("%s on %+v: differs from the serial reference", name, h)
		}
	}
}

func TestFig3PoolInvariance(t *testing.T) { invariant(t, "fig3", pool8) }

func TestFig4PoolInvariance(t *testing.T) { invariant(t, "fig4", pool8) }

// The width rows run Fig 6 and 7's per-run jobs four at a time against
// one at a time in the reference: assembly by completion order would
// show up as a difference.
func TestFig6PoolInvariance(t *testing.T)  { invariant(t, "fig6", pool8) }
func TestFig6WidthInvariance(t *testing.T) { invariant(t, "fig6", host{width: 4}) }

func TestFig7PoolInvariance(t *testing.T)   { invariant(t, "fig7", pool8) }
func TestFig7WidthInvariance(t *testing.T)  { invariant(t, "fig7", host{width: 4}) }
func TestFig7FusionInvariance(t *testing.T) { invariant(t, "fig7", host{unfused: true}) }

func TestChaosSweepPoolInvariance(t *testing.T)     { invariant(t, "chaos", pool8) }
func TestTransportSweepPoolInvariance(t *testing.T) { invariant(t, "transport", pool8) }
func TestMasterSweepPoolInvariance(t *testing.T)    { invariant(t, "master", pool8) }
func TestPartitionSweepPoolInvariance(t *testing.T) { invariant(t, "partition", pool8) }
func TestTailSweepPoolInvariance(t *testing.T)      { invariant(t, "tail", pool8) }
func TestOverloadSweepPoolInvariance(t *testing.T)  { invariant(t, "overload", pool8) }

// The sweeps build one-shard, serial-dispatch clusters, so the worker
// rows of the master and overload sweeps run their plain-MPI arms on
// kernels built here: 4 event shards and 4 dispatch workers against one
// shard with serial dispatch. Fault-injected kernels confine nothing, so
// window dispatch is armed but never has work to run — the degenerate
// case of the window executor, which must change no result.

// plainRun is what one plain-MPI run under faults leaves behind.
type plainRun struct {
	End       sim.Time
	Events    int64
	Done      bool
	Sum       float64
	Seconds   float64
	AllocFail bool
}

// windowedRun builds a nodes-node cluster with the given shards and
// dispatch workers, lets setup install faults and launch the job, runs
// the kernel, calls the finish func setup returned, and reports the run
// and the kernel's shard statistics.
func windowedRun(seed int64, nodes, shards, workers int, setup func(c *cluster.Cluster, pr *plainRun) (finish func())) (plainRun, sim.ShardStats) {
	k := sim.NewKernel(seed)
	k.SetParallel(workers)
	c := cluster.Comet(k, nodes)
	c.EnableSharding(shards)
	var pr plainRun
	finish := setup(c, &pr)
	pr.End = k.Run()
	pr.Events = k.Events()
	finish()
	st := k.ShardStats()
	k.Shutdown()
	return pr, st
}

// launchPlain spawns the sweeps' plain-MPI loop: per iteration a compute
// step and a one-element Allreduce. A rank on a dead node parks
// forever, so a killed node deadlocks the world.
func launchPlain(c *cluster.Cluster, pr *plainRun, np, ppn, iters int) *mpi.World {
	return mpi.Launch(c, np, ppn, func(r *mpi.Rank) {
		start := r.Now()
		var last []float64
		for it := 0; it < iters; it++ {
			if !c.NodeAlive(r.Node()) {
				(&sim.Signal{}).Wait(r.Proc())
			}
			r.Compute(0.001)
			last = r.World().Allreduce(r, []float64{1}, mpi.OpSum, 8)
		}
		if r.Rank() == 0 {
			pr.Sum = last[0]
			pr.Seconds = r.Now().Sub(start).Seconds()
		}
	})
}

// checkWindowed runs setup serially on one shard and on 4 shards with 4
// workers, reports any difference or any opened window, and returns the
// serial run.
func checkWindowed(t *testing.T, name string, nodes int, setup func(c *cluster.Cluster, pr *plainRun) func()) plainRun {
	t.Helper()
	seed := core.Quick().Seed
	ref, _ := windowedRun(seed, nodes, 1, 1, setup)
	got, st := windowedRun(seed, nodes, 4, 4, setup)
	if got != ref {
		t.Errorf("%s: shards=4 workers=4 gives %+v, serial gives %+v", name, got, ref)
	}
	if st.Shards != 4 || st.Lookahead == 0 {
		t.Errorf("%s: kernel has %d shards and lookahead %v, want 4 shards and a lookahead", name, st.Shards, st.Lookahead)
	}
	if st.Windows != 0 {
		t.Errorf("%s: opened %d windows with nothing confined, want 0", name, st.Windows)
	}
	return ref
}

// TestMasterSweepWorkerInvariance runs the master sweep's plain-MPI arm:
// a clean run, then node 0 killed for good at half the clean time.
func TestMasterSweepWorkerInvariance(t *testing.T) {
	const nodes, ppn, iters = 4, 4, 24
	var cleanT time.Duration
	for _, frac := range []float64{0, 0.5} {
		ref := checkWindowed(t, fmt.Sprintf("master kill at %.1f x T", frac), nodes,
			func(c *cluster.Cluster, pr *plainRun) func() {
				if frac > 0 {
					chaos.Install(c, chaos.MasterKill(0, time.Duration(frac*float64(cleanT)), 0))
				}
				w := launchPlain(c, pr, nodes*ppn, ppn, iters)
				return func() { pr.Done = w.Done() }
			})
		if frac == 0 {
			if !ref.Done || ref.Sum != nodes*ppn {
				t.Fatalf("clean run: %+v, want a finished world summing to %d", ref, nodes*ppn)
			}
			cleanT = ref.End.Duration()
		} else if ref.Done {
			t.Errorf("master kill: world finished with node 0 dead: %+v", ref)
		}
	}
}

// TestOverloadSweepWorkerInvariance runs the overload sweep's MPI
// contrast: memory hogs on every node and disk fillers on half of them
// arm first, then each rank claims a static allocation and the loop
// launches only if every claim succeeded.
func TestOverloadSweepWorkerInvariance(t *testing.T) {
	const nodes, ppn, iters = 6, 2, 10
	const rankMem = 16 << 30
	const hogAt, launchAt = time.Millisecond, 5 * time.Millisecond
	var fails int
	for _, frac := range []float64{0, 0.5, 0.9} {
		ref := checkWindowed(t, fmt.Sprintf("pressure %.1f", frac), nodes,
			func(c *cluster.Cluster, pr *plainRun) func() {
				plan := chaos.MemPressure(1, nodes, nodes, frac, hogAt, 0, chaos.CrashOpts{})
				plan.Add(chaos.DiskFull(1, nodes, nodes/2, 1, hogAt, 0, chaos.CrashOpts{}).Events...)
				chaos.Install(c, plan)
				var w *mpi.World
				c.K.After(launchAt, func() {
					for r := 0; r < nodes*ppn; r++ {
						if !c.Node(r % nodes).AllocMem(rankMem) {
							pr.AllocFail = true
							return
						}
					}
					w = launchPlain(c, pr, nodes*ppn, ppn, iters)
				})
				return func() { pr.Done = w != nil && w.Done() }
			})
		if ref.AllocFail == ref.Done {
			t.Errorf("pressure %.1f: %+v, want exactly one of a failed claim and a finished world", frac, ref)
		}
		if ref.AllocFail {
			fails++
		}
	}
	if fails != 1 {
		t.Errorf("%d of 3 pressure levels failed the static claim, want only the highest", fails)
	}
}

// Shards and dispatch workers are set per ScaleSweep point, the one
// experiment that builds sharded, windowed kernels.
func TestScaleSweepWorkerInvariance(t *testing.T) {
	o := core.Quick()
	cfg := core.DefaultScaleConfig()
	cfg.NodeCounts = []int{36, 72}
	cfg.PPN, cfg.RackSize = 2, 18
	cfg.Shards = 4
	ref := core.ScaleSweep(o, cfg)
	cfg.Workers = 4
	got := core.ScaleSweep(o, cfg)
	for i := range ref {
		if got[i].SimSeconds != ref[i].SimSeconds || got[i].Events != ref[i].Events || !got[i].OK {
			t.Errorf("scale point %d differs between workers=1 and workers=4: %+v vs %+v", i, ref[i], got[i])
		}
		if got[i].Windowed == 0 {
			t.Errorf("scale point %d: no events ran inside windows at workers=4", i)
		}
	}
}

// TestParallelSpeedupGate is the perf acceptance gate: on a
// multi-core host, parallel dispatch at workers=4 must retire simulator
// events at least 2x faster than serial dispatch on the production-scale
// sweep. Hosts without enough CPUs cannot realize wall-clock speedup
// from thread parallelism, so the gate skips there (the invariance
// suite above still runs the executor end to end).
func TestParallelSpeedupGate(t *testing.T) {
	if testing.Short() {
		t.Skip("speedup gate needs the full-size sweep; run without -short")
	}
	if c := runtime.NumCPU(); c < 4 {
		t.Skipf("host has %d CPU(s); wall-clock speedup from 4 dispatch workers is unrealizable", c)
	}
	o := core.Quick()
	cfg := core.DefaultScaleConfig()
	cfg.NodeCounts = []int{1000, 2000, 4000}
	cfg.Shards = 4
	// Sweep points normally run concurrently; pin them sequential so the
	// measurement isolates dispatch parallelism from point parallelism.
	exec.SetForEachWidth(1)
	defer exec.SetForEachWidth(0)
	rate := func(workers int) float64 {
		c := cfg
		c.Workers = workers
		start := time.Now()
		pts := core.ScaleSweep(o, c)
		elapsed := time.Since(start).Seconds()
		var events int64
		for _, p := range pts {
			if !p.OK {
				t.Fatalf("workers=%d: %d-node point disagrees with the serial oracle", workers, p.Nodes)
			}
			events += p.Events
		}
		return float64(events) / elapsed
	}
	serial := rate(1)
	parallel := rate(4)
	speedup := parallel / serial
	t.Logf("events/sec: serial %.3g, workers=4 %.3g, speedup %.2fx", serial, parallel, speedup)
	if speedup < 2 {
		t.Errorf("workers=4 speedup %.2fx below the 2x gate (serial %.3g ev/s, parallel %.3g ev/s)",
			speedup, serial, parallel)
	}
}
