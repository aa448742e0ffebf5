package hpcbd

// Host-invariance suite: every simulated output — figures, sweep
// results, counters, PageRank vectors — must be bit-identical on every
// host configuration. The payload pool, event shards, dispatch workers
// and narrow-stage fusion change which host thread does the work, the
// queue's memory layout and how many kernel events a charge costs,
// never the committed event order, timestamps or RNG draws.
//
// The suite is a matrix: the columns are artifacts, each with a serial
// reference computed once per test binary; the rows are host
// configurations. Each test below is one cell group — an artifact
// checked on a set of rows.

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	"hpcbd/internal/exec"
	"hpcbd/internal/rdd"
)

// host is one row: a host configuration. Zero fields keep the process
// setting (an HPCBD_SHARDS / HPCBD_WORKERS override, the GOMAXPROCS
// pool), so the race soak's environment composes with every row.
type host struct {
	pool, shards, workers int
	unfused               bool
}

// serialHost is the reference row: one payload worker, one shard, serial
// dispatch, fusion on.
var serialHost = host{pool: 1, shards: 1, workers: 1}

// run executes fn on host h, restoring the previous settings afterwards.
func (h host) run(fn func()) {
	if h.pool > 0 {
		exec.SetDefaultSize(h.pool)
		defer exec.SetDefaultSize(0)
	}
	if h.shards > 0 {
		defer SetShards(Shards())
		SetShards(h.shards)
	}
	if h.workers > 0 {
		defer SetWorkers(Workers())
		SetWorkers(h.workers)
	}
	if h.unfused {
		defer rdd.SetFusion(rdd.SetFusion(false))
	}
	fn()
}

var (
	pool8     = host{pool: 8}
	shardRows = counted(func(n int) host { return host{shards: n} })
	// Windows only open on a kernel with several shards.
	workerRows = counted(func(n int) host { return host{shards: 4, workers: n} })
)

// counted returns the rows at counts 2, 4 and, when larger, the host's
// CPU count.
func counted(row func(n int) host) []host {
	rows := []host{row(2), row(4)}
	if c := runtime.NumCPU(); c > 4 {
		rows = append(rows, row(c))
	}
	return rows
}

// artifact is one column: an output at QuickOptions scale and how two
// of its results are compared.
type artifact struct {
	name  string
	slow  bool // skipped under -short
	run   func(Options) any
	check func(ref, got any) []string
	ref   any // the serial reference, computed on first use
}

// figure is an artifact compared with reflect.DeepEqual.
func figure(name string, run func(Options) any) *artifact {
	return &artifact{name: name, run: run, check: func(ref, got any) []string {
		if !reflect.DeepEqual(ref, got) {
			return []string{"differs from the serial reference"}
		}
		return nil
	}}
}

// sweep is an artifact compared with its own Check*Sweep(ref, got),
// which asserts bit-identity and the sweep's shapes on both results.
func sweep[R any](name string, slow bool, run func(Options) R, check func(a, b R) []string) *artifact {
	return &artifact{name: name, slow: slow,
		run:   func(o Options) any { return run(o) },
		check: func(ref, got any) []string { return check(ref.(R), got.(R)) },
	}
}

var (
	fig3 = figure("Fig3", func(o Options) any { return Fig3(o) })
	fig4 = figure("Fig4", func(o Options) any { f, res := Fig4(o); return []any{f, res} })
	fig6 = figure("Fig6", func(o Options) any { f, ranks := Fig6(o); return []any{f, ranks} })
	fig7 = figure("Fig7", func(o Options) any { f, ranks := Fig7(o); return []any{f, ranks} })

	masterSweep    = sweep("master sweep", false, MasterSweep, CheckMasterSweep)
	tailSweep      = sweep("tail sweep", true, TailSweep, CheckTailSweep)
	overloadSweep  = sweep("overload sweep", true, OverloadSweep, CheckOverloadSweep)
	partitionSweep = sweep("partition sweep", true, PartitionSweep, CheckPartitionSweep)
	transportSweep = sweep("transport sweep", true, TransportSweep, CheckTransportSweep)
)

// on checks the artifact on every row against its serial reference.
func (a *artifact) on(t *testing.T, rows ...host) {
	t.Helper()
	if a.slow && testing.Short() {
		t.Skipf("%s is slow; run without -short", a.name)
	}
	o := QuickOptions()
	if a.ref == nil {
		serialHost.run(func() { a.ref = a.run(o) })
	}
	for _, h := range rows {
		var got any
		h.run(func() { got = a.run(o) })
		for _, v := range a.check(a.ref, got) {
			t.Errorf("%s on %+v: %s", a.name, h, v)
		}
	}
}

func TestFig3PoolInvariance(t *testing.T)  { fig3.on(t, pool8) }
func TestFig3ShardInvariance(t *testing.T) { fig3.on(t, shardRows...) }

func TestFig4PoolInvariance(t *testing.T)   { fig4.on(t, pool8) }
func TestFig4ShardInvariance(t *testing.T)  { fig4.on(t, shardRows...) }
func TestFig4WorkerInvariance(t *testing.T) { fig4.on(t, workerRows...) }
func TestShardAndPoolInvariance(t *testing.T) {
	fig4.on(t, host{pool: 8, shards: 4})
}
func TestShardWorkerPoolInvariance(t *testing.T) {
	fig4.on(t, host{pool: 8, shards: 4, workers: 4})
}

func TestFig6PoolInvariance(t *testing.T)  { fig6.on(t, pool8) }
func TestFig6ShardInvariance(t *testing.T) { fig6.on(t, shardRows...) }

func TestFig7PoolInvariance(t *testing.T)   { fig7.on(t, pool8) }
func TestFig7ShardInvariance(t *testing.T)  { fig7.on(t, shardRows...) }
func TestFig7FusionInvariance(t *testing.T) { fig7.on(t, host{unfused: true}) }

func TestMasterSweepPoolInvariance(t *testing.T) { masterSweep.on(t, pool8) }
func TestMasterSweepShardInvariance(t *testing.T) {
	masterSweep.on(t, host{shards: 2}, host{shards: 4})
}

// Fault-injected kernels confine nothing, so windows may open and hold
// zero runnable work: the degenerate case of the window executor.
func TestMasterSweepWorkerInvariance(t *testing.T) {
	masterSweep.on(t, host{shards: 4, workers: 4})
}

func TestTailSweepPoolInvariance(t *testing.T)  { tailSweep.on(t, pool8) }
func TestTailSweepShardInvariance(t *testing.T) { tailSweep.on(t, host{shards: 4}) }

func TestOverloadSweepPoolInvariance(t *testing.T)  { overloadSweep.on(t, pool8) }
func TestOverloadSweepShardInvariance(t *testing.T) { overloadSweep.on(t, host{shards: 4}) }
func TestOverloadSweepWorkerInvariance(t *testing.T) {
	overloadSweep.on(t, host{shards: 4, workers: 4})
}

func TestPartitionSweepPoolInvariance(t *testing.T)  { partitionSweep.on(t, pool8) }
func TestPartitionSweepShardInvariance(t *testing.T) { partitionSweep.on(t, host{shards: 4}) }

func TestTransportSweepPoolInvariance(t *testing.T)  { transportSweep.on(t, pool8) }
func TestTransportSweepShardInvariance(t *testing.T) { transportSweep.on(t, host{shards: 4}) }

func TestScaleSweepWorkerInvarianceFacade(t *testing.T) {
	o := QuickOptions()
	cfg := DefaultScaleConfig()
	cfg.NodeCounts = []int{36, 72}
	cfg.PPN, cfg.RackSize = 2, 18
	cfg.Shards = 4
	ref := ScaleSweep(o, cfg)
	cfg.Workers = 4
	got := ScaleSweep(o, cfg)
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
	o := QuickOptions()
	cfg := DefaultScaleConfig()
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
		pts := ScaleSweep(o, c)
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
