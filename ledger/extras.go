package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"runtime"
	"strconv"

	"hpcbd/internal/cluster"
	"hpcbd/internal/core"
	"hpcbd/internal/dfs"
	"hpcbd/internal/exec"
	"hpcbd/internal/sim"
	"hpcbd/internal/workload"
)

// What only one workload's traced run measures.

// extraPoint runs one more checked scale point reps times and returns the
// fastest run's cost and what the point produced. With want set, every
// run must reproduce that output digest and event count.
func extraPoint(tr *tracer, r *recorder, cfg config, name string, sh scaleShape, reps int, want *opRef) (best sample, out opOut, ref opRef) {
	o := paperOptions(cfg)
	oracle := workload.NewStackExchange(o.Seed, o.ACBytes, o.ACRecordBytes, o.ACStride).SerialAnswersCount()
	for i := 0; i < reps; i++ {
		var s sample
		var why []string
		out, s, why = r.exec(tr, op{name, func(tr *tracer) opOut { return scalePoint(tr, o, sh, oracle) }})
		ref = opRef{digestOf(out), s.events}
		if want != nil && ref != *want {
			why = append(why, fmt.Sprintf("output digest %.12s / %d events, the one-heap point had %.12s / %d",
				ref.digest, ref.events, want.digest, want.events))
		}
		r.fail(name, why)
		if i == 0 || s.wall < best.wall {
			best = s
		}
	}
	return best, out, ref
}

// scaleUp runs what the measured 250-node passes are too small to show,
// once or a few times each, unbounded readings for people:
//
//   - the 1,000-node point on one heap (fastest of 2) and the 2,000-node
//     point (once), and the ratio of their events/s: the first of the
//     ROADMAP's questions, why events/s falls with node count;
//   - the 1,000-node point on 4 shards with one worker: what the sharded
//     queue costs the serial path against one heap;
//   - the same with 2-worker conservative windows (fastest of 3): what
//     the window executor yields on this host.
//
// Both sharded points must commit the same events, virtual seconds and
// answers as the one-heap 1,000-node point.
func scaleUp(tr *tracer, r *recorder, cfg config, extra map[string]float64) {
	shape := func(nodes, shards, workers int, simKey string) scaleShape {
		return scaleShape{nodes: scaleNodeCount(cfg, nodes), shards: shards, workers: workers, simKey: simKey}
	}
	rate := func(s sample) float64 { return float64(s.events) / s.wall }

	oneK, out, ref := extraPoint(tr, r, cfg, "point1k", shape(scaleNodes1k, 1, 1, "core.sim_scale1k_s"), 2, nil)
	for k, v := range out.model {
		extra[k] = v
	}
	extra["sim.scale1k_events_per_s"] = rate(oneK)

	twoK, _, _ := extraPoint(tr, r, cfg, "point2k", shape(scaleNodes2k, 1, 1, ""), 1, nil)
	extra["sim.scale2k_events_per_s"] = rate(twoK)
	extra["sim.scale_falloff"] = rate(twoK) / rate(oneK)

	sharded, _, _ := extraPoint(tr, r, cfg, "point1k_sharded_serial", shape(scaleNodes1k, windowShards, 1, ""), 1, &ref)
	extra["sim.scale1k_sharded_serial_events_per_s"] = rate(sharded)

	win, out, _ := extraPoint(tr, r, cfg, "point1k_windows", shape(scaleNodes1k, windowShards, min(windowWorkers, runtime.NumCPU()), ""), 3, &ref)
	extra["sim.scale1k_windows_events_per_s"] = rate(win)
	extra["sim.scale1k_windows_speedup"] = oneK.wall / win.wall
	extra["sim.scale1k_windows_cpu_s"] = win.cpu
	for k, v := range out.layer {
		if k != "cluster.msgs_per_event" { // the passes' own reading stands
			extra[k] = v
		}
	}
}

// decomposeFigures rebuilds every Fig 3/4/6/7 point from core's
// exported per-paradigm functions on clusters the ledger builds itself,
// one after the other (sweep-point width 1, so spans do not overlap),
// and checks each point's virtual seconds against the figure core.FigN
// returned in the last pass. It yields the paradigm split: host seconds
// and host ns per kernel event spent under mpi, rdd, mapred and omp.
func decomposeFigures(tr *tracer, r *recorder, o core.Options, extra map[string]float64) {
	exec.SetForEachWidth(1)
	defer exec.SetForEachWidth(0) // back to the CPU budget, which the ledger never overrides

	pass := tr.pass + 1
	tr.pass = pass
	r.once(tr, op{"decomposed", func(tr *tracer) opOut {
		d := &decomp{tr: tr, o: o, figs: r.figs}
		d.fig3()
		d.fig4()
		d.fig67()
		return opOut{viol: d.viol}
	}})
	secs, events := selfByName(tr.spans, pass)
	for _, p := range []string{"mpi", "rdd", "mapred", "omp"} {
		extra[p+".figures_s"] = secs[p+".run"]
		if ev := events[p+".run"]; ev > 0 {
			extra[p+".figures_ns_per_event"] = 1e9 * secs[p+".run"] / float64(ev)
		}
	}
}

type decomp struct {
	tr   *tracer
	o    core.Options
	figs map[string]core.Figure
	viol []string
}

// point times one paradigm call on a fresh cluster and compares the
// virtual seconds it returns with the figure's point.
func (d *decomp) point(fig, series string, x float64, paradigm string, nodes int,
	run func(c *cluster.Cluster) (secs float64, ok bool)) {
	var c *cluster.Cluster
	d.tr.in("cluster.build", func() { c = cluster.Comet(sim.NewKernel(d.o.Seed), nodes) })
	id := d.tr.begin(paradigm + ".run")
	secs, ok := run(c)
	d.tr.end(id, c.K.Events())
	want, found := seriesY(d.figs[fig], series, x)
	if ok && (!found || secs != want) {
		d.viol = append(d.viol, fmt.Sprintf("%s %s at x=%g: rebuilt point took %.9f virtual s, core returned %.9f", fig, series, x, secs, want))
	}
}

func (d *decomp) fig3() {
	o := d.o
	np := o.ReduceNodes * o.ReducePPN
	for _, size := range o.ReduceSizes {
		elems := int(size / 4)
		if elems < 1 {
			elems = 1
		}
		x := float64(size)
		d.point("fig3", "MPI", x, "mpi", o.ReduceNodes, func(c *cluster.Cluster) (float64, bool) {
			return core.MPIReduceLatency(c, np, o.ReducePPN, elems, o.ReduceIters), true
		})
		for _, rdma := range []bool{false, true} {
			series := "Spark"
			if rdma {
				series = "Spark-RDMA"
			}
			d.point("fig3", series, x, "rdd", o.ReduceNodes, func(c *cluster.Cluster) (float64, bool) {
				return core.SparkReduceLatency(c, o.ReduceNodes, o.ReducePPN, np*elems, o.ReduceMaxPhys, o.ReduceIters, rdma), true
			})
		}
	}
}

func (d *decomp) fig4() {
	o := d.o
	dataset := func() (ds *workload.StackExchange) {
		d.tr.in("workload.gen", func() {
			ds = workload.NewStackExchange(o.Seed, o.ACBytes, o.ACRecordBytes, o.ACStride)
		})
		return ds
	}
	newDFS := func(c *cluster.Cluster) (fs *dfs.DFS) {
		d.tr.in("dfs.new", func() { fs = dfs.New(c, cluster.IPoIB(), dfs.DefaultConfig()) })
		return fs
	}
	for _, nth := range o.ACOMPThreads {
		d.point("fig4", "OpenMP", float64(nth), "omp", 1, func(c *cluster.Cluster) (float64, bool) {
			return core.OMPAnswersCount(c, dataset(), nth).Seconds, true
		})
	}
	for _, np := range o.ACProcs {
		nodes := np / o.ACPPN
		if nodes < 1 {
			nodes = 1
		}
		x := float64(np)
		d.point("fig4", "MPI", x, "mpi", nodes, func(c *cluster.Cluster) (float64, bool) {
			r := core.MPIAnswersCount(c, dataset(), np, o.ACPPN)
			return r.Seconds, r.Err == nil
		})
		d.point("fig4", "Spark", x, "rdd", nodes, func(c *cluster.Cluster) (float64, bool) {
			r := core.SparkAnswersCount(c, newDFS(c), "/stackexchange", dataset(), nodes, o.ACPPN, false)
			return r.Seconds, r.Err == nil
		})
		d.point("fig4", "Hadoop", x, "mapred", nodes, func(c *cluster.Cluster) (float64, bool) {
			return core.HadoopAnswersCount(c, newDFS(c), "/stackexchange", dataset(), o.ACPPN).Seconds, true
		})
	}
}

func (d *decomp) fig67() {
	o := d.o
	for _, nodes := range o.PRNodes {
		var g *workload.Graph
		d.tr.in("workload.gen", func() {
			g = workload.NewGraph(o.Seed, o.PRPhysVertices, o.PRLogicalVertices, o.PRAvgDegree)
		})
		x := float64(nodes)
		d.point("fig6", "MPI", x, "mpi", nodes, func(c *cluster.Cluster) (float64, bool) {
			r := core.MPIPageRank(c, g, nodes*o.PRPPN, o.PRPPN, o.PRIters)
			return r.Seconds, r.Err == nil
		})
		spark := func(fig, series string, persist, rdma bool) {
			d.point(fig, series, x, "rdd", nodes, func(c *cluster.Cluster) (float64, bool) {
				r := core.SparkPageRank(c, g, nodes, o.PRPPN, o.PRIters, persist, rdma)
				return r.Seconds, r.Err == nil
			})
		}
		spark("fig6", "Spark", true, false)
		spark("fig6", "Spark-RDMA", true, true)
		spark("fig7", "Spark", false, false)
		spark("fig7", "Spark-RDMA", false, true)
	}
}

//go:embed results/digests.json
var digestsJSON []byte

// digestChanged compares a run's output digest with the one committed in
// results/digests.json for this workload and seed: 0 same, 1 changed,
// -1 when no digest is on record (another seed, or a smoke run).
func digestChanged(name string, cfg config, digest string) float64 {
	var ref map[string]map[string]string
	if cfg.smoke || json.Unmarshal(digestsJSON, &ref) != nil {
		return -1
	}
	want, ok := ref[name][strconv.FormatInt(cfg.seed, 10)]
	switch {
	case !ok:
		return -1
	case want == digest:
		return 0
	}
	return 1
}
