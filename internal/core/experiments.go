package core

import (
	"fmt"

	"hpcbd/internal/cluster"
	"hpcbd/internal/dfs"
	"hpcbd/internal/mpi"
	"hpcbd/internal/rdd"
	"hpcbd/internal/sim"
	"hpcbd/internal/workload"
)

// Table1 reproduces Table I: the per-node characteristics of the simulated
// platform (SDSC Comet).
func Table1() Table {
	spec := cluster.CometNode()
	return Table{
		ID:      "table1",
		Title:   "Comet node characteristics (simulated platform)",
		Columns: []string{"Property", "Value"},
		Rows: [][]string{
			{"Processor type", "Intel Xeon E5-2680v3 (modelled)"},
			{"Sockets #", fmt.Sprintf("%d", spec.Sockets)},
			{"Cores/socket", fmt.Sprintf("%d", spec.CoresPer)},
			{"Clock speed", fmt.Sprintf("%.1f GHz", spec.ClockGHz)},
			{"Flop speed", fmt.Sprintf("%.0f GFlop/s", spec.FlopRate/1e9)},
			{"Memory capacity", fmt.Sprintf("%d GB DDR4 DRAM", spec.MemBytes>>30)},
			{"Interconnect", "FDR InfiniBand (RDMA verbs / IPoIB models)"},
			{"Local scratch", "SSD, " + fmt.Sprintf("%.0f MB/s read", spec.Scratch.ReadBW/1e6)},
		},
	}
}

// Fig3 reproduces the reduce microbenchmark (Fig 3): reduce latency vs
// message size for MPI, Spark and Spark-RDMA on ReduceNodes x ReducePPN
// processes. It runs serially: the 1 MiB MPI reduce alone peaks near 640 MB RSS.
func Fig3(o Options) Figure {
	fig := Figure{
		ID:     "fig3",
		Title:  fmt.Sprintf("Reduce microbenchmark, %d processes (%d/node)", o.ReduceNodes*o.ReducePPN, o.ReducePPN),
		XLabel: "msg bytes",
		YLabel: "latency (s)",
		XLog:   true,
		Series: []Series{{Name: "MPI"}, {Name: "Spark"}, {Name: "Spark-RDMA"}},
	}
	np := o.ReduceNodes * o.ReducePPN
	for _, size := range o.ReduceSizes {
		elems := int(size / 4) // float32 elements
		if elems < 1 {
			elems = 1
		}
		mpiLat := MPIReduceLatency(newCluster(o.Seed, o.ReduceNodes), np, o.ReducePPN, elems, o.ReduceIters)
		// Spark reduces number_of_processes x array_size elements (Fig 2).
		logical := np * elems
		sparkLat := SparkReduceLatency(newCluster(o.Seed, o.ReduceNodes), o.ReduceNodes, o.ReducePPN, logical, o.ReduceMaxPhys, o.ReduceIters, false)
		rdmaLat := SparkReduceLatency(newCluster(o.Seed, o.ReduceNodes), o.ReduceNodes, o.ReducePPN, logical, o.ReduceMaxPhys, o.ReduceIters, true)
		x := float64(size)
		fig.Series[0].Points = append(fig.Series[0].Points, Point{X: x, Y: mpiLat, OK: true})
		fig.Series[1].Points = append(fig.Series[1].Points, Point{X: x, Y: sparkLat, OK: true})
		fig.Series[2].Points = append(fig.Series[2].Points, Point{X: x, Y: rdmaLat, OK: true})
	}
	return fig
}

// Fig3Extended adds the OpenSHMEM series the paper surveys but does not
// plot (an extension experiment).
func Fig3Extended(o Options) Figure {
	fig := Fig3(o)
	s := Series{Name: "OpenSHMEM"}
	np := o.ReduceNodes * o.ReducePPN
	for _, size := range o.ReduceSizes {
		elems := int(size / 4)
		if elems < 1 {
			elems = 1
		}
		lat := ShmemReduceLatency(newCluster(o.Seed, o.ReduceNodes), np, o.ReducePPN, elems, o.ReduceIters)
		s.Points = append(s.Points, Point{X: float64(size), Y: lat, OK: true})
	}
	fig.Series = append(fig.Series, s)
	return fig
}

// Table2 reproduces the parallel file read microbenchmark (Table II):
// execution time to read (and count) a file via Spark-on-DFS, Spark on
// local scratch, and MPI-IO on local scratch. It returns the table and
// the Table2Values cells it formats.
func Table2(o Options) (Table, [][3]float64) {
	vals := Table2Values(o)
	t := Table{
		ID:      "table2",
		Title:   "Parallel file read microbenchmark",
		Columns: []string{"File size", "Spark on HDFS (scratch fs)", "Spark on local scratch fs", "MPI (scratch fs)"},
	}
	for i, size := range o.FileReadSizes {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.0f GB", float64(size)/1e9),
			fmtSeconds(vals[i][0]), fmtSeconds(vals[i][1]), fmtSeconds(vals[i][2]),
		})
	}
	return t, vals
}

// Table2Values returns the Table II cells numerically (seconds), ordered
// [size][hdfs, local, mpi], for shape checks and benches.
func Table2Values(o Options) [][3]float64 {
	var out [][3]float64
	for _, size := range o.FileReadSizes {
		out = append(out, [3]float64{sparkDFSRead(o, size), sparkLocalRead(o, size), mpiLocalRead(o, size)})
	}
	return out
}

// sparkDFSRead times Spark reading `size` bytes from the DFS, with a
// count action (the paper adds a count to force materialization).
func sparkDFSRead(o Options, size int64) float64 {
	c := newCluster(o.Seed, o.FileReadNodes)
	fs := dfs.New(c, cluster.IPoIB(), func() dfs.Config {
		cfg := dfs.DefaultConfig()
		cfg.Replication = 3
		return cfg
	}())
	d := workload.NewStackExchange(o.Seed, size, o.ACRecordBytes, o.ACStride)
	conf := rdd.DefaultConfig()
	conf.CoresPerExecutor = o.FileReadPPN
	conf.Scale = float64(d.Stride)
	ctx := rdd.NewContext(c, conf)
	var secs float64
	c.K.Spawn("driver", func(p *sim.Proc) {
		ensureFile(p, fs, "/input", size)
		start := p.Now()
		posts := DFSTextRDD(ctx, fs, "/input", d)
		if _, err := rdd.Count(p, posts); err != nil {
			panic(err)
		}
		secs = p.Now().Sub(start).Seconds()
	})
	c.K.Run()
	return secs
}

// sparkLocalRead times Spark reading from files replicated on each node's
// local scratch.
func sparkLocalRead(o Options, size int64) float64 {
	c := newCluster(o.Seed, o.FileReadNodes)
	d := workload.NewStackExchange(o.Seed, size, o.ACRecordBytes, o.ACStride)
	conf := rdd.DefaultConfig()
	conf.CoresPerExecutor = o.FileReadPPN
	conf.Scale = float64(d.Stride)
	ctx := rdd.NewContext(c, conf)
	var secs float64
	c.K.Spawn("driver", func(p *sim.Proc) {
		start := p.Now()
		posts := ScratchTextRDD(ctx, d)
		if _, err := rdd.Count(p, posts); err != nil {
			panic(err)
		}
		secs = p.Now().Sub(start).Seconds()
	})
	c.K.Run()
	return secs
}

// mpiLocalRead times the MPI-IO collective read of the locally staged
// file, with an equivalent counting scan.
func mpiLocalRead(o Options, size int64) float64 {
	c := newCluster(o.Seed, o.FileReadNodes)
	np := o.FileReadNodes * o.FileReadPPN
	var secs float64
	mpi.Launch(c, np, o.FileReadPPN, func(r *mpi.Rank) {
		w := r.World()
		f := w.FileOpenLocal(r, "/input", size)
		w.Barrier(r)
		start := r.Now()
		off, cnt := f.EvenChunk(r)
		if err := f.ReadAtAll(r, off, cnt); err != nil {
			panic(err)
		}
		// Counting scan at memory rate (line counting, not parsing).
		r.Compute(float64(cnt) / c.Cost.MemcpyBW)
		w.Barrier(r)
		if r.Rank() == 0 {
			secs = r.Now().Sub(start).Seconds()
		}
	})
	c.K.Run()
	return secs
}
