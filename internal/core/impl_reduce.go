package core

// This file holds the per-framework implementations of the reduce
// microbenchmark (Fig 3). Region markers (bench:...) delimit what the
// Table III maintainability analysis counts; bp: markers delimit
// boilerplate within a region.

import (
	"hpcbd/internal/cluster"
	"hpcbd/internal/mpi"
	"hpcbd/internal/rdd"
	"hpcbd/internal/shmem"
	"hpcbd/internal/sim"
)

// bench:reduce:mpi:begin

// MPIReduceLatency measures the OSU-style reduce latency: every rank holds
// a float32 array of elems elements; MPI_Reduce sums them element-wise at
// root. Returns seconds per operation.
//
// All ranks reduce one shared input slice, so the host holds one array,
// not np of them: Reduce only reads its input, its virtual time depends
// only on the input's length, and nothing reads the sums.
func MPIReduceLatency(c *cluster.Cluster, np, ppn, elems, iters int) float64 {
	var perOp float64
	data := make([]float64, elems) // float32 semantics: elemBytes=4
	for i := range data {
		data[i] = float64(i)
	}
	// bp:begin
	mpi.Launch(c, np, ppn, func(r *mpi.Rank) {
		w := r.World()
		// bp:end
		w.Barrier(r)
		start := r.Now()
		for it := 0; it < iters; it++ {
			w.Reduce(r, 0, data, mpi.OpSum, 4)
			w.Barrier(r)
		}
		if r.Rank() == 0 {
			perOp = r.Now().Sub(start).Seconds() / float64(iters)
		}
		// bp:begin
	})
	c.K.Run()
	// bp:end
	return perOp
}

// bench:reduce:mpi:end

// bench:reduce:spark:begin

// SparkReduceLatency measures the equivalent Spark reduction (the paper's
// Fig 2 snippet): an array of np*elems float32s is parallelized across the
// executors and reduced to one scalar at the driver. Returns seconds per
// job. rdmaShuffle selects the RDMA shuffle plugin (which, as the paper
// observes, barely matters here: a global reduce shuffles almost nothing,
// and orchestration stays on sockets).
func SparkReduceLatency(c *cluster.Cluster, executors, coresPer, logicalElems int, maxPhys, iters int, rdmaShuffle bool) float64 {
	// bp:begin
	conf := rdd.DefaultConfig()
	conf.CoresPerExecutor = coresPer
	if rdmaShuffle {
		conf.ShuffleTransport = cluster.RDMAVerbsFDR()
	}
	phys := logicalElems
	if phys > maxPhys {
		phys = maxPhys
	}
	conf.Scale = float64(logicalElems) / float64(phys)
	ctx := rdd.NewContext(c, conf)
	// bp:end
	arrayOfZeros := make([]float64, phys)
	var perOp float64
	// bp:begin
	c.K.Spawn("spark-driver", func(p *sim.Proc) {
		// bp:end
		listRDD := rdd.Parallelize(ctx, "listOfZeros", arrayOfZeros, executors*coresPer, 4)
		start := p.Now()
		for it := 0; it < iters; it++ {
			if _, err := rdd.Reduce(p, listRDD, func(a, b float64) float64 { return a + b }); err != nil {
				panic(err)
			}
		}
		perOp = p.Now().Sub(start).Seconds() / float64(iters)
		// bp:begin
	})
	c.K.Run()
	// bp:end
	return perOp
}

// bench:reduce:spark:end

// bench:reduce:shmem:begin

// ShmemReduceLatency measures the OpenSHMEM sum-to-all reduction on the
// same array, a PGAS data point the paper surveys but does not plot.
func ShmemReduceLatency(c *cluster.Cluster, npes, ppn, elems, iters int) float64 {
	var perOp float64
	// bp:begin
	shmem.Launch(c, npes, ppn, func(pe *shmem.PE) {
		// bp:end
		src := pe.AllocFloat64("src", elems)
		workChunk := elems
		if workChunk > 4096 {
			workChunk = 4096 // chunked reduction bounds symmetric-heap use
		}
		work := pe.AllocFloat64("work", workChunk*npes)
		for i := range src.Local(pe) {
			src.Local(pe)[i] = float64(pe.MyPE() + i)
		}
		pe.BarrierAll()
		start := pe.Now()
		for it := 0; it < iters; it++ {
			shmem.SumToAll(pe, src, work)
		}
		if pe.MyPE() == 0 {
			perOp = pe.Now().Sub(start).Seconds() / float64(iters)
		}
		// bp:begin
	})
	c.K.Run()
	// bp:end
	return perOp
}

// bench:reduce:shmem:end
