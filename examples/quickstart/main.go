// Quickstart: build a simulated Comet cluster and run the same reduction
// in the two paradigms the paper compares — an MPI allreduce and a Spark
// RDD reduce — printing their (virtual) execution times side by side.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"

	"hpcbd/internal/cluster"
	"hpcbd/internal/mpi"
	"hpcbd/internal/rdd"
	"hpcbd/internal/sim"
)

func main() {
	const (
		nodes = 4
		ppn   = 8
		n     = 1 << 16 // elements to reduce
	)

	// --- HPC paradigm: MPI allreduce ---------------------------------
	c := cluster.Comet(sim.NewKernel(1), nodes)
	var mpiSum float64
	var mpiTime sim.Time
	mpi.Launch(c, nodes*ppn, ppn, func(r *mpi.Rank) {
		// Each rank contributes its slice of [0, n).
		lo := r.Rank() * n / r.Size()
		hi := (r.Rank() + 1) * n / r.Size()
		local := make([]float64, 1)
		for i := lo; i < hi; i++ {
			local[0] += float64(i)
		}
		w := r.World()
		w.Barrier(r)
		start := r.Now()
		total := w.Allreduce(r, local, mpi.OpSum, 8)
		if r.Rank() == 0 {
			mpiSum = total[0]
			mpiTime = r.Now() - start
		}
	})
	c.K.Run()

	// --- Big Data paradigm: Spark reduce ------------------------------
	c2 := cluster.Comet(sim.NewKernel(1), nodes)
	ctx := rdd.NewContext(c2, rdd.DefaultConfig())
	var sparkSum float64
	var sparkTime sim.Time
	c2.K.Spawn("driver", func(p *sim.Proc) {
		data := make([]float64, n)
		for i := range data {
			data[i] = float64(i)
		}
		numbers := rdd.Parallelize(ctx, "numbers", data, nodes*ppn, 8)
		start := p.Now()
		sum, err := rdd.Reduce(p, numbers, func(a, b float64) float64 { return a + b })
		if err != nil {
			panic(err)
		}
		sparkSum = sum
		sparkTime = p.Now() - start
	})
	c2.K.Run()

	want := float64(n-1) * float64(n) / 2
	fmt.Printf("reducing %d values on %d nodes x %d processes\n\n", n, nodes, ppn)
	fmt.Printf("  MPI   allreduce: sum=%.0f (want %.0f)  time=%v\n", mpiSum, want, mpiTime)
	fmt.Printf("  Spark reduce   : sum=%.0f (want %.0f)  time=%v\n", sparkSum, want, sparkTime)
	fmt.Printf("\nMPI is %.0fx faster here — the asynchronous runtime vs the driver-\n",
		float64(sparkTime)/float64(mpiTime))
	fmt.Println("orchestrated engine, exactly the Fig 3 story. Run cmd/reduce-bench")
	fmt.Println("for the full sweep, and cmd/pagerank-bench for the cases where the")
	fmt.Println("Big Data stack wins back ground.")
}
