// AnswersCount: the paper's StackExchange benchmark (Fig 4) run on all
// four frameworks at demo scale, showing that they compute an identical
// statistic with very different cost profiles.
//
//	go run ./examples/answerscount
package main

import (
	"fmt"

	"hpcbd/internal/cluster"
	"hpcbd/internal/core"
	"hpcbd/internal/dfs"
	"hpcbd/internal/sim"
	"hpcbd/internal/workload"
)

func main() {
	const (
		nodes  = 4
		ppn    = 8
		gbytes = 4e9 // 4 GB logical dataset
	)
	o := core.Quick()
	dataset := func() *workload.StackExchange {
		return workload.NewStackExchange(o.Seed, int64(gbytes), o.ACRecordBytes, o.ACStride)
	}
	serial := dataset().SerialAnswersCount()
	fmt.Printf("dataset: %.0f GB logical (%d sampled posts), serial avg = %.3f answers/question\n\n",
		gbytes/1e9, dataset().PhysicalRecords(), serial.Average())

	type row struct {
		name string
		r    core.ACResult
	}
	var rows []row

	rows = append(rows, row{"OpenMP (16 threads, 1 node)",
		core.OMPAnswersCount(cluster.Comet(sim.NewKernel(o.Seed), 1), dataset(), 16)})

	rows = append(rows, row{fmt.Sprintf("MPI (%d procs)", nodes*ppn),
		core.MPIAnswersCount(cluster.Comet(sim.NewKernel(o.Seed), nodes), dataset(), nodes*ppn, ppn)})

	{
		c := cluster.Comet(sim.NewKernel(o.Seed), nodes)
		fs := dfs.New(c, cluster.IPoIB(), dfs.DefaultConfig())
		rows = append(rows, row{fmt.Sprintf("Spark (%d executors x %d cores)", nodes, ppn),
			core.SparkAnswersCount(c, fs, "/se", dataset(), nodes, ppn, false)})
	}
	{
		c := cluster.Comet(sim.NewKernel(o.Seed), nodes)
		fs := dfs.New(c, cluster.IPoIB(), dfs.DefaultConfig())
		rows = append(rows, row{fmt.Sprintf("Hadoop (%d slots/node)", ppn),
			core.HadoopAnswersCount(c, fs, "/se", dataset(), ppn)})
	}

	fmt.Printf("%-32s %12s %12s %10s %8s\n", "framework", "questions", "answers", "avg", "time")
	for _, rw := range rows {
		if rw.r.Err != nil {
			fmt.Printf("%-32s %s\n", rw.name, rw.r.Err)
			continue
		}
		match := " "
		if rw.r.Questions == serial.Questions && rw.r.Answers == serial.Answers {
			match = "=" // agrees with the serial oracle
		}
		fmt.Printf("%-32s %12d %12d %9.3f%s %7.2fs\n",
			rw.name, rw.r.Questions, rw.r.Answers, rw.r.Average(), match, rw.r.Seconds)
	}
	fmt.Println("\n('=' marks agreement with the serial oracle; times are simulated seconds)")
}
