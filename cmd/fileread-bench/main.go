// Command fileread-bench regenerates Table II: the parallel file read
// microbenchmark (Spark on HDFS vs Spark on local scratch vs MPI-IO), and
// verifies the paper's qualitative findings.
package main

import (
	"flag"
	"fmt"
	"os"

	"hpcbd/internal/core"
)

func main() {
	quick := flag.Bool("quick", false, "run the scaled-down test configuration")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned text")
	flag.Parse()

	o := core.Full()
	if *quick {
		o = core.Quick()
	}
	t := core.Table2(o)
	if *csv {
		fmt.Print(t.CSV())
	} else {
		fmt.Println(t)
	}
	if bad := core.CheckTable2(core.Table2Values(o)); len(bad) > 0 {
		fmt.Fprintln(os.Stderr, "shape violations:")
		for _, b := range bad {
			fmt.Fprintln(os.Stderr, "  "+b)
		}
		os.Exit(1)
	}
	fmt.Println("shape check: OK (MPI < Spark-local < Spark-HDFS; HDFS overhead in the paper's band)")
}
