// Command clusterinfo prints the simulated platform configuration: the
// paper's Table I plus the fabric and cost-model parameters every
// experiment shares.
package main

import (
	"flag"
	"fmt"

	"hpcbd/internal/cluster"
	"hpcbd/internal/core"
)

func main() {
	csv := flag.Bool("csv", false, "emit CSV instead of aligned text")
	flag.Parse()

	t := core.Table1()
	if *csv {
		fmt.Print(t.CSV())
		return
	}
	fmt.Println(t)

	fmt.Println("Interconnect software paths (per message):")
	for _, f := range []cluster.FabricSpec{cluster.RDMAVerbsFDR(), cluster.IPoIB(), cluster.Ethernet10G(), cluster.IntraNode()} {
		fmt.Printf("  %-16s latency=%-8v bw=%5.1f GB/s  send+recv overhead=%v\n",
			f.Name, f.Latency, f.Bandwidth/1e9, f.SendOverhead+f.RecvOverhead)
	}

	cm := cluster.DefaultCostModel()
	fmt.Println("\nSoftware-stack cost model (DESIGN.md §5):")
	fmt.Printf("  C scan %.1f GB/s | JVM factor %.2f | JVM disk-stream efficiency %.2f\n",
		cm.ScanBW/1e9, cm.JVMFactor, cm.JVMIOFactor)
	fmt.Printf("  Spark: task dispatch %v, launch %v, stage %v, job %v\n",
		cm.SparkTaskDispatch, cm.SparkTaskLaunch, cm.SparkStageOverhead, cm.SparkJobOverhead)
	fmt.Printf("  Hadoop: task %v, job %v\n", cm.HadoopTaskOverhead, cm.HadoopJobOverhead)
	fmt.Printf("  HDFS: block RPC %v, stream setup %v, checksum %.1f GB/s\n",
		cm.DFSBlockRPC, cm.DFSStreamSetup, cm.DFSChecksumBW/1e9)
	fmt.Printf("  MPI: eager threshold %d B, per-call overhead %v\n",
		cm.MPIEagerThreshold, cm.MPIPerCallOverhead)
}
