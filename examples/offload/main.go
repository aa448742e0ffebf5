// Offload: the §III-D heterogeneity story, executable. The same kernel is
// run three ways — OpenMP on host cores, OpenMP `target` offload to a
// discrete GPU (paying PCIe transfers), and on a unified-memory device —
// across arithmetic intensities, showing where the accelerator pays off.
//
//	go run ./examples/offload
package main

import (
	"fmt"

	"hpcbd/internal/cluster"
	"hpcbd/internal/omp"
	"hpcbd/internal/sim"
)

func main() {
	const dataBytes = 4 << 30 // 4 GiB working set
	fmt.Println("kernel over a 4 GiB working set, one node, by arithmetic intensity:")
	fmt.Printf("\n%-14s %12s %14s %14s\n", "flops/byte", "host 24c", "GPU (PCIe)", "GPU (unified)")

	for _, intensity := range []float64{0.5, 8, 128} {
		flops := intensity * dataBytes
		hostSecs := flops / (cluster.CometNode().FlopRate * 0.5) // 50% of peak on the host
		results := map[string]float64{}

		run := func(name string, spec *cluster.GPUSpec) {
			c := cluster.Comet(sim.NewKernel(1), 1)
			if spec != nil {
				c.AttachGPU(*spec)
			}
			var end sim.Time
			c.K.Spawn("main", func(p *sim.Proc) {
				omp.Parallel(p, c, 0, 24, func(t *omp.Thread) {
					if spec == nil {
						// Host: all 24 cores work concurrently; hostSecs
						// is the node-parallel wall time.
						t.For(24, omp.Static, 0, func(lo, hi int) {
							t.Compute(hostSecs * float64(hi-lo))
						})
					} else {
						t.Single(func(s *omp.Thread) {
							s.Target(c, 0, omp.TargetRegion{
								MapTo:   dataBytes,
								MapFrom: dataBytes / 4,
								Flops:   flops,
							})
						})
					}
				})
				end = p.Now()
			})
			c.K.Run()
			results[name] = end.Seconds()
		}
		run("host", nil)
		k80 := cluster.TeslaK80()
		run("gpu", &k80)
		knl := cluster.KNLUnified()
		run("unified", &knl)

		fmt.Printf("%-14g %11.3fs %13.3fs %13.3fs\n",
			intensity, results["host"], results["gpu"], results["unified"])
	}
	fmt.Println("\nLow intensity: the PCIe transfer wall erases the device's advantage")
	fmt.Println("(§III-D: \"the very high cost of transferring data between host and")
	fmt.Println("device\"); unified memory removes the copies; high intensity amortizes")
	fmt.Println("everything and the accelerator dominates.")
}
