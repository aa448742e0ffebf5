// Command stack-bench runs the software-stack ablations of the paper's
// §IV comparison (Figure 1's layer table) plus the related-work
// reproductions: interconnect transports, storage layers, resource
// managers, rack topology, and MapReduce-on-MPI vs Hadoop.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"hpcbd/internal/core"
)

// ablations lists every table stack-bench can print, in output order.
var ablations = []struct {
	name string
	run  func(core.Options) core.Table
}{
	{"interconnect", func(o core.Options) core.Table { t, _ := core.AblationInterconnect(o); return t }},
	{"filesystem", func(o core.Options) core.Table { t, _ := core.AblationFilesystem(o); return t }},
	{"scheduler", func(o core.Options) core.Table { t, _ := core.AblationScheduler(o); return t }},
	{"topology", func(o core.Options) core.Table { t, _ := core.AblationTopology(o); return t }},
	{"mrmpi", func(o core.Options) core.Table { t, _ := core.AblationMRMPI(o); return t }},
	{"kmeans", func(o core.Options) core.Table { t, _ := core.AblationKMeans(o, 8, 8, 10); return t }},
	{"offload", func(o core.Options) core.Table { t, _ := core.AblationOffload(o); return t }},
	{"memory", func(o core.Options) core.Table { t, _ := core.AblationMemory(o); return t }},
}

func main() {
	var names []string
	for _, a := range ablations {
		names = append(names, a.name)
	}
	quick := flag.Bool("quick", false, "run the scaled-down test configuration")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned text")
	which := flag.String("only", "", "comma-separated subset: "+strings.Join(names, ","))
	flag.Parse()

	want := map[string]bool{}
	if *which != "" {
		for _, w := range strings.Split(*which, ",") {
			w = strings.TrimSpace(w)
			if !slices.Contains(names, w) {
				fmt.Fprintf(os.Stderr, "unknown -only name %q (want a comma-separated subset of %s)\n", w, strings.Join(names, ", "))
				os.Exit(2)
			}
			want[w] = true
		}
	}
	o := core.Full()
	if *quick {
		o = core.Quick()
	}
	for _, a := range ablations {
		if len(want) > 0 && !want[a.name] {
			continue
		}
		t := a.run(o)
		if *csv {
			fmt.Print(t.CSV())
		} else {
			fmt.Println(t)
		}
	}
}
