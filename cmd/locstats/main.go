// Command locstats regenerates Table III: the maintainability analysis
// (lines of code and boilerplate) over this repository's benchmark
// implementations.
package main

import (
	"flag"
	"fmt"
	"log"

	"hpcbd/internal/core"
)

func main() {
	csv := flag.Bool("csv", false, "emit CSV instead of aligned text")
	flag.Parse()

	t, err := core.Table3()
	if err != nil {
		log.Fatal(err)
	}
	if *csv {
		fmt.Print(t.CSV())
		return
	}
	fmt.Println(t)
	fmt.Println("(counts cover the marked per-framework regions in internal/core/impl_*.go;")
	fmt.Println(" boilerplate = setup/teardown within bp: markers, as in the paper's Table III)")
}
