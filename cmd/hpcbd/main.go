// Command hpcbd regenerates this repository's artifacts by name: the
// paper's tables and figures (table1, fig3, table2, fig4, fig6, fig7,
// table3), their variants (fig3-shmem, persist, scale), the six
// fault-injection sweeps, the eight software-stack ablations and the
// four Discussion ablations (replication, faults, rda, converged).
//
//	hpcbd [-quick] [-csv | -json] [-plot] [-cpuprofile F] [-memprofile F] <name>... | all
//
// Tables and figures go to stdout, shape checks to stderr. An artifact
// whose check compares two runs (every sweep) runs twice with one seed,
// so its determinism is checked, not asserted. The exit code is 1 on any
// shape violation and 2 on a usage error: an unknown name, no name, or
// -csv with -json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"hpcbd/internal/core"
	"hpcbd/internal/gctune"
	"hpcbd/internal/profiling"
)

func main() {
	gctune.Apply()
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	arts := core.Artifacts()
	var names []string
	for _, a := range arts {
		names = append(names, a.Name)
	}
	fs := flag.NewFlagSet("hpcbd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: hpcbd [flags] <name>... | all")
		fmt.Fprintln(stderr, "artifacts: "+strings.Join(names, " "))
		fs.PrintDefaults()
	}
	quick := fs.Bool("quick", false, "run the scaled-down test configuration")
	csv := fs.Bool("csv", false, "emit CSV instead of aligned text")
	jsonOut := fs.Bool("json", false, "emit the raw results as one JSON object keyed by name (suppresses tables)")
	plot := fs.Bool("plot", false, "also render each figure as an ASCII chart")
	cpu := fs.String("cpuprofile", "", "write a CPU profile to this file")
	mem := fs.String("memprofile", "", "write an allocation profile to this file on exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *csv && *jsonOut {
		fmt.Fprintln(stderr, "-csv and -json are mutually exclusive")
		return 2
	}
	var sel []core.Artifact
	for _, n := range fs.Args() {
		if n == "all" {
			sel = append(sel, arts...)
			continue
		}
		i := slices.Index(names, n)
		if i < 0 {
			fmt.Fprintf(stderr, "unknown artifact %q (want all or any of: %s)\n", n, strings.Join(names, ", "))
			return 2
		}
		sel = append(sel, arts[i])
	}
	if len(sel) == 0 {
		fs.Usage()
		return 2
	}

	stop, err := profiling.Start(*cpu, *mem)
	if err != nil {
		fmt.Fprintln(stderr, "profiling:", err)
		return 1
	}
	o := core.Full()
	if *quick {
		o = core.Quick()
	}
	code := 0
	results := map[string]any{}
	for _, a := range sel {
		r := a.Run(o)
		var bad []string
		if a.Check != nil {
			var second any
			if a.Pair {
				second = a.Run(o)
			}
			bad = a.Check(r, second)
		}
		if *jsonOut {
			results[a.Name] = r
		} else {
			show(stdout, a.Show(r), *csv, *plot)
		}
		switch {
		case len(bad) > 0:
			fmt.Fprintf(stderr, "%s: shape violations:\n  %s\n", a.Name, strings.Join(bad, "\n  "))
			code = 1
		case a.Check != nil:
			fmt.Fprintf(stderr, "%s: shape check: OK (%s)\n", a.Name, a.Holds)
		}
	}
	if err := stop(); err != nil {
		fmt.Fprintln(stderr, "profiling:", err)
		code = 1
	}
	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(results); err != nil {
			fmt.Fprintln(stderr, "json encode:", err)
			return 1
		}
	}
	return code
}

// show prints a result's tables, figures and lines.
func show(w io.Writer, items []any, csv, plot bool) {
	for _, it := range items {
		if c, ok := it.(interface{ CSV() string }); ok && csv {
			fmt.Fprint(w, c.CSV())
		} else {
			fmt.Fprintln(w, it)
		}
		if f, ok := it.(core.Figure); ok && plot {
			fmt.Fprintln(w, f.Plot(60, 12))
		}
	}
}
