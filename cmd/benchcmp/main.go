// Command benchcmp diffs two benchmark result files produced by `make
// bench` (go test -json output, plain `go test -bench` text also
// accepted) and fails when a gated benchmark's wall-clock or allocation
// count regresses beyond the allowed percentage. It is the repo's guard
// against host performance backsliding:
//
//	make bench                                 # writes BENCH_<date>.json
//	go run ./cmd/benchcmp OLD.json NEW.json    # diff, gate at 10% / 15%
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// testEvent is the subset of the test2json stream benchcmp cares about.
type testEvent struct {
	Action string `json:"Action"`
	Test   string `json:"Test"`
	Output string `json:"Output"`
}

var (
	benchLine  = regexp.MustCompile(`^(Benchmark\S+)\s+\d+\s+([0-9.]+) ns/op`)
	nsValue    = regexp.MustCompile(`([0-9.]+) ns/op`)
	allocValue = regexp.MustCompile(`([0-9.]+) allocs/op`)
	evsecValue = regexp.MustCompile(`([0-9.]+(?:[eE][+-]?[0-9]+)?) sim-events/sec`)
	cpuSuffix  = regexp.MustCompile(`-\d+$`) // the -GOMAXPROCS name suffix
)

// result is one benchmark's measurements. allocs is -1 when the file was
// recorded without -benchmem; evsec is -1 when the benchmark does not
// report simulator throughput.
type result struct {
	ns     float64
	allocs float64
	evsec  float64
}

// parseFile extracts benchmark name -> measurements from a result file.
// For test2json files the event's Test field names the benchmark —
// necessary because benchmarks that print artifacts get their result line
// split across output events. Plain `go test -bench` text is also
// accepted.
func parseFile(path string) (map[string]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]result{}
	record := func(name, line string) {
		m := nsValue.FindStringSubmatch(line)
		if m == nil {
			return
		}
		ns, err := strconv.ParseFloat(m[1], 64)
		if err != nil {
			return
		}
		allocs := -1.0
		if a := allocValue.FindStringSubmatch(line); a != nil {
			if v, err := strconv.ParseFloat(a[1], 64); err == nil {
				allocs = v
			}
		}
		evsec := -1.0
		if e := evsecValue.FindStringSubmatch(line); e != nil {
			if v, err := strconv.ParseFloat(e[1], 64); err == nil {
				evsec = v
			}
		}
		name = cpuSuffix.ReplaceAllString(name, "")
		if _, dup := out[name]; !dup {
			out[name] = result{ns: ns, allocs: allocs, evsec: evsec}
		}
	}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "{") {
			var ev testEvent
			if json.Unmarshal([]byte(line), &ev) != nil || ev.Action != "output" || ev.Test == "" {
				continue
			}
			record(ev.Test, ev.Output)
			continue
		}
		if m := benchLine.FindStringSubmatch(strings.TrimSpace(line)); m != nil {
			record(m[1], line)
		}
	}
	return out, sc.Err()
}

func main() {
	maxRegress := flag.Float64("max-regress", 10,
		"fail when a gated benchmark's ns/op grows by more than this percentage")
	maxAllocRegress := flag.Float64("max-alloc-regress", 15,
		"fail when a gated benchmark's allocs/op grows by more than this percentage")
	maxEvsecRegress := flag.Float64("max-evsec-regress", 25,
		"fail when a gated benchmark's sim-events/sec shrinks by more than this percentage")
	gate := flag.String("gate", "Fig4AnswersCount|Fig6PageRankBigDataBench|Fig7PageRankHiBench",
		"regexp of benchmark names whose regressions fail the run")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchcmp [-max-regress pct] [-max-alloc-regress pct] [-gate regexp] OLD NEW")
		os.Exit(2)
	}
	gateRE, err := regexp.Compile(*gate)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcmp: bad -gate:", err)
		os.Exit(2)
	}
	old, err := parseFile(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcmp:", err)
		os.Exit(2)
	}
	cur, err := parseFile(flag.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcmp:", err)
		os.Exit(2)
	}

	names := make([]string, 0, len(old))
	for name := range old {
		if _, ok := cur[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		fmt.Fprintln(os.Stderr, "benchcmp: no common benchmarks between the two files")
		os.Exit(2)
	}

	pct := func(o, n float64) float64 { return 100 * (n - o) / o }
	failed := false
	fmt.Printf("%-42s %14s %14s %8s %14s %14s %8s\n",
		"benchmark", "old ns/op", "new ns/op", "delta", "old allocs", "new allocs", "delta")
	for _, name := range names {
		o, n := old[name], cur[name]
		gated := gateRE.MatchString(name)
		nsDelta := pct(o.ns, n.ns)
		mark := ""
		if gated && nsDelta > *maxRegress {
			mark = "  REGRESSION(time)"
			failed = true
		}
		allocCols := fmt.Sprintf("%14s %14s %8s", "-", "-", "-")
		if o.allocs >= 0 && n.allocs >= 0 {
			aDelta := 0.0
			if o.allocs > 0 {
				aDelta = pct(o.allocs, n.allocs)
			} else if n.allocs > 0 {
				aDelta = 100
			}
			if gated && aDelta > *maxAllocRegress {
				mark += "  REGRESSION(allocs)"
				failed = true
			}
			allocCols = fmt.Sprintf("%14.0f %14.0f %+7.1f%%", o.allocs, n.allocs, aDelta)
		}
		evCols := ""
		if o.evsec > 0 && n.evsec > 0 {
			// Simulator throughput is higher-is-better: gate the shrink.
			eDelta := pct(o.evsec, n.evsec)
			if gated && eDelta < -*maxEvsecRegress {
				mark += "  REGRESSION(sim-events/sec)"
				failed = true
			}
			evCols = fmt.Sprintf("  ev/s %.3g->%.3g (%+.1f%%)", o.evsec, n.evsec, eDelta)
		}
		fmt.Printf("%-42s %14.0f %14.0f %+7.1f%% %s%s%s\n", name, o.ns, n.ns, nsDelta, allocCols, evCols, mark)
	}
	if failed {
		fmt.Fprintf(os.Stderr, "benchcmp: gated benchmark regressed (time >%.1f%%, allocs >%.1f%%, or sim-events/sec down >%.1f%%)\n",
			*maxRegress, *maxAllocRegress, *maxEvsecRegress)
		os.Exit(1)
	}
}
