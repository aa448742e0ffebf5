// Command ledger is the repo's benchmark: three named workloads run as
// closed-loop batch passes from one process with at most nproc Go
// threads, every output checked, every metric printed by name with its
// unit. README.md beside this file says what is measured and why;
// BENCHMARK.json at the root of the repo is the contract it is run to.
//
//	bash ledger/run.sh -workload <figures|scale_serial|chaos|all>
//	     [-seed N] [-seconds S] [-trace 0|1] [-out set.json] [-smoke]
//	bash ledger/run.sh -compare A.json B.json
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics with
// -trace 0, the per-layer metrics with -trace 1.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	osexec "os/exec"
	"strconv"
	"strings"

	"hpcbd/internal/gctune"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its streams and exit code made explicit. 0: ran and
// every output was correct (or -compare found no breach); 1: an
// operation failed or -compare found a breach; 2: usage, or files that
// cannot be compared.
func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("ledger", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "figures, scale_serial, chaos or all")
	seed := fl.Int64("seed", DefaultSeed, "feeds Options.Seed (datasets, graphs, kernel RNG, fault plans) and nothing else")
	seconds := fl.Float64("seconds", DefaultSeconds, "how long the measured passes run")
	trace := fl.Int("trace", 0, "1: the traced run (spans, CPU profile, probes) that yields the per-layer metrics")
	out := fl.String("out", "", "merge this run into a set file (and write <out>.<workload>.trace.json when traced)")
	smoke := fl.Bool("smoke", false, "test-scale inputs, probes at 1/100: exercises every path in seconds")
	compare := fl.Bool("compare", false, "compare two set files: ledger -compare A.json B.json")
	setupOnly := fl.Bool("setup-only", false, "internal: set the workload up and exit (how setup_s is measured)")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fl.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: ledger -compare A.json B.json")
			return 2
		}
		return compareFiles(fl.Arg(0), fl.Arg(1), stdout, stderr)
	}

	// As the cmd/* tools do; exec's pool and ForEach widths stay at
	// their defaults (nproc), which is what a user regenerating the
	// paper gets.
	gctune.Apply()
	cfg := config{seed: optionsSeed(*name, *seed), smoke: *smoke}
	if *name == "all" {
		return runAll(args, stderr)
	}
	if *setupOnly {
		w, err := newWorkload(*name, cfg)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		w.setup()
		return 0
	}

	var rec *record
	var spans []span
	var err error
	if *trace != 0 {
		rec, spans, err = runTraced(*name, cfg, *seconds)
	} else {
		rec, err = runUntraced(*name, cfg, *seconds)
	}
	if err != nil {
		fmt.Fprintln(stderr, "ledger:", err)
		return 2
	}
	env := takeFingerprint(*seed, *seconds, *smoke)
	rec.OptionsSeed = cfg.seed
	report(stdout, *name, *trace != 0, env, rec)
	if *out != "" {
		if err := mergeInto(*out, env, *name, *trace != 0, rec); err != nil {
			fmt.Fprintln(stderr, "ledger:", err)
			return 2
		}
		if spans != nil {
			path := strings.TrimSuffix(*out, ".json") + "." + *name + ".trace.json"
			if err := writeChromeTrace(path, spans); err != nil {
				fmt.Fprintln(stderr, "ledger:", err)
				return 2
			}
		}
	}
	last, err := json.Marshal(map[string]any{
		"correct": rec.OpsFailed == 0, "attempted": rec.Ops, "failed": rec.OpsFailed, "metrics": rec.Metrics,
	})
	if err != nil {
		fmt.Fprintln(stderr, "ledger:", err)
		return 2
	}
	fmt.Fprintf(stdout, "%s\n", last)
	if rec.OpsFailed > 0 {
		return 1
	}
	return 0
}

// runAll runs every workload in a process of its own, one after the
// other with the same flags, so that none inherits another's heap.
func runAll(args []string, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "ledger:", err)
		return 2
	}
	code := 0
	for _, w := range workloadCatalog {
		cmd := osexec.Command(exe, append(append([]string{}, args...), "-workload", w.Name)...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			var exit *osexec.ExitError
			if !errors.As(err, &exit) {
				fmt.Fprintln(stderr, "ledger:", err)
				return 2
			}
			if c := exit.ExitCode(); c > code {
				code = c
			}
		}
	}
	return code
}

// report prints every metric of the run by name with its unit, the
// per-operation timings with their quartiles, and any failure.
func report(w io.Writer, name string, traced bool, env fingerprint, rec *record) {
	kind := "end-to-end, tracing off"
	if traced {
		kind = "per-layer, traced"
	}
	fmt.Fprintf(w, "ledger: workload %s (%s)  seed %d  seconds %g  nproc %d  GOMAXPROCS %d  quota %d  %s  GOGC %d  commit %s  cpu %q\n",
		name, kind, env.Seed, env.Seconds, env.NProc, env.GOMAXPROCS, env.QuotaCPUs, env.GoVersion, env.GOGC, env.Commit, env.CPUModel)
	fmt.Fprintf(w, "Options.Seed %d  passes %d  ops %d  ops_failed %d  digest %.16s\n", rec.OptionsSeed, rec.Passes, rec.Ops, rec.OpsFailed, rec.Digest)
	for _, f := range rec.Failures {
		fmt.Fprintln(w, "  FAILED", f)
	}
	fmt.Fprintf(w, "%-18s %3s %10s %10s %10s %10s %10s   (s; per measured pass)\n", "operation", "n", "min", "q1", "median", "q3", "max")
	row := func(label string, s summary) {
		fmt.Fprintf(w, "%-18s %3d %10.4f %10.4f %10.4f %10.4f %10.4f\n", label, s.N, s.Min, s.Q1, s.Median, s.Q3, s.Max)
	}
	for _, o := range rec.PerOp {
		row(o.Name+" wall", o.Wall)
		row(o.Name+" cpu", o.CPU)
	}
	row("whole pass wall", rec.PassWall)
	fmt.Fprintf(w, "pass IQR/median %.1f%%\n", rec.PassWall.iqrPct())
	if traced {
		for _, m := range perLayer {
			fmt.Fprintf(w, "%-42s %16s %s\n", m.Name, strconv.FormatFloat(rec.Metrics[m.Name].Value, 'g', 6, 64), m.Unit)
		}
		return
	}
	for _, m := range endToEnd {
		fmt.Fprintf(w, "%-24s %16s %-14s (%s is better, bound %g%%)\n", m.Name,
			strconv.FormatFloat(rec.Metrics[m.Name].Value, 'g', 8, 64), m.Unit, m.Better, 100*m.Bound)
	}
}

// setFile is a set of runs taken under one fingerprint: what -out
// writes and -compare reads.
type setFile struct {
	Env  fingerprint              `json:"env"`
	Runs map[string]*workloadRuns `json:"runs"`
}

type workloadRuns struct {
	Untraced *record `json:"untraced,omitempty"`
	Traced   *record `json:"traced,omitempty"`
}

func readSet(path string) (*setFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s setFile
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// comparable reports whether two fingerprints describe runs whose
// numbers may be set side by side.
func (f fingerprint) comparable(g fingerprint) bool {
	return f.NProc == g.NProc && f.Seed == g.Seed && f.Seconds == g.Seconds && f.Smoke == g.Smoke
}

// mergeInto adds the run to the set file at path, creating it if need
// be, and refuses a file taken under another nproc, seed or run length.
func mergeInto(path string, env fingerprint, name string, traced bool, rec *record) error {
	s, err := readSet(path)
	switch {
	case errors.Is(err, fs.ErrNotExist):
		s = &setFile{Env: env, Runs: map[string]*workloadRuns{}}
	case err != nil:
		return err
	case !s.Env.comparable(env):
		return fmt.Errorf("%s holds runs at nproc %d, seed %d, %g s; this run is at nproc %d, seed %d, %g s",
			path, s.Env.NProc, s.Env.Seed, s.Env.Seconds, env.NProc, env.Seed, env.Seconds)
	}
	if s.Runs[name] == nil {
		s.Runs[name] = &workloadRuns{}
	}
	if traced {
		s.Runs[name].Traced = rec
	} else {
		s.Runs[name].Untraced = rec
	}
	b, err := json.MarshalIndent(s, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
