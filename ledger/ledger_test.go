package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

// The untraced run measures set-up by starting its own binary with
// -setup-only; under go test that binary is this test binary.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-setup-only" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

func TestQuartiles(t *testing.T) {
	s := summarize([]float64{5, 1, 4, 2, 3})
	want := summary{N: 5, Min: 1, Q1: 2, Median: 3, Q3: 4, Max: 5}
	if s != want {
		t.Errorf("summarize = %+v, want %+v", s, want)
	}
	if got := s.iqrPct(); got != 100*2.0/3.0 {
		t.Errorf("iqrPct = %v", got)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median of four = %v, want 2.5", m)
	}
	if q := quantile([]float64{0, 10}, 0.25); q != 2.5 {
		t.Errorf("interpolated quartile = %v, want 2.5", q)
	}
	if one := summarize([]float64{7}); one.Median != 7 || one.Q1 != 7 || one.iqrPct() != 0 {
		t.Errorf("single sample: %+v", one)
	}
}

// run(0..100) → pass(10..90) → {fig(10..50) → check(40..50), fig(50..85)}
func TestSelfTimes(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{Name: "run", Parent: -1, Start: ms(0), End: ms(100)},
		{Name: "pass", Parent: 0, Pass: 1, Start: ms(10), End: ms(90)},
		{Name: "fig", Parent: 1, Pass: 1, Start: ms(10), End: ms(50), Events: 7},
		{Name: "core.check", Parent: 2, Pass: 1, Start: ms(40), End: ms(50)},
		{Name: "fig", Parent: 1, Pass: 1, Start: ms(50), End: ms(85), Events: 5},
	}
	want := []time.Duration{ms(20), ms(5), ms(30), ms(10), ms(35)}
	self := selfTimes(spans)
	var sum time.Duration
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self[%d] (%s) = %v, want %v", i, spans[i].Name, self[i], want[i])
		}
		sum += self[i]
	}
	if sum != ms(100) {
		t.Errorf("self times sum to %v, the root span is 100ms", sum)
	}
	secs, events := selfByName(spans, 1)
	if secs["fig"] != 0.065 || events["fig"] != 12 || secs["run"] != 0 {
		t.Errorf("selfByName(pass 1) = %v %v", secs, events)
	}

	tr := newTracer()
	a := tr.begin("a")
	tr.in("b", func() {})
	tr.end(a, 3)
	if len(tr.spans) != 2 || tr.spans[1].Parent != 0 || tr.spans[0].Events != 3 || len(tr.open) != 0 {
		t.Errorf("tracer recorded %+v", tr.spans)
	}
	var off *tracer
	off.in("nothing", func() {}) // a nil tracer records nothing and does not panic
}

func TestCatalogWithinContract(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n, u string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is outside the contract", n)
		}
		if !unit.MatchString(u) {
			t.Errorf("unit %q of %s is outside the contract", u, n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloadCatalog {
		check(w.Name, "count")
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("why of %s is not one line of at most 200 characters", w.Name)
		}
	}
	hasSetup := false
	for _, m := range endToEnd {
		check(m.Name, m.Unit)
		if m.Bound < 0 || m.Bound > 0.25 {
			t.Errorf("bound %v of %s is outside [0, 0.25]", m.Bound, m.Name)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in s, lower is better")
	}
	for _, m := range perLayer {
		check(m.Name, m.Unit)
	}
	if n := len(workloadCatalog); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
}

func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes", len(raw))
	}
	var doc struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadInfo `json:"workloads"`
		EndToEnd   []metricInfo   `json:"end_to_end"`
		PerLayer   []layerMetric  `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields() // exactly these keys
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if strings.Join(doc.Command, " ") != "bash ledger/run.sh" || strings.Join(doc.Paths, " ") != "ledger" {
		t.Errorf("command %q, paths %q", doc.Command, doc.Paths)
	}
	if doc.RunSeconds != DefaultSeconds {
		t.Errorf("run_seconds %d, the ledger's default is %d", doc.RunSeconds, DefaultSeconds)
	}
	if len(doc.Workloads) != len(workloadCatalog) || len(doc.EndToEnd) != len(endToEnd) || len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d workloads, %d end-to-end and %d per-layer metrics; the catalog has %d, %d and %d",
			len(doc.Workloads), len(doc.EndToEnd), len(doc.PerLayer), len(workloadCatalog), len(endToEnd), len(perLayer))
	}
	for i, w := range workloadCatalog {
		if doc.Workloads[i] != w {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the catalog %+v", i, doc.Workloads[i], w)
		}
	}
	for i, m := range endToEnd {
		if doc.EndToEnd[i] != m {
			t.Errorf("end-to-end %d: BENCHMARK.json has %+v, the catalog %+v", i, doc.EndToEnd[i], m)
		}
	}
	for i, m := range perLayer {
		if doc.PerLayer[i] != m {
			t.Errorf("per-layer %d: BENCHMARK.json has %+v, the catalog %+v", i, doc.PerLayer[i], m)
		}
	}
}

func TestOptionsSeed(t *testing.T) {
	for name, list := range admissibleSeeds {
		in := map[int64]bool{}
		for _, s := range list {
			in[s] = true
			if got := optionsSeed(name, s); got != s {
				t.Errorf("%s: listed seed %d maps to %d", name, s, got)
			}
		}
		if !in[DefaultSeed] {
			t.Errorf("%s: the default seed is not admissible", name)
		}
		for _, s := range []int64{-7, 31, 99, 1 << 40} {
			if got := optionsSeed(name, s); !in[got] {
				t.Errorf("%s: seed %d maps to %d, which is not listed", name, s, got)
			}
		}
	}
	if got := optionsSeed("scale_serial", 99); got != 99 {
		t.Errorf("scale_serial takes any seed, got %d for 99", got)
	}
}

func TestCPUShares(t *testing.T) {
	for fn, want := range map[string]string{
		"hpcbd/internal/sim.(*eventQueue).pop":                    "sim",
		"hpcbd/internal/rdd.mergeCombine[go.shape.int32,float64]": "rdd",
		"hpcbd/internal/keyhash.Hash[go.shape.int32]":             "keyhash",
		"hpcbd/internal/scratch.I32Fill":                          "other",
		"runtime.scanobject":                                      "runtime_gc",
		"runtime.mallocgc":                                        "runtime_gc",
		"runtime.coroswitch_m":                                    "runtime_sched",
		"iter.Pull[go.shape.struct {}].func2":                     "runtime_sched",
		"runtime.memmove":                                         "runtime_other",
		"sort.insertionSort":                                      "other",
	} {
		if got := shareKey(fn); got != want {
			t.Errorf("shareKey(%q) = %q, want %q", fn, got, want)
		}
	}
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		t.Fatal(err)
	}
	for start, x := time.Now(), 0.0; time.Since(start) < 60*time.Millisecond; x++ {
		hashSink += uint64(x)
	}
	pprof.StopCPUProfile()
	shares, err := cpuShares(prof.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, v := range shares {
		sum += v
	}
	if len(shares) > 0 && (sum < 0.999 || sum > 1.001) {
		t.Errorf("shares sum to %v: %v", sum, shares)
	}
	if _, err := cpuShares([]byte("not a profile")); err == nil {
		t.Error("garbage parsed as a profile")
	}
}

// lastLine decodes the result line the driver reads.
func lastLine(t *testing.T, out string) (res struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   map[string]metricOut
}) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, lines[len(lines)-1])
	}
	return res
}

// TestSmoke runs every workload at test scale, untraced and traced, into
// one set file, checks that each run emits exactly the catalog's names,
// and exercises -compare on the file: against itself, against a slowed
// copy, and against a copy taken at another seed.
func TestSmoke(t *testing.T) {
	dir := t.TempDir()
	set := filepath.Join(dir, "a.json")
	names := []string{"figures", "scale_serial"}
	if !testing.Short() {
		names = append(names, "chaos") // 8 s of sweeps even at test scale
	}
	for _, name := range names {
		for _, trace := range []string{"0", "1"} {
			var out, errs bytes.Buffer
			code := run([]string{"--workload", name, "--seed", "20160926", "--seconds", "0", "--trace", trace, "-smoke", "-out", set}, &out, &errs)
			if code != 0 {
				t.Fatalf("%s -trace %s: exit %d\n%s%s", name, trace, code, out.String(), errs.String())
			}
			res := lastLine(t, out.String())
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s -trace %s: %+v", name, trace, res)
			}
			want := map[string]string{}
			if trace == "0" {
				for _, m := range endToEnd {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range perLayer {
					want[m.Name] = m.Unit
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s -trace %s: %d metrics, the catalog has %d", name, trace, len(res.Metrics), len(want))
			}
			for n, u := range want {
				if m, ok := res.Metrics[n]; !ok || m.Unit != u {
					t.Errorf("%s -trace %s: metric %s is %+v, want unit %s", name, trace, n, m, u)
				}
			}
			if trace == "0" {
				for _, n := range []string{"wall_s", "cpu_s", "events_per_s", "sim_events", "allocs_per_event", "setup_s", "peak_rss_mb"} {
					if res.Metrics[n].Value <= 0 {
						t.Errorf("%s: %s = %v", name, n, res.Metrics[n].Value)
					}
				}
			}
		}
		if _, err := os.Stat(filepath.Join(dir, "a."+name+".trace.json")); err != nil {
			t.Errorf("no trace-event file for %s: %v", name, err)
		}
	}
	a, err := readSet(set)
	if err != nil {
		t.Fatal(err)
	}
	// The traced scale run repeats its larger point on 4 shards, serially
	// and in windows, and fails an operation if either commits other
	// events or virtual seconds than on one heap; it passed above.
	for _, n := range []string{"sim.scale1k_events_per_s", "sim.scale1k_sharded_serial_events_per_s", "sim.scale1k_windows_events_per_s",
		"sim.scale1k_windows_speedup", "sim.scale2k_events_per_s", "sim.windowed_frac", "core.sim_scale250_s", "core.sim_scale1k_s"} {
		if v := a.Runs["scale_serial"].Traced.Metrics[n].Value; v <= 0 {
			t.Errorf("scale_serial traced: %s = %v", n, v)
		}
	}

	var out, errs bytes.Buffer
	if code := run([]string{"-compare", set, set}, &out, &errs); code != 0 {
		t.Errorf("a file against itself: exit %d\n%s%s", code, out.String(), errs.String())
	}
	slow := *a.Runs["figures"].Untraced
	slow.Metrics = map[string]metricOut{}
	for k, v := range a.Runs["figures"].Untraced.Metrics {
		slow.Metrics[k] = v
	}
	slow.Metrics["wall_s"] = metricOut{Value: 2 * slow.Metrics["wall_s"].Value, Unit: "s"}
	write := func(path string, s setFile) {
		b, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	slowSet := filepath.Join(dir, "slow.json")
	write(slowSet, setFile{Env: a.Env, Runs: map[string]*workloadRuns{"figures": {Untraced: &slow}}})
	out.Reset()
	if code := run([]string{"-compare", set, slowSet}, &out, &errs); code != 1 || !strings.Contains(out.String(), "BREACH") {
		t.Errorf("a doubled wall_s: exit %d\n%s", code, out.String())
	}
	other := filepath.Join(dir, "other.json")
	env := a.Env
	env.Seed++
	write(other, setFile{Env: env, Runs: a.Runs})
	if code := run([]string{"-compare", set, other}, &out, &errs); code != 2 {
		t.Errorf("files at different seeds: exit %d, want 2 (refused)", code)
	}
}
