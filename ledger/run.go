package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	osexec "os/exec"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"time"

	"hpcbd/internal/core"
	"hpcbd/internal/sim"
)

// sample is what one operation of one pass cost the host.
type sample struct {
	wall, cpu      float64
	events         int64
	mallocs, bytes uint64
}

// opRef is what the warm-up pass produced for an operation; every later
// pass must reproduce it.
type opRef struct {
	digest string
	events int64
}

// recorder runs passes and keeps their samples.
type recorder struct {
	ref       []opRef
	attempted int
	failed    int
	failures  []string
	model     map[string]float64 // from the latest pass
	layer     map[string]float64
	figs      map[string]core.Figure
}

func newRecorder() *recorder {
	return &recorder{model: map[string]float64{}, layer: map[string]float64{}, figs: map[string]core.Figure{}}
}

// counters is a reading of the host-side counters a sample is the
// difference of.
type counters struct {
	cpu     float64
	events  int64
	mallocs uint64
	bytes   uint64
	gcs     uint32
}

func readCounters() counters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return counters{cpu: cpuSeconds(), events: sim.TotalEvents(), mallocs: ms.Mallocs, bytes: ms.TotalAlloc, gcs: ms.NumGC}
}

func digestOf(out opOut) string {
	h := sha256.New()
	h.Write([]byte(out.render))
	var b [8]byte
	for _, v := range out.vec {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// exec runs one operation with its panics caught and its spans closed,
// counts it as attempted, and returns what it produced, what it cost and
// why it failed, if it did: a panic, a check violation, or disagreement
// with its oracle.
func (r *recorder) exec(tr *tracer, o op) (out opOut, s sample, why []string) {
	r.attempted++
	span := tr.begin(o.name)
	c0 := readCounters()
	t0 := time.Now()
	func() {
		defer func() {
			if p := recover(); p != nil {
				why = append(why, fmt.Sprintf("panic: %v", p))
			}
		}()
		out = o.run(tr)
	}()
	wall := time.Since(t0).Seconds()
	c1 := readCounters()
	tr.endThrough(span, c1.events-c0.events)
	s = sample{wall: wall, cpu: c1.cpu - c0.cpu, events: c1.events - c0.events,
		mallocs: c1.mallocs - c0.mallocs, bytes: c1.bytes - c0.bytes}
	return out, s, append(why, out.viol...)
}

// fail counts an operation as failed if there is a reason to.
func (r *recorder) fail(label string, why []string) {
	if len(why) == 0 {
		return
	}
	r.failed++
	for _, w := range why {
		r.failures = append(r.failures, label+": "+w)
	}
}

// pass runs the operations once, in order, and returns one sample per
// operation. Besides exec's reasons, an operation fails if it does not
// reproduce the warm-up pass's output digest and event count.
func (r *recorder) pass(ops []op, tr *tracer, id int) []sample {
	if tr != nil {
		tr.pass = id
	}
	passSpan := tr.begin("pass")
	samples := make([]sample, len(ops))
	for i, o := range ops {
		out, s, why := r.exec(tr, o)
		samples[i] = s
		got := opRef{digest: digestOf(out), events: s.events}
		if len(r.ref) <= i {
			r.ref = append(r.ref, got)
		} else if got != r.ref[i] {
			why = append(why, fmt.Sprintf("output digest %.12s / %d events, the warm-up pass had %.12s / %d",
				got.digest, got.events, r.ref[i].digest, r.ref[i].events))
		}
		r.fail(fmt.Sprintf("pass %d %s", id, o.name), why)
		for k, v := range out.model {
			r.model[k] = v
		}
		for k, v := range out.layer {
			r.layer[k] = v
		}
		if out.fig != nil {
			r.figs[o.name] = *out.fig
		}
	}
	tr.end(passSpan, 0)
	return samples
}

// once runs a one-off operation outside the pass loop, counted like any
// other, and returns its sample.
func (r *recorder) once(tr *tracer, o op) sample {
	_, s, why := r.exec(tr, o)
	r.fail(o.name, why)
	return s
}

// digest is one hash over the warm-up pass's operation digests.
func (r *recorder) digest() string {
	h := sha256.New()
	for _, ref := range r.ref {
		h.Write([]byte(ref.digest))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// passes runs measured passes for as long as another one fits in budget,
// judged by the slowest so far, and at least min of them; it calls
// afterMin, if there is one, when min passes are done. It returns
// samples[pass][op].
func (r *recorder) passes(ops []op, tr *tracer, firstID int, budget time.Duration, min int, afterMin func()) [][]sample {
	var out [][]sample
	var slowest time.Duration
	start := time.Now()
	for len(out) < min || time.Since(start)+slowest <= budget {
		t0 := time.Now()
		out = append(out, r.pass(ops, tr, firstID+len(out)))
		slowest = max(slowest, time.Since(t0))
		if len(out) == min && afterMin != nil {
			afterMin()
		}
	}
	return out
}

// totals are a workload's per-pass costs: the sum over the operations of
// each operation's cost. An operation's wall and CPU seconds are those
// of its fastest measured pass: the passes do identical work, and the
// shared host's interference only ever adds time, in bursts shorter than
// a run, so the fastest pass is the run's steadiest reading of what the
// code costs, and taking it per operation lets a burst spoil one
// operation's sample and not the whole pass it fell in. The counts are
// medians (they repeat, but for a few allocations).
type totals struct {
	wall, cpu, mallocs, bytes float64
	events                    float64
	passWall                  summary // whole passes, for the reader
	perOp                     []opReport
}

type opReport struct {
	Name   string  `json:"name"`
	Wall   summary `json:"wall_s"`
	CPU    summary `json:"cpu_s"`
	Events int64   `json:"sim_events"`
}

func total(ops []op, passes [][]sample) totals {
	var t totals
	col := func(i int, f func(sample) float64) []float64 {
		xs := make([]float64, len(passes))
		for p := range passes {
			xs[p] = f(passes[p][i])
		}
		return xs
	}
	for i, o := range ops {
		wall := col(i, func(s sample) float64 { return s.wall })
		cpu := col(i, func(s sample) float64 { return s.cpu })
		t.wall += slices.Min(wall)
		t.cpu += slices.Min(cpu)
		t.mallocs += median(col(i, func(s sample) float64 { return float64(s.mallocs) }))
		t.bytes += median(col(i, func(s sample) float64 { return float64(s.bytes) }))
		t.events += median(col(i, func(s sample) float64 { return float64(s.events) }))
		t.perOp = append(t.perOp, opReport{Name: o.name, Wall: summarize(wall), CPU: summarize(cpu), Events: passes[0][i].events})
	}
	t.passWall = summarize(passWalls(passes))
	return t
}

// record is one run of one workload as the ledger keeps it in a set
// file.
type record struct {
	OptionsSeed int64                `json:"options_seed"` // what -seed selected (see optionsSeed)
	Passes      int                  `json:"passes"`
	Ops         int                  `json:"ops"`
	OpsFailed   int                  `json:"ops_failed"`
	Failures    []string             `json:"failures,omitempty"`
	Digest      string               `json:"digest"`
	Metrics     map[string]metricOut `json:"metrics"`
	PassWall    summary              `json:"pass_wall_s"`
	PerOp       []opReport           `json:"per_op"`
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (rec *record) set(name string, v float64) {
	rec.Metrics[name] = metricOut{Value: v, Unit: unitOf(name)}
}

const setupReps = 5

// measureSetup starts the ledger setupReps times as a fresh process that
// only sets the workload up (process start, gctune, inputs and oracles
// from the seed, a small warm-up of the same code) and returns each
// one's wall clock. Set-up is measured cold because that is what a user
// pays; repeating it inside one process would measure warm caches.
func measureSetup(name string, cfg config) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out []float64
	for i := 0; i < setupReps; i++ {
		args := []string{"-setup-only", "-workload", name, "-seed", strconv.FormatInt(cfg.seed, 10)}
		if cfg.smoke {
			args = append(args, "-smoke")
		}
		cmd := osexec.Command(exe, args...)
		cmd.Stderr = os.Stderr
		t0 := time.Now()
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("set-up process: %w", err)
		}
		out = append(out, time.Since(t0).Seconds())
	}
	return out, nil
}

// runUntraced measures a workload's end-to-end metrics with tracing off.
func runUntraced(name string, cfg config, seconds float64) (*record, error) {
	w, err := newWorkload(name, cfg)
	if err != nil {
		return nil, err
	}
	setups, err := measureSetup(name, cfg)
	if err != nil {
		return nil, err
	}
	w.setup()
	r := newRecorder()
	r.pass(w.warm, nil, 0)
	// Peak memory is read after a fixed amount of work (set-up, warm-up,
	// two passes), not at exit: kernels that are never shut down keep
	// their coroutines, so the peak grows with every pass, and how many
	// passes fit in the budget depends on the host.
	var peak float64
	passes := r.passes(w.pass, nil, 1, time.Duration(seconds*float64(time.Second)), 2, func() { peak = peakRSSMB() })
	t := total(w.pass, passes)

	rec := &record{Passes: len(passes), Ops: r.attempted, OpsFailed: r.failed, Failures: r.failures,
		Digest: r.digest(), Metrics: map[string]metricOut{}, PassWall: t.passWall, PerOp: t.perOp}
	rec.set("wall_s", t.wall)
	rec.set("cpu_s", t.cpu)
	rec.set("events_per_s", t.events/t.wall)
	rec.set("sim_events", t.events)
	rec.set("allocs_per_event", t.mallocs/t.events)
	rec.set("alloc_bytes_per_event", t.bytes/t.events)
	rec.set("peak_rss_mb", peak)
	rec.set("setup_s", median(setups))
	return rec, nil
}

// runTraced produces a workload's per-layer metrics: untraced passes,
// then the same passes with spans and the CPU profiler on, then what is
// measured only on this workload, then the per-layer probes.
func runTraced(name string, cfg config, seconds float64) (*record, []span, error) {
	w, err := newWorkload(name, cfg)
	if err != nil {
		return nil, nil, err
	}
	w.setup()
	r := newRecorder()
	r.pass(w.warm, nil, 0)
	quarter := time.Duration(seconds * float64(time.Second) / 4)
	plain := r.passes(w.pass, nil, 1, quarter, 2, nil)

	tr := newTracer()
	root := tr.begin("run")
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, nil, err
	}
	gc0 := readCounters().gcs
	traced := r.passes(w.pass, tr, 1+len(plain), quarter, 2, nil)
	gcs := readCounters().gcs - gc0
	pprof.StopCPUProfile()

	rec := &record{Passes: len(traced), Metrics: map[string]metricOut{}}
	for _, m := range perLayer {
		rec.set(m.Name, 0)
	}
	tp, tt := total(w.pass, plain), total(w.pass, traced)
	rec.PassWall, rec.PerOp = tt.passWall, tt.perOp
	rec.set("harness.trace_overhead_pct", 100*(tt.wall-tp.wall)/tp.wall)
	rec.set("harness.pass_iqr_pct", summarize(append(passWalls(plain), passWalls(traced)...)).iqrPct())
	if s, err := strconv.ParseFloat(os.Getenv("LEDGER_BUILD_S"), 64); err == nil {
		rec.set("harness.build_s", s) // timed by run.sh around go build
	}
	rec.set("runtime_gc.cycles", float64(gcs))
	shares, err := cpuShares(prof.Bytes())
	if err != nil {
		return nil, nil, err
	}
	for k, v := range shares {
		rec.set(k, v)
	}
	spanMetrics(rec, tr.spans, 1+len(plain), len(traced))

	extra := map[string]float64{}
	switch name {
	case "figures":
		decomposeFigures(tr, r, paperOptions(cfg), extra)
	case "scale_serial":
		scaleUp(tr, r, cfg, extra)
	}
	tr.in("probes", func() { runProbes(cfg, extra) })
	tr.end(root, 0)

	for _, m := range []map[string]float64{r.model, r.layer, extra} {
		for k, v := range m {
			rec.set(k, v)
		}
	}
	rec.set("core.sim_digest_changed", digestChanged(name, cfg, r.digest()))
	rec.Ops, rec.OpsFailed, rec.Failures, rec.Digest = r.attempted, r.failed, r.failures, r.digest()
	return rec, tr.spans, nil
}

func passWalls(passes [][]sample) []float64 {
	out := make([]float64, len(passes))
	for p := range passes {
		for _, s := range passes[p] {
			out[p] += s.wall
		}
	}
	return out
}

// spanMetrics reads core.<op>_s and core.check_s off the traced passes:
// span self time per pass, median over the passes.
func spanMetrics(rec *record, spans []span, firstPass, n int) {
	byName := map[string][]float64{}
	for p := firstPass; p < firstPass+n; p++ {
		secs, _ := selfByName(spans, p)
		for name, s := range secs {
			byName[name] = append(byName[name], s)
		}
	}
	for name, xs := range byName {
		switch key := "core." + name + "_s"; {
		case name == "core.check":
			rec.set("core.check_s", median(xs))
		case unitOf(key) != "":
			rec.set(key, median(xs))
		}
	}
}
