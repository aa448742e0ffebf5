package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one boundary call as the ledger saw it from outside the
// package it calls into: run → pass → artifact|sweep|point →
// {workload.gen, cluster.build, dfs.new, <paradigm>.run, core.check,
// core.render}. Parent is an index into the tracer's spans, -1 for the
// root. Events is the kernel event count the call committed, where the
// caller could read it.
type span struct {
	Name   string
	Parent int
	Pass   int
	Start  time.Duration // since the tracer's epoch
	End    time.Duration
	Events int64
}

// tracer keeps spans in memory; nothing is written until the run ends.
// A nil tracer records nothing, so the untraced passes run the same code
// with the bookkeeping compiled down to a nil check. It is used from one
// goroutine: the spans are opened by the ledger's own (serial) loop, not
// inside the sweep-point workers.
type tracer struct {
	epoch time.Time
	spans []span
	open  []int // stack of open span indices
	pass  int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span under the innermost open one and returns its index.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Parent: parent, Pass: t.pass, Start: time.Since(t.epoch)})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

// end closes the innermost open span, which must be id.
func (t *tracer) end(id int, events int64) {
	if t == nil {
		return
	}
	if n := len(t.open); n == 0 || t.open[n-1] != id {
		panic("ledger: spans closed out of order")
	}
	t.open = t.open[:len(t.open)-1]
	t.spans[id].End = time.Since(t.epoch)
	t.spans[id].Events = events
}

// endThrough closes id and any span still open under it: the children a
// panic left behind.
func (t *tracer) endThrough(id int, events int64) {
	for t != nil && len(t.open) > 0 && t.open[len(t.open)-1] != id {
		t.end(t.open[len(t.open)-1], 0)
	}
	t.end(id, events)
}

// in runs fn inside a span.
func (t *tracer) in(name string, fn func()) {
	id := t.begin(name)
	fn()
	t.end(id, 0)
}

// selfTimes returns each span's duration minus the part its children
// cover. Children of one parent never overlap here (one goroutine), so
// that part is the sum of their durations.
func selfTimes(spans []span) []time.Duration {
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	return self
}

// selfByName sums self time (seconds) and events per span name within
// one pass.
func selfByName(spans []span, pass int) (secs map[string]float64, events map[string]int64) {
	secs, events = map[string]float64{}, map[string]int64{}
	self := selfTimes(spans)
	for i, s := range spans {
		if s.Pass == pass {
			secs[s.Name] += self[i].Seconds()
			events[s.Name] += s.Events
		}
	}
	return secs, events
}

// writeChromeTrace writes the spans as Chrome trace-event JSON
// (chrome://tracing, Perfetto): complete events, microsecond clock.
func writeChromeTrace(path string, spans []span) error {
	type ev struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	self := selfTimes(spans)
	evs := make([]ev, len(spans))
	for i, s := range spans {
		evs[i] = ev{
			Name: s.Name, Ph: "X", Pid: 1, Tid: 1,
			Ts:  float64(s.Start) / 1e3,
			Dur: float64(s.End-s.Start) / 1e3,
			Args: map[string]any{
				"id": i, "parent": s.Parent, "pass": s.Pass,
				"self_us": float64(self[i]) / 1e3, "events": s.Events,
			},
		}
	}
	b, err := json.Marshal(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
