package core

import "testing"

// TestTailSweep runs the gray-failure sweep twice at test scale and
// validates every documented shape: determinism across runs, the >= 2x
// p99 cut from the mitigations at 20% gray, < 5% clean-run p50 cost,
// the mitigation machinery demonstrably engaged, and plain MPI gated by
// its slowest rank under the same gray plan. Negative controls then
// break each documented condition in a copy of the result and require
// CheckTailSweep to report it.
func TestTailSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("tail sweep is slow; run without -short")
	}
	o := Quick()
	a := TailSweep(o)
	b := TailSweep(o)
	for _, msg := range CheckTailSweep(a, b) {
		t.Error(msg)
	}
	for _, tab := range TailTables(a) {
		t.Log("\n" + tab.String())
	}

	type R = TailSweepResult
	const i20, top = 2, 3 // the 20% and the top gray fraction
	requireViolations(t, CheckTailSweep, a, func(r *R) { r.On[1].ReadP95++ }, []control[R]{
		{"tail: series incomplete", func(r *R) { r.On = r.On[:top] }},
		{"tail: series incomplete", func(r *R) { r.MPI = r.MPI[:top] }},
		{"tail: point *did not complete", func(r *R) { r.Off[1].Completed = false }},
		{"tail: point *did not complete", func(r *R) { r.On[1].Completed = false }},
		{"tail: mitigations-off arm at", func(r *R) { r.Off[i20].HedgesSent = 1 }},
		{"tail: mitigations-off arm at", func(r *R) { r.Off[i20].PeersEjected = 1 }},
		{"tail: mitigations-off arm at", func(r *R) { r.Off[i20].RetriesBudgeted = 1 }},
		{"tail: clean read p50 regressed", func(r *R) { r.On[0].ReadP50 = 2 * r.Off[0].ReadP50 }},
		{"tail: clean job p50 regressed", func(r *R) { r.On[0].JobP50 = 2 * r.Off[0].JobP50 }},
		{"tail: off-arm p99 at *injection too weak", func(r *R) { r.Off[top].ReadP99 = r.Off[0].ReadP99 }},
		{"tail: no gray events injected at the top fraction", func(r *R) { r.Off[top].Grays = 0 }},
		{"tail: sweep has no 20% gray point", func(r *R) { r.GrayPcts[i20]++ }},
		{"tail: read p99 cut at 20% gray", func(r *R) { r.On[i20].ReadP99 = r.Off[i20].ReadP99 }},
		{"tail: shuffle p99 cut at 20% gray", func(r *R) { r.On[i20].JobP99 = r.Off[i20].JobP99 }},
		{"tail: goodput fell with mitigations on", func(r *R) { r.On[i20].GoodputOps = r.Off[i20].GoodputOps / 2 }},
		{"tail: no hedge fired/won at 20% gray", func(r *R) { r.On[i20].HedgesSent = 0 }},
		{"tail: no hedge fired/won at 20% gray", func(r *R) { r.On[i20].HedgeWins = 0 }},
		{"tail: no latency outlier ejected at 20% gray", func(r *R) { r.On[i20].PeersEjected = 0 }},
		{"tail: the retry budget never clipped", func(r *R) { r.On[top].RetriesBudgeted = 0 }},
		{"tail: gray-free plain MPI did not complete", func(r *R) { r.MPI[0].Completed = false }},
		{"tail: plain MPI at *gray (loss-free) did not complete", func(r *R) { r.MPI[1].Completed = false }},
		{"tail: plain MPI at *gray rank did not gate the BSP loop", func(r *R) { r.MPI[1].Slowdown = 1 }},
	})
}
