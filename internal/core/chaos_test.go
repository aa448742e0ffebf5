package core

import "testing"

// TestChaosSweep runs the §VI-D fault-tolerance sweep twice at test scale
// and validates every documented shape: determinism across runs, Spark
// recovery completing correctly within the overhead bound, MPI overhead
// monotone in failure rate, and rework monotone in checkpoint interval.
// Negative controls then break each documented condition in a copy of
// the result and require CheckChaosSweep to report it.
func TestChaosSweep(t *testing.T) {
	o := Quick()
	a := ChaosSweep(o)
	b := ChaosSweep(o)
	for _, msg := range CheckChaosSweep(a, b) {
		t.Error(msg)
	}
	for _, tab := range ChaosTables(a) {
		t.Log("\n" + tab.String())
	}

	type R = ChaosSweepResult
	var controls []control[R]
	for _, s := range []struct {
		name string
		pts  func(*R) []ChaosPoint
		set  func(*R, []ChaosPoint)
	}{
		{"spark-ac", func(r *R) []ChaosPoint { return r.SparkAC }, func(r *R, p []ChaosPoint) { r.SparkAC = p }},
		{"spark-pr", func(r *R) []ChaosPoint { return r.SparkPR }, func(r *R, p []ChaosPoint) { r.SparkPR = p }},
	} {
		pts, n := s.pts, "chaos: "+s.name
		controls = append(controls, []control[R]{
			{n + " series empty", func(r *R) { s.set(r, nil) }},
			{n + " has no valid failure-free baseline", func(r *R) { pts(r)[0].Completed = false }},
			{n + " failure-free run saw recovery activity", func(r *R) { pts(r)[0].ExecutorsLost = 1 }},
			{n + " failure-free run saw recovery activity", func(r *R) { pts(r)[0].RecomputedParts = 1 }},
			{n + " failure-free run saw recovery activity", func(r *R) { pts(r)[0].Crashes = 1 }},
			{n + " run 3 (MTBF *failed or produced a wrong result", func(r *R) { pts(r)[3].Completed = false }},
			{n + " at MTBF *the clean run (bound", func(r *R) {
				p := pts(r)
				p[3].Seconds = p[0].Seconds * (SparkChaosOverheadBound + 1)
			}},
			{n + " highest failure rate never killed an executor", func(r *R) { pts(r)[3].Crashes = 0 }},
			{n + " highest failure rate never killed an executor", func(r *R) { pts(r)[3].ExecutorsLost = 0 }},
		}...)
	}
	controls = append(controls, []control[R]{
		{"chaos: failure-free MPI run restarted", func(r *R) { r.MPIPR[0].Restarts = 1 }},
		{"chaos: failure-free MPI run restarted", func(r *R) { r.MPIPR[0].RedoneIters = 1 }},
		{"chaos: MPI run 2 (MTBF *did not complete", func(r *R) { r.MPIPR[2].Completed = false }},
		{"chaos: MPI time fell", func(r *R) { r.MPIPR[3].Seconds = r.MPIPR[2].Seconds / 2 }},
		{"chaos: MPI restarts fell", func(r *R) { r.MPIPR[2].Restarts = r.MPIPR[3].Restarts + 1 }},
		{"chaos: highest MPI failure rate never forced a restart", func(r *R) { r.MPIPR[3].Restarts = 0 }},
		{"chaos: checkpoint series (every=*did not complete", func(r *R) { r.Ckpt[1].Completed = false }},
		{"chaos: redone iters rose", func(r *R) { r.Ckpt[3].RedoneIters = r.Ckpt[2].RedoneIters + 1 }},
		{"chaos: checkpoints fell", func(r *R) { r.Ckpt[3].Checkpoints = r.Ckpt[2].Checkpoints - 1 }},
	}...)
	requireViolations(t, CheckChaosSweep, a, func(r *R) { r.SparkAC[1].Seconds++ }, controls)
}
