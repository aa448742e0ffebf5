package core

import "testing"

// TestMasterSweep runs the control-plane failover sweep twice at test
// scale and validates every documented shape: determinism across runs,
// each HA workload completing every master-kill point with a digest
// byte-identical to its failure-free run within the overhead bound, and
// plain MPI deadlocking at every kill point. Negative controls then
// break each documented condition in a copy of the result and require
// CheckMasterSweep to report it.
func TestMasterSweep(t *testing.T) {
	o := Quick()
	a := MasterSweep(o)
	b := MasterSweep(o)
	for _, msg := range CheckMasterSweep(a, b) {
		t.Error(msg)
	}
	for _, tab := range MasterTables(a) {
		t.Log("\n" + tab.String())
	}

	type R = MasterSweepResult
	var controls []control[R]
	for _, s := range []struct {
		name string
		pts  func(*R) []MasterPoint
		set  func(*R, []MasterPoint)
	}{
		{"dfs", func(r *R) []MasterPoint { return r.DFS }, func(r *R, p []MasterPoint) { r.DFS = p }},
		{"spark-ac", func(r *R) []MasterPoint { return r.SparkAC }, func(r *R, p []MasterPoint) { r.SparkAC = p }},
		{"hadoop-ac", func(r *R) []MasterPoint { return r.HadoopAC }, func(r *R, p []MasterPoint) { r.HadoopAC = p }},
	} {
		pts, n := s.pts, "master: "+s.name
		controls = append(controls, []control[R]{
			{n + " series empty", func(r *R) { s.set(r, nil) }},
			{n + " has no valid failure-free baseline", func(r *R) { pts(r)[0].Completed = false }},
			{n + " failed over 1 times with no fault injected", func(r *R) { pts(r)[0].Failovers = 1 }},
			{n + " baseline journaled nothing", func(r *R) { pts(r)[0].JournalEntries = 0 }},
			{n + " baseline produced no digest", func(r *R) { pts(r)[0].Digest = "" }},
			{n + " kill at 0.50 x T did not complete", func(r *R) { pts(r)[2].Completed = false }},
			{n + " kill at 0.50 x T changed the output", func(r *R) { pts(r)[2].Digest += "x" }},
			{n + " kill at 0.50 x T completed without a failover", func(r *R) { pts(r)[2].Failovers = 0 }},
			{n + " kill at 0.50 x T failed over in zero recovery time", func(r *R) { pts(r)[2].RecoverySeconds = 0 }},
			{n + " kill at 0.50 x T journaled nothing", func(r *R) { pts(r)[2].JournalEntries = 0 }},
			{n + " kill at 0.75 x T took *over the 8x bound", func(r *R) {
				p := pts(r)
				p[3].Seconds = p[0].Seconds * (MasterKillOverheadBound + 1)
			}},
		}...)
	}
	controls = append(controls, []control[R]{
		{"master: mpi-plain series empty", func(r *R) { r.MPIPlain = nil }},
		{"master: failure-free plain MPI run did not complete", func(r *R) { r.MPIPlain[0].Completed = false }},
		{"master: plain MPI survived a master kill at 0.50 x T", func(r *R) { r.MPIPlain[2].Completed = true }},
	}...)
	requireViolations(t, CheckMasterSweep, a, func(r *R) { r.SparkAC[2].JournalEntries++ }, controls)
}
