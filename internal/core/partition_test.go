package core

import "testing"

// TestPartitionSweep runs the split-brain sweep twice at test scale and
// validates every documented shape: determinism across runs, fenced
// workloads completing every cut with a digest byte-identical to the
// failure-free run and ZERO acknowledged-then-lost journal entries, the
// unfenced arm measurably losing acknowledged writes (with a diverged
// digest), and plain MPI deadlocking under the same healing cut.
// Negative controls then break each documented condition in a copy of
// the result and require CheckPartitionSweep to report it.
func TestPartitionSweep(t *testing.T) {
	o := Quick()
	a := PartitionSweep(o)
	b := PartitionSweep(o)
	for _, msg := range CheckPartitionSweep(a, b) {
		t.Error(msg)
	}
	for _, tab := range PartitionTables(a) {
		t.Log("\n" + tab.String())
	}

	type R = PartitionSweepResult
	type series struct {
		name string
		pts  func(*R) []PartitionPoint
		set  func(*R, []PartitionPoint)
	}
	fenced := []series{
		{"dfs-fenced", func(r *R) []PartitionPoint { return r.DFSFenced }, func(r *R, p []PartitionPoint) { r.DFSFenced = p }},
		{"spark-ac", func(r *R) []PartitionPoint { return r.SparkAC }, func(r *R, p []PartitionPoint) { r.SparkAC = p }},
		{"hadoop-ac", func(r *R) []PartitionPoint { return r.HadoopAC }, func(r *R, p []PartitionPoint) { r.HadoopAC = p }},
	}
	unfenced := series{"dfs-unfenced", func(r *R) []PartitionPoint { return r.DFSUnfenced },
		func(r *R, p []PartitionPoint) { r.DFSUnfenced = p }}
	var controls []control[R]
	for _, s := range append(fenced, unfenced) {
		pts, n := s.pts, "partition: "+s.name
		controls = append(controls, []control[R]{
			{n + " series empty", func(r *R) { s.set(r, nil) }},
			{n + " has no valid failure-free baseline", func(r *R) { pts(r)[0].Completed = false }},
			{n + " failed over (1) or stepped down (0) with no cut injected", func(r *R) { pts(r)[0].Failovers = 1 }},
			{n + " failed over (0) or stepped down (1) with no cut injected", func(r *R) { pts(r)[0].StepDowns = 1 }},
			{n + " lost 1 acknowledged entries with no cut injected", func(r *R) { pts(r)[0].LostAcked = 1 }},
			{n + " baseline journaled nothing", func(r *R) { pts(r)[0].JournalEntries = 0 }},
			{n + " baseline produced no digest", func(r *R) { pts(r)[0].Digest = "" }},
		}...)
	}
	for _, s := range fenced {
		pts, n := s.pts, "partition: "+s.name+" 1-node cut of "
		controls = append(controls, []control[R]{
			{n + "*did not complete", func(r *R) { pts(r)[1].Completed = false }},
			{n + "*changed the output across epochs", func(r *R) { pts(r)[1].Digest += "x" }},
			{n + "*lost 1 ACKNOWLEDGED journal entries despite fencing", func(r *R) { pts(r)[1].LostAcked = 1 }},
			{n + "*completed without a failover", func(r *R) { pts(r)[1].Failovers = 0 }},
			{n + "*never forced a fenced step-down", func(r *R) { pts(r)[1].StepDowns = 0 }},
			{n + "*never advanced the leader epoch", func(r *R) { pts(r)[1].Epoch = 1 }},
			{n + "*failed over in zero recovery time", func(r *R) { pts(r)[1].RecoverySeconds = 0 }},
			{n + "*journaled nothing", func(r *R) { pts(r)[1].JournalEntries = 0 }},
			{n + "*over the 8x-clean + 4x-window budget", func(r *R) {
				p := pts(r)
				p[2].Seconds = PartitionOverheadBound*p[0].Seconds + 4*p[2].WindowSeconds + 1
			}},
		}...)
	}
	n := "partition: dfs-unfenced "
	controls = append(controls, []control[R]{
		{n + "1-node cut of *client script never finished", func(r *R) { r.DFSUnfenced[1].Seconds = 0 }},
		{n + "1-node cut of *majority never elected a successor", func(r *R) { r.DFSUnfenced[1].Failovers = 0 }},
		{n + "*acknowledged entries yet the digest did not change", func(r *R) {
			for i := range r.DFSUnfenced {
				if r.DFSUnfenced[i].LostAcked > 0 {
					r.DFSUnfenced[i].Digest = r.DFSUnfenced[0].Digest
				}
			}
		}},
		{n + "never lost an acknowledged write", func(r *R) {
			for i := range r.DFSUnfenced {
				r.DFSUnfenced[i].LostAcked = 0
			}
		}},
		{"partition: mpi-plain series empty", func(r *R) { r.MPIPlain = nil }},
		{"partition: failure-free plain MPI run did not complete", func(r *R) { r.MPIPlain[0].Completed = false }},
		{"partition: plain MPI survived a 1-node cut", func(r *R) { r.MPIPlain[1].Completed = true }},
	}...)
	requireViolations(t, CheckPartitionSweep, a, func(r *R) { r.DFSUnfenced[3].LostAcked++ }, controls)
}
