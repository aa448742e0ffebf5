package core

import "testing"

// TestTransportSweep runs the lossy-network & integrity sweep twice at
// test scale and validates every documented shape: determinism across
// runs, oracle-correct completion for the Big Data stacks at every loss
// rate, monotone overhead, end-to-end integrity (no corrupt byte reaches
// a consumer), plain MPI deadlocking on loss while resilient MPI
// retransmits, and partition-window survival per runtime. Negative
// controls then break each documented condition in a copy of the result
// and require CheckTransportSweep to report it.
func TestTransportSweep(t *testing.T) {
	o := Quick()
	a := TransportSweep(o)
	b := TransportSweep(o)
	for _, msg := range CheckTransportSweep(a, b) {
		t.Error(msg)
	}
	for _, tab := range TransportTables(a) {
		t.Log("\n" + tab.String())
	}

	type R = TransportSweepResult
	var controls []control[R]
	for _, s := range []struct {
		name string
		pts  func(*R) []TransportPoint
		set  func(*R, []TransportPoint)
	}{
		{"spark-ac", func(r *R) []TransportPoint { return r.SparkAC }, func(r *R, p []TransportPoint) { r.SparkAC = p }},
		{"hadoop-ac", func(r *R) []TransportPoint { return r.HadoopAC }, func(r *R, p []TransportPoint) { r.HadoopAC = p }},
	} {
		pts, n := s.pts, "net: "+s.name
		controls = append(controls, []control[R]{
			{n + " series empty", func(r *R) { s.set(r, nil) }},
			{n + " has no valid loss-free baseline", func(r *R) { pts(r)[0].Completed = false }},
			{n + " loss-free run saw transport recovery activity", func(r *R) { pts(r)[0].Retries = 1 }},
			{n + " loss-free run saw transport recovery activity", func(r *R) { pts(r)[0].Timeouts = 1 }},
			{n + " run 2 (loss *failed or produced a wrong result", func(r *R) { pts(r)[2].Completed = false }},
			{n + " at 5.0% loss took", func(r *R) {
				p := pts(r)
				p[3].Seconds = p[0].Seconds * (TransportOverheadBound + 1)
			}},
			{n + " time fell", func(r *R) { p := pts(r); p[2].Seconds = p[1].Seconds / 2 }},
			{n + " highest loss rate never forced a retry", func(r *R) { pts(r)[3].Retries = 0 }},
		}...)
	}
	controls = append(controls, []control[R]{
		{"net: a DFS read served 1 corrupt", func(r *R) { r.SparkAC[1].CorruptServed = 1 }},
		{"net: a DFS read served 1 corrupt", func(r *R) { r.PartHadoop.CorruptServed = 1 }},
		{"net: a verified flow delivered 1 corrupt", func(r *R) { r.Corrupt[2].CorruptDelivered = 1 }},
		{"net: a verified flow delivered 1 corrupt", func(r *R) { r.MPIResil[1].CorruptDelivered = 1 }},
		{"net: loss-free plain MPI did not complete", func(r *R) { r.MPIPlain[0].Completed = false }},
		{"net: plain MPI completed at 1.0% loss", func(r *R) { r.MPIPlain[2].Completed = true }},
		{"net: plain MPI run 1 lost *yet completed", func(r *R) { r.MPIPlain[1].Completed = true }},
		{"net: plain MPI at 5.0% loss lost no messages", func(r *R) { r.MPIPlain[3].LostMsgs = 0 }},
		{"net: resilient MPI run 2 (loss *did not complete", func(r *R) { r.MPIResil[2].Completed = false }},
		{"net: resilient MPI rolled back 1 times under loss alone", func(r *R) { r.MPIResil[1].Restarts = 1 }},
		{"net: resilient MPI time fell", func(r *R) { r.MPIResil[3].Seconds = r.MPIResil[2].Seconds / 2 }},
		{"net: highest loss rate never forced an MPI retransmission", func(r *R) { r.MPIResil[3].CommFaults = 0 }},
		{"net: corruption run 1 (", func(r *R) { r.Corrupt[1].Completed = false }},
		{"net: corruption at *never exercised quarantine+repair", func(r *R) { r.Corrupt[1].Quarantined = 0 }},
		{"net: corruption at *never exercised quarantine+repair", func(r *R) { r.Corrupt[2].Repaired = 0 }},
		{"net: highest corruption rate never tripped transport verification", func(r *R) { r.Corrupt[2].CorruptDropped = 0 }},
		{"net: Spark did not ride out the partition window", func(r *R) { r.PartSpark.Completed = false }},
		{"net: Spark did not ride out the partition window", func(r *R) { r.PartSpark.PartitionDrops = 0 }},
		{"net: Hadoop did not ride out the partition window", func(r *R) { r.PartHadoop.Completed = false }},
		{"net: Hadoop did not ride out the partition window", func(r *R) { r.PartHadoop.PartitionDrops = 0 }},
		{"net: plain MPI survived the partition", func(r *R) { r.PartMPIPlain.Completed = true }},
		{"net: plain MPI survived the partition", func(r *R) { r.PartMPIPlain.LostMsgs = 0 }},
		{"net: resilient MPI did not roll back across the partition", func(r *R) { r.PartMPIResil.Completed = false }},
		{"net: resilient MPI did not roll back across the partition", func(r *R) { r.PartMPIResil.Restarts = 0 }},
	}...)
	requireViolations(t, CheckTransportSweep, a, func(r *R) { r.HadoopAC[2].Sent++ }, controls)
}
