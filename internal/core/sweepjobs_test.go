package core

import (
	"reflect"
	"strings"
	"testing"

	"hpcbd/internal/cluster"
	"hpcbd/internal/dfs"
	"hpcbd/internal/workload"
)

// TestSweepBaselinesMatchFigures pins the fault sweeps' shared job
// runners to the paper implementations Table III keeps separate: at
// Quick scale and fault-free, every sweep's Spark and Hadoop AnswersCount
// run takes exactly the virtual time of the Fig 4 implementation, the
// chaos sweep's Spark PageRank that of the tuned Fig 6 implementation,
// and every caller of the plain and of the resilient MPI loop agrees
// with every other.
func TestSweepBaselinesMatchFigures(t *testing.T) {
	o := Quick()
	nodes := sweepNodes(o, 4)
	d := workload.NewStackExchange(o.Seed, o.ACBytes, o.ACRecordBytes, o.ACStride)
	want := d.SerialAnswersCount()
	dfsCluster := func() (*cluster.Cluster, *dfs.DFS) {
		c := newCluster(o.Seed, nodes)
		return c, dfs.New(c, cluster.IPoIB(), dfs.DefaultConfig())
	}

	type run struct {
		name string
		secs float64
		ok   bool
	}
	agree := func(job string, ref run, others ...run) {
		t.Helper()
		if !ref.ok || ref.secs <= 0 {
			t.Errorf("%s: reference %s did not complete (%v s)", job, ref.name, ref.secs)
		}
		for _, r := range others {
			if !r.ok || r.secs != ref.secs {
				t.Errorf("%s: %s took %v s (completed %v), %s took %v s",
					job, r.name, r.secs, r.ok, ref.name, ref.secs)
			}
		}
	}

	c, fs := dfsCluster()
	spark := SparkAnswersCount(c, fs, acFile, d, nodes, o.ACPPN, false)
	chaosAC := sparkACChaos(o, nodes, chaosFault{})
	netAC := acTransport(o, nodes, netSpec{}, sparkAC)
	agree("spark answerscount", run{"SparkAnswersCount", spark.Seconds, spark.Err == nil && spark.AnswersCountResult == want},
		run{"chaos", chaosAC.Seconds, chaosAC.Completed},
		run{"transport", netAC.Seconds, netAC.Completed})

	c, fs = dfsCluster()
	hadoop := HadoopAnswersCount(c, fs, acFile, d, o.ACPPN)
	netMR := acTransport(o, nodes, netSpec{}, hadoopAC)
	agree("hadoop answerscount", run{"HadoopAnswersCount", hadoop.Seconds, hadoop.AnswersCountResult == want},
		run{"transport", netMR.Seconds, netMR.Completed})

	g := workload.NewGraph(o.Seed, o.PRPhysVertices, o.PRLogicalVertices, o.PRAvgDegree)
	pr := SparkPageRank(newCluster(o.Seed, nodes), g, nodes, o.PRPPN, o.PRIters, true, false)
	chaosPR := sparkPRChaos(o, nodes, chaosFault{})
	agree("spark pagerank", run{"SparkPageRank", pr.Seconds, pr.Err == nil},
		run{"chaos", chaosPR.Seconds, chaosPR.Completed})

	netPlain := mpiTransportPoint(o, nodes, netSpec{}, false, 0)
	master := mpiCtl(o, nodes, ctlFault{})
	part := mpiCtl(o, nodes, ctlFault{cut: true})
	agree("plain mpi loop", run{"transport", netPlain.Seconds, netPlain.Completed},
		run{"master", master.secs, master.ok},
		run{"partition", part.secs, part.ok})

	netResil := mpiTransportPoint(o, nodes, netSpec{}, true, 0)
	chaosResil := mpiPRChaos(o, nodes, 8*o.PRIters, o.PRIters, chaosFault{})
	agree("resilient mpi loop", run{"transport", netResil.Seconds, netResil.Completed},
		run{"chaos", chaosResil.Seconds, chaosResil.Completed})
}

// mutated returns a deep copy of a sweep result with mutate applied, so a
// negative control can break one documented condition without touching
// the result the sweep test computed. Every sweep result is built from
// exported fields, slices and scalars only.
func mutated[R any](ref R, mutate func(*R)) R {
	var out R
	deepCopy(reflect.ValueOf(&out).Elem(), reflect.ValueOf(ref))
	mutate(&out)
	return out
}

func deepCopy(dst, src reflect.Value) {
	switch src.Kind() {
	case reflect.Slice:
		if src.IsNil() {
			return
		}
		dst.Set(reflect.MakeSlice(src.Type(), src.Len(), src.Len()))
		for i := 0; i < src.Len(); i++ {
			deepCopy(dst.Index(i), src.Index(i))
		}
	case reflect.Struct:
		for i := 0; i < src.NumField(); i++ {
			deepCopy(dst.Field(i), src.Field(i))
		}
	default:
		dst.Set(src)
	}
}

// control is one negative control of a sweep check: a mutation of a
// passing result that must make the check report a violation matching
// want, in which "*" stands for any run of characters.
type control[R any] struct {
	want   string
	mutate func(*R)
}

// requireViolations runs every control against a copy of ref, checked
// against itself so only the mutated condition (not determinism) can
// fire, plus one determinism control that checks ref against a copy with
// one field nudged.
func requireViolations[R any](t *testing.T, check func(a, b R) []string, ref R,
	nudge func(*R), controls []control[R]) {
	t.Helper()
	found := func(msgs []string, want string) bool {
		for _, m := range msgs {
			if matches(m, want) {
				return true
			}
		}
		return false
	}
	if msgs := check(ref, mutated(ref, nudge)); !found(msgs, "determinism broken") {
		t.Errorf("negative control: a nudged second run passed the determinism check (got %q)", msgs)
	}
	for _, c := range controls {
		m := mutated(ref, c.mutate)
		if msgs := check(m, m); !found(msgs, c.want) {
			t.Errorf("negative control %q: no such violation (got %q)", c.want, msgs)
		}
	}
}

// matches reports whether msg contains the "*"-separated parts of want in
// order.
func matches(msg, want string) bool {
	for _, part := range strings.Split(want, "*") {
		i := strings.Index(msg, part)
		if i < 0 {
			return false
		}
		msg = msg[i+len(part):]
	}
	return true
}
