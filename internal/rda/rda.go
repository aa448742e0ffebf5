// Package rda prototypes the paper's proposed convergence direction
// (§VIII: "Future work will address applying fault tolerance and I/O
// handling from Spark to HPC models"): Resilient Distributed Arrays — a
// PGAS-flavoured, SPMD array abstraction running on the MPI runtime whose
// partitions carry Spark-style lineage.
//
// Arrays are lazy and immutable: Generate / Map / ZipWith / Shift build a
// lineage graph; Materialize and Reduce execute it. A lost partition
// (simulated with Drop) is rebuilt by replaying its lineage, instead of
// the classical HPC answer of restoring a global checkpoint — though
// explicit Checkpoint/Restore is provided too, so the two recovery models
// can be compared on the same program (the §VI-D discussion, executable).
//
// All operations are collective over the communicator: every rank must
// call them in the same order, as with MPI collectives.
package rda

import (
	"fmt"
	"time"

	"hpcbd/internal/dfs"
	"hpcbd/internal/mpi"
)

// elemCost is the per-element compute charge for array operations.
const elemCost = 2 * time.Nanosecond

// elemBytes is the wire/disk size of one element.
const elemBytes = 8

// Job is the per-rank handle of one RDA program.
type Job struct {
	r      *mpi.Rank
	comm   *mpi.Comm
	n      int // global length
	lo, hi int // this rank's partition [lo, hi)
	nextID int

	// saved mirrors this rank's part-file contents (the simulator's DFS
	// tracks sizes and placement, not payload bytes).
	saved map[string][]float64

	// scale is the logical/physical data ratio applied to compute and
	// wire charges (1 = unscaled).
	scale float64

	// Stats
	Recomputed  int // partitions rebuilt from lineage
	Checkpoints int
}

// NewJob creates an RDA job over a global array length n, block-
// partitioned across the communicator.
func NewJob(r *mpi.Rank, comm *mpi.Comm, n int) *Job {
	np := comm.Size()
	me := comm.Rank(r)
	return &Job{
		r: r, comm: comm, n: n,
		lo:    me * n / np,
		hi:    (me + 1) * n / np,
		scale: 1,
	}
}

// SetScale declares the logical/physical data ratio: all compute and wire
// charges are multiplied by it, so small physical arrays are costed as
// their logical counterparts (same convention as the other runtimes).
func (j *Job) SetScale(s float64) {
	if s < 1 {
		s = 1
	}
	j.scale = s
}

// charge charges n element-operations of compute at the job's scale.
func (j *Job) charge(n int) {
	j.r.Compute(float64(n) * j.scale * elemCost.Seconds())
}

// op is a lineage node.
type op interface {
	apply(j *Job, a *Array)
}

// Array is one resilient distributed array: a local partition plus the
// lineage needed to rebuild it.
type Array struct {
	job     *Job
	id      int
	name    string
	local   []float64
	valid   bool
	lineage op

	ckpt []float64 // local checkpoint copy, nil if none
}

func (j *Job) newArray(name string, lineage op) *Array {
	a := &Array{job: j, id: j.nextID, name: name, lineage: lineage}
	j.nextID++
	return a
}

// genOp regenerates a partition from a deterministic element function.
type genOp struct {
	f func(i int) float64
}

func (o genOp) apply(j *Job, a *Array) {
	a.local = make([]float64, j.hi-j.lo)
	for i := range a.local {
		a.local[i] = o.f(j.lo + i)
	}
	j.charge(len(a.local))
}

// Generate creates an array whose element i is f(i). f must be
// deterministic: it is the root of the lineage.
func (j *Job) Generate(name string, f func(i int) float64) *Array {
	return j.newArray(name, genOp{f})
}

// mapOp applies an element function to a parent.
type mapOp struct {
	parent *Array
	f      func(float64) float64
}

func (o mapOp) apply(j *Job, a *Array) {
	o.parent.Materialize()
	a.local = make([]float64, j.hi-j.lo)
	for i, v := range o.parent.local {
		a.local[i] = o.f(v)
	}
	j.charge(len(a.local))
}

// Map derives a new array with f applied element-wise (lazy).
func (a *Array) Map(f func(float64) float64) *Array {
	return a.job.newArray(fmt.Sprintf("map@%s", a.name), mapOp{a, f})
}

// zipOp combines two parents element-wise.
type zipOp struct {
	pa, pb *Array
	f      func(a, b float64) float64
}

func (o zipOp) apply(j *Job, a *Array) {
	o.pa.Materialize()
	o.pb.Materialize()
	a.local = make([]float64, j.hi-j.lo)
	for i := range a.local {
		a.local[i] = o.f(o.pa.local[i], o.pb.local[i])
	}
	j.charge(len(a.local))
}

// ZipWith derives a new array combining a and b element-wise (lazy).
func (a *Array) ZipWith(b *Array, f func(x, y float64) float64) *Array {
	if a.job != b.job {
		panic("rda: zip across jobs")
	}
	return a.job.newArray(fmt.Sprintf("zip(%s,%s)", a.name, b.name), zipOp{a, b, f})
}

// shiftOp reads the parent shifted by k (element i takes parent value at
// global index i+k, clamped), requiring halo exchange with neighbours —
// the op whose recovery genuinely needs communication.
type shiftOp struct {
	parent *Array
	k      int
}

func (o shiftOp) apply(j *Job, a *Array) {
	o.parent.Materialize()
	np := j.comm.Size()
	me := j.comm.Rank(j.r)
	k := o.k
	a.local = make([]float64, j.hi-j.lo)

	// Exchange halo regions with the neighbour the shift reaches into.
	// Only |k| < partition size is supported (one-neighbour halos).
	if k > j.hi-j.lo || -k > j.hi-j.lo {
		panic("rda: shift exceeds partition size")
	}
	var halo []float64
	if k > 0 {
		// Each rank needs the first k elements of its right neighbour:
		// send ours left, receive from the right.
		var req *mpi.Request
		if me > 0 {
			send := append([]float64(nil), o.parent.local[:min(k, len(o.parent.local))]...)
			req = j.comm.Isend(j.r, me-1, 77, send, int64(len(send))*elemBytes)
		}
		if me < np-1 {
			halo = j.comm.Recv(j.r, me+1, 77).Payload.([]float64)
		}
		if req != nil {
			req.Wait(j.r)
		}
	} else if k < 0 {
		// Each rank needs the last -k elements of its left neighbour.
		var req *mpi.Request
		if me < np-1 {
			send := append([]float64(nil), o.parent.local[len(o.parent.local)+k:]...)
			req = j.comm.Isend(j.r, me+1, 78, send, int64(len(send))*elemBytes)
		}
		if me > 0 {
			halo = j.comm.Recv(j.r, me-1, 78).Payload.([]float64)
		}
		if req != nil {
			req.Wait(j.r)
		}
	}
	for i := range a.local {
		g := j.lo + i + k
		switch {
		case g < 0:
			a.local[i] = o.parent.valueClamped(0)
		case g >= j.n:
			a.local[i] = o.parent.valueClamped(j.n - 1)
		case g >= j.lo && g < j.hi:
			a.local[i] = o.parent.local[g-j.lo]
		default:
			// Outside this partition: in the halo.
			if k > 0 {
				a.local[i] = halo[g-j.hi]
			} else {
				a.local[i] = halo[len(halo)-(j.lo-g)]
			}
		}
	}
	j.charge(len(a.local))
}

// valueClamped returns a boundary value of the local partition; clamping
// only ever reads the owning rank's own edge (rank 0 for index 0, last
// rank for n-1), and for non-owners the clamped index never occurs.
func (a *Array) valueClamped(g int) float64 {
	j := a.job
	if g >= j.lo && g < j.hi {
		return a.local[g-j.lo]
	}
	return 0 // unreachable for in-range shifts; boundary owner covers it
}

// Shift derives the array shifted by k with clamped boundaries (lazy).
func (a *Array) Shift(k int) *Array {
	return a.job.newArray(fmt.Sprintf("shift%+d@%s", k, a.name), shiftOp{a, k})
}

// Materialize computes the local partition if missing (collective: every
// rank of the job must call it for ops that communicate).
func (a *Array) Materialize() {
	if a.valid {
		return
	}
	if a.ckpt != nil {
		// Restoring from the node-local checkpoint beats lineage replay
		// when one exists; non-collective, so a single rank can recover.
		a.job.r.ReadScratch(int64(len(a.ckpt)) * elemBytes)
		a.local = append([]float64(nil), a.ckpt...)
		a.valid = true
		return
	}
	a.lineage.apply(a.job, a)
	a.valid = true
}

// Local returns the materialized local partition (read-only).
func (a *Array) Local() []float64 {
	a.Materialize()
	return a.local
}

// Reduce combines all elements globally with op; collective, returns the
// result on every rank.
func (a *Array) Reduce(op mpi.ReduceOp) float64 {
	a.Materialize()
	acc := op.Identity() // what an empty partition contributes
	for i, v := range a.local {
		if i == 0 {
			acc = v
		} else {
			acc = op.Apply(acc, v)
		}
	}
	a.job.charge(len(a.local))
	out := a.job.comm.Allreduce(a.job.r, []float64{acc}, op, elemBytes)
	return out[0]
}

// Drop simulates losing this rank's partition (node memory loss, evicted
// cache). The next access rebuilds it from lineage — Spark's recovery
// model on an HPC runtime.
func (a *Array) Drop() {
	if a.valid {
		a.job.Recomputed++
	}
	a.valid = false
	a.local = nil
}

// Checkpoint writes the materialized partition to node-local storage
// (collective). Subsequent recoveries restore from it instead of
// replaying lineage — the classical HPC model, for comparison.
func (a *Array) Checkpoint() {
	a.Materialize()
	a.ckpt = append([]float64(nil), a.local...)
	a.job.Checkpoints++
	mpi.Checkpoint(a.job.r, a.job.comm, int64(len(a.local))*elemBytes)
}

// Save writes the array to the DFS as one part-file per rank
// (dir/part-NNNNN) — the paper's §VIII "I/O handling from Spark to HPC
// models", on the HPC runtime. Collective; every rank writes its
// partition from its own node, paying the replicated write pipeline.
func (a *Array) Save(fs *dfs.DFS, dir string) error {
	a.Materialize()
	j := a.job
	me := j.comm.Rank(j.r)
	name := fmt.Sprintf("%s/part-%05d", dir, me)
	bytes := int64(len(a.local)) * elemBytes
	if err := fs.Create(j.r.Proc(), j.r.Node(), name, bytes); err != nil {
		return err
	}
	if j.saved == nil {
		j.saved = map[string][]float64{}
	}
	j.saved[name] = append([]float64(nil), a.local...)
	j.comm.Barrier(j.r)
	return nil
}

// LoadArray reads a previously Saved array back as a fresh source whose
// lineage is the DFS read itself: recovering a dropped partition re-reads
// the (replicated, failure-tolerant) file rather than replaying compute.
func LoadArray(j *Job, fs *dfs.DFS, dir string) (*Array, error) {
	me := j.comm.Rank(j.r)
	name := fmt.Sprintf("%s/part-%05d", dir, me)
	if _, err := fs.Stat(name); err != nil {
		return nil, err
	}
	return j.newArray("dfs:"+dir, dfsOp{fs: fs, name: name}), nil
}

// dfsOp materializes a partition by reading its part-file from the DFS.
type dfsOp struct {
	fs   *dfs.DFS
	name string
}

func (o dfsOp) apply(j *Job, a *Array) {
	size, err := o.fs.Stat(o.name)
	if err != nil {
		panic(err)
	}
	if err := o.fs.Read(j.r.Proc(), j.r.Node(), o.name, 0, size); err != nil {
		panic(err)
	}
	vals, ok := j.saved[o.name]
	if !ok {
		panic("rda: " + o.name + " was not saved by this job")
	}
	a.local = append([]float64(nil), vals...)
}

// MapIndexed derives a new array with f applied to (global index, value)
// — needed by stencil- and graph-shaped programs (lazy).
func (a *Array) MapIndexed(f func(i int, v float64) float64) *Array {
	return a.job.newArray(fmt.Sprintf("mapIndexed@%s", a.name), mapIndexedOp{a, f})
}

type mapIndexedOp struct {
	parent *Array
	f      func(i int, v float64) float64
}

func (o mapIndexedOp) apply(j *Job, a *Array) {
	o.parent.Materialize()
	a.local = make([]float64, j.hi-j.lo)
	for i, v := range o.parent.local {
		a.local[i] = o.f(j.lo+i, v)
	}
	j.charge(len(a.local))
}

// ScatterAdd derives the array whose element t is the sum of parent
// values over all edges (i -> t): result[t] = Σ_{i : t ∈ targets(i)}
// parent[i]. This is the wide, shuffle-like dependency of the converged
// model — the RDA equivalent of Spark's reduceByKey over contributions —
// implemented with an alltoallv-style pairwise exchange. targets must be
// deterministic (it is part of the lineage). Collective; recovering a
// dropped ScatterAdd array re-runs the exchange on every rank.
func (a *Array) ScatterAdd(targets func(i int) []int32) *Array {
	return a.job.newArray(fmt.Sprintf("scatterAdd@%s", a.name), scatterOp{a, targets})
}

type scatterOp struct {
	parent  *Array
	targets func(i int) []int32
}

type scatterMsg struct {
	idx []int32
	val []float64
}

func (o scatterOp) apply(j *Job, a *Array) {
	o.parent.Materialize()
	np := j.comm.Size()
	me := j.comm.Rank(j.r)

	// Bucket contributions by owner rank.
	bufIdx := make([][]int32, np)
	bufVal := make([][]float64, np)
	edges := 0
	for i, v := range o.parent.local {
		g := j.lo + i
		for _, t := range o.targets(g) {
			owner := int(t) * np / j.n
			for owner*j.n/np > int(t) {
				owner--
			}
			for (owner+1)*j.n/np <= int(t) {
				owner++
			}
			bufIdx[owner] = append(bufIdx[owner], t)
			bufVal[owner] = append(bufVal[owner], v)
			edges++
		}
	}
	j.charge(edges)

	// Apply local contributions, then exchange pairwise and apply in
	// deterministic source-rank order.
	a.local = make([]float64, j.hi-j.lo)
	apply := func(m scatterMsg) {
		for i, t := range m.idx {
			a.local[int(t)-j.lo] += m.val[i]
		}
	}
	apply(scatterMsg{bufIdx[me], bufVal[me]})
	const tag = 83
	recvd := make([]scatterMsg, np)
	for step := 1; step < np; step++ {
		to := (me + step) % np
		from := (me - step + np) % np
		bytes := int64(float64(len(bufIdx[to])) * j.scale * 12)
		m := j.comm.Sendrecv(j.r, to, tag+step, scatterMsg{bufIdx[to], bufVal[to]}, bytes, from, tag+step)
		recvd[from] = m.Payload.(scatterMsg)
	}
	for src := 0; src < np; src++ {
		if src != me {
			apply(recvd[src])
		}
	}
	j.charge(edges)
}
