// Package shmem models an OpenSHMEM-style PGAS library (§II-C of the
// paper): SPMD processing elements, a symmetric heap, one-sided put/get
// and remote atomics that complete without involving the target's CPU
// (RDMA offload), point-to-point synchronization via wait-until, and
// collectives built from those primitives.
//
// One-sided operations ride the RDMA-verbs fabric directly: a put charges
// the initiator only injection cost and lands at the target one wire
// latency later; the target's CPU never participates. This is the property
// that makes the model "particularly advantageous for applications with
// many small put/get operations and/or irregular communication patterns".
package shmem

import (
	"fmt"
	"time"

	"hpcbd/internal/cluster"
	"hpcbd/internal/sim"
)

// World is one OpenSHMEM job.
type World struct {
	Cluster *cluster.Cluster
	NPEs    int
	PPN     int
	pes     []*PE
	syms    map[string]any // name -> *Sym[T]
	wg      *sim.WaitGroup

	barrierFlags *Sym[int64]
}

// PE is one processing element.
type PE struct {
	world *World
	id    int
	node  int
	p     *sim.Proc

	pending  int         // outstanding puts/atomics not yet remote-complete
	quiet    *sim.Signal // fired when pending drops to zero
	updated  *sim.Signal // fired when remote ops modify this PE's memory
	barriers int         // completed BarrierAll count
}

// Launch spawns an OpenSHMEM job with npes PEs, ppn per node.
func Launch(c *cluster.Cluster, npes, ppn int, body func(pe *PE)) *World {
	if npes <= 0 || ppn <= 0 {
		panic("shmem: npes and ppn must be positive")
	}
	need := (npes + ppn - 1) / ppn
	if need > c.Size() {
		panic(fmt.Sprintf("shmem: %d PEs at %d/node need %d nodes, cluster has %d", npes, ppn, need, c.Size()))
	}
	w := &World{Cluster: c, NPEs: npes, PPN: ppn, syms: map[string]any{}, wg: sim.NewWaitGroup(c.K)}
	w.barrierFlags = newSym[int64](w, "__barrier", 64)
	for i := 0; i < npes; i++ {
		pe := &PE{
			world: w, id: i, node: i / ppn,
			quiet:   sim.NewSignal(c.K),
			updated: sim.NewSignal(c.K),
		}
		w.pes = append(w.pes, pe)
	}
	for i := 0; i < npes; i++ {
		pe := w.pes[i]
		w.wg.Add(1)
		c.SpawnOnNode(pe.node, fmt.Sprintf("shmem.pe%d", i), func(p *sim.Proc) {
			pe.p = p
			body(pe)
			w.wg.Done()
		})
	}
	return w
}

// Run launches the job and runs the kernel to completion.
func Run(c *cluster.Cluster, npes, ppn int, body func(pe *PE)) sim.Time {
	Launch(c, npes, ppn, body)
	return c.K.Run()
}

// MyPE returns the PE number.
func (pe *PE) MyPE() int { return pe.id }

// NPEs returns the number of processing elements.
func (pe *PE) NPEs() int { return pe.world.NPEs }

// Now returns the current virtual time.
func (pe *PE) Now() sim.Time { return pe.p.Now() }

// Compute charges seconds of local compute.
func (pe *PE) Compute(seconds float64) { pe.p.Sleep(time.Duration(seconds * 1e9)) }

func (pe *PE) fabric() cluster.FabricSpec { return pe.world.Cluster.Fabric }

// Sym is a symmetric object: one identically-sized array per PE.
type Sym[T any] struct {
	world *World
	name  string
	data  [][]T
}

func newSym[T any](w *World, name string, n int) *Sym[T] {
	if _, dup := w.syms[name]; dup {
		panic("shmem: symmetric object " + name + " allocated twice")
	}
	s := &Sym[T]{world: w, name: name, data: make([][]T, w.NPEs)}
	for i := range s.data {
		s.data[i] = make([]T, n)
	}
	w.syms[name] = s
	return s
}

// AllocFloat64 collectively allocates a symmetric float64 array of length
// n. Every PE must call it with the same name and size (shmem_malloc
// semantics); the first caller allocates.
func (pe *PE) AllocFloat64(name string, n int) *Sym[float64] {
	return allocSym[float64](pe, name, n)
}

// AllocInt64 collectively allocates a symmetric int64 array.
func (pe *PE) AllocInt64(name string, n int) *Sym[int64] {
	return allocSym[int64](pe, name, n)
}

func allocSym[T any](pe *PE, name string, n int) *Sym[T] {
	w := pe.world
	if existing, ok := w.syms[name]; ok {
		s, ok2 := existing.(*Sym[T])
		if !ok2 || len(s.data[0]) != n {
			panic("shmem: symmetric allocation mismatch for " + name)
		}
		return s
	}
	return newSym[T](w, name, n)
}

// Local returns this PE's slice of the symmetric object.
func (s *Sym[T]) Local(pe *PE) []T { return s.data[pe.id] }

// peer looks up the target PE's slice, panicking on bad indices.
func (s *Sym[T]) peer(target int) []T {
	if target < 0 || target >= len(s.data) {
		panic(fmt.Sprintf("shmem: PE %d out of range for %s", target, s.name))
	}
	return s.data[target]
}

// elemBytes is the wire size per element for cost accounting.
const elemBytes = 8

// Put copies vals into target's copy of s at offset. It returns after
// local completion (injection); remote completion is one latency later.
// Use Quiet to wait for remote completion.
func Put[T any](pe *PE, s *Sym[T], target, offset int, vals []T) {
	dst := s.peer(target)
	if offset+len(vals) > len(dst) {
		panic("shmem: put out of bounds on " + s.name)
	}
	f := pe.fabric()
	bytes := int64(len(vals)) * elemBytes
	tgt := pe.world.pes[target]
	pe.pending++
	snapshot := append([]T(nil), vals...)
	pe.world.Cluster.XferAsync(pe.p, pe.node, tgt.node, bytes, f, func() {
		copy(dst[offset:], snapshot)
		pe.pending--
		if pe.pending == 0 {
			pe.quiet.Broadcast()
		}
		tgt.updated.Broadcast()
	})
}

// Get copies n elements from target's copy of s at offset, blocking for
// the full round trip (request + data return).
func Get[T any](pe *PE, s *Sym[T], target, offset, n int) []T {
	src := s.peer(target)
	if offset+n > len(src) {
		panic("shmem: get out of bounds on " + s.name)
	}
	f := pe.fabric()
	bytes := int64(n) * elemBytes
	// Request: one small message out; response: data back. The initiator
	// blocks for the round trip; the target CPU is not involved.
	pe.world.Cluster.Xfer(pe.p, pe.node, pe.world.pes[target].node, 16, f)
	pe.world.Cluster.Xfer(pe.p, pe.world.pes[target].node, pe.node, bytes, f)
	out := make([]T, n)
	copy(out, src[offset:offset+n])
	return out
}

// AtomicAdd atomically adds delta to target's element of s, returning
// after local completion (like shmem_int64_atomic_add).
func AtomicAdd(pe *PE, s *Sym[int64], target, idx int, delta int64) {
	dst := s.peer(target)
	f := pe.fabric()
	tgt := pe.world.pes[target]
	pe.pending++
	pe.world.Cluster.XferAsync(pe.p, pe.node, tgt.node, 16, f, func() {
		dst[idx] += delta
		pe.pending--
		if pe.pending == 0 {
			pe.quiet.Broadcast()
		}
		tgt.updated.Broadcast()
	})
}

// FetchAdd atomically adds delta and returns the previous value, blocking
// for the round trip.
func FetchAdd(pe *PE, s *Sym[int64], target, idx int, delta int64) int64 {
	dst := s.peer(target)
	f := pe.fabric()
	pe.world.Cluster.Xfer(pe.p, pe.node, pe.world.pes[target].node, 16, f)
	old := dst[idx]
	dst[idx] += delta
	pe.world.pes[target].updated.Broadcast()
	pe.world.Cluster.Xfer(pe.p, pe.world.pes[target].node, pe.node, 16, f)
	return old
}

// Quiet blocks until all of this PE's outstanding puts and atomics have
// completed at their targets (shmem_quiet).
func (pe *PE) Quiet() {
	for pe.pending > 0 {
		pe.quiet.Wait(pe.p)
	}
}

// WaitUntil blocks until cond holds for the PE's local element of s,
// re-evaluating whenever a remote operation modifies this PE's memory
// (shmem_wait_until).
func WaitUntil(pe *PE, s *Sym[int64], idx int, cond func(int64) bool) {
	for !cond(s.data[pe.id][idx]) {
		pe.updated.Wait(pe.p)
	}
}

// BarrierAll synchronizes all PEs using the dissemination algorithm over
// remote atomics and wait-until — a genuinely one-sided barrier.
func (pe *PE) BarrierAll() {
	pe.Quiet()
	n := pe.world.NPEs
	if n == 1 {
		pe.barriers++
		return
	}
	flags := pe.world.barrierFlags
	gen := int64(pe.barriers + 1)
	round := 0
	for dist := 1; dist < n; dist *= 2 {
		AtomicAdd(pe, flags, (pe.id+dist)%n, round, 1)
		WaitUntil(pe, flags, round, func(v int64) bool { return v >= gen })
		round++
	}
	pe.barriers++
}

// Broadcast64 copies root's value to every PE (shmem_broadcast64 on one
// element) and returns it; includes barrier semantics.
func Broadcast64(pe *PE, s *Sym[float64], root int) float64 {
	if pe.id == root {
		v := s.data[root][0]
		for t := 0; t < pe.world.NPEs; t++ {
			if t != root {
				Put(pe, s, t, 0, []float64{v})
			}
		}
	}
	pe.BarrierAll()
	return s.data[pe.id][0]
}

// SumToAll performs an all-reduce sum over each PE's local array in s,
// leaving the result in every PE's copy (shmem_double_sum_to_all). The
// implementation is the classic put-based gather, processed in chunks
// bounded by the work array: per chunk, every PE puts its contribution
// into the work array on all PEs, synchronizes, and combines locally. The
// work array must hold at least npes elements; larger work arrays mean
// fewer synchronization rounds.
func SumToAll(pe *PE, s *Sym[float64], work *Sym[float64]) {
	n := len(s.data[pe.id])
	npes := pe.world.NPEs
	chunk := len(work.data[pe.id]) / npes
	if chunk < 1 {
		panic("shmem: SumToAll work array smaller than npes")
	}
	dst := s.Local(pe)
	for base := 0; base < n; base += chunk {
		m := chunk
		if base+m > n {
			m = n - base
		}
		local := append([]float64(nil), dst[base:base+m]...)
		for t := 0; t < npes; t++ {
			Put(pe, work, t, pe.id*chunk, local)
		}
		pe.BarrierAll()
		w := work.data[pe.id]
		for i := 0; i < m; i++ {
			sum := 0.0
			for src := 0; src < npes; src++ {
				sum += w[src*chunk+i]
			}
			dst[base+i] = sum
		}
		pe.p.Sleep(time.Duration(m*npes) * pe.world.Cluster.Cost.ReduceFlopTime)
		pe.BarrierAll()
	}
}

// Lock is a distributed global lock built on remote atomics
// (shmem_set_lock / shmem_clear_lock): a ticket counter and a serving
// counter on PE 0.
type Lock struct {
	tickets *Sym[int64] // [0] next ticket, [1] now serving
}

// AllocLock collectively allocates a named lock.
func (pe *PE) AllocLock(name string) *Lock {
	return &Lock{tickets: pe.AllocInt64("__lock_"+name, 2)}
}

// Acquire takes the lock, spinning on the serving counter.
func (l *Lock) Acquire(pe *PE) {
	my := FetchAdd(pe, l.tickets, 0, 0, 1)
	for {
		serving := Get(pe, l.tickets, 0, 1, 1)[0]
		if serving == my {
			return
		}
		// Re-poll after the remote read round trip (backoff is inherent
		// in the get latency).
	}
}

// Release hands the lock to the next ticket holder.
func (l *Lock) Release(pe *PE) {
	AtomicAdd(pe, l.tickets, 0, 1, 1)
	pe.Quiet()
}
