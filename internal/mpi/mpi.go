// Package mpi models an MPI library (in the spirit of OpenMPI 1.8 on FDR
// InfiniBand, the paper's HPC baseline) on top of the simulated cluster.
//
// It provides communicators, point-to-point messaging with eager and
// rendezvous protocols, tuned collective algorithms (binomial broadcast
// and reduce, recursive-doubling and ring allreduce, dissemination
// barrier), and MPI-IO collective file reads — including the C `int`
// chunk-size limitation of MPI_File_read_at_all that the paper identifies
// as a fundamental scalability problem for data-intensive workloads (§V-C).
//
// All communication is charged against the cluster's RDMA-verbs fabric:
// unlike the Big Data stacks, MPI uses InfiniBand natively for every
// message.
package mpi

import (
	"fmt"
	"sync"
	"time"

	"hpcbd/internal/cluster"
	"hpcbd/internal/sim"
)

// Wildcards for Recv matching, mirroring MPI_ANY_SOURCE / MPI_ANY_TAG.
const (
	AnySource = -1
	AnyTag    = -1
)

// World is one MPI job: np ranks placed ppn-per-node on a cluster.
type World struct {
	Cluster *cluster.Cluster
	NP      int
	PPN     int
	ranks   []*Rank
	wg      *sim.WaitGroup
	comm0   *Comm
	nextCID int
	windows map[string]*Win

	finished int // ranks whose body returned

	// Network-fault posture. A plain world is transport-fragile: a lost
	// message is simply gone and the job deadlocks at the next matching
	// receive (§VI-D — MPI offers no delivery guarantee of its own). A
	// world with netRetry set (RunResilient) retransmits on a timeout.
	netRetry    bool
	commTimeout time.Duration
	lostMsgs    int64 // messages dropped with no retry (plain world)
	commFaults  int64 // retransmissions performed (resilient world)

	// Free list of collective snapshot buffers above pooledF64 elements
	// (see World.f64). Locked: under a raised eager threshold, confined
	// ranks in parallel windows could reach it from several threads.
	bigMu  sync.Mutex
	bigF64 []*[]float64
}

// Done reports whether every rank has returned from its body — false
// after the kernel runs out of work means the job deadlocked (e.g. a
// lost message was never received).
func (w *World) Done() bool { return w.finished == w.NP }

// LostMsgs counts messages the network ate with no retransmission;
// CommFaults counts retransmissions a resilient world performed.
func (w *World) LostMsgs() int64   { return w.lostMsgs }
func (w *World) CommFaults() int64 { return w.commFaults }

// EnableNetRetry puts the world in resilient-communication mode: sends
// that the network drops are retransmitted after timeout (doubling,
// capped at 16x) until delivered. RunResilient enables this.
func (w *World) EnableNetRetry(timeout time.Duration) {
	if timeout <= 0 {
		timeout = 5 * time.Millisecond
	}
	w.netRetry = true
	w.commTimeout = timeout
}

// Rank is one MPI process. Its methods must be called from the rank's own
// simulated process (the body function passed to Launch).
type Rank struct {
	world *World
	rank  int
	node  int
	p     *sim.Proc

	// message-matching state, keyed by communicator context id
	unexpected []*envelope
	posted     []*postedRecv
	recv       postedRecv // the blocking Recv's slot on posted

	// Recycled per-message records (see envelope and Request). Rank-local:
	// touched only from this rank's processes and arrival callbacks.
	freeEnv  *envelope
	nFreeEnv int
	freeReq  *Request
}

// Launch creates an MPI job and spawns its ranks; body runs once per rank.
// Rank i is placed on node i/ppn (block placement, as mpirun does by
// default). The job's completion can be awaited with Wait from another
// simulated process; or use Run for the common run-to-completion case.
func Launch(c *cluster.Cluster, np, ppn int, body func(r *Rank)) *World {
	return launch(c, np, ppn, body, false)
}

// LaunchEager is Launch for eager-only jobs: every point-to-point message
// stays at or below the eager threshold (8 KB), so no rank ever holds a
// remote NIC or parks in a rendezvous. Such ranks are spawned shard-
// confined, which makes them eligible for parallel window execution under
// sim.Kernel.SetParallel. Confinement is dropped automatically when
// message faults are enabled — retransmission timers and fate-coin state
// are cluster-global, so faulty worlds run synchronized. A rank that
// nonetheless issues a rendezvous-size Send panics.
func LaunchEager(c *cluster.Cluster, np, ppn int, body func(r *Rank)) *World {
	return launch(c, np, ppn, body, !c.NetFaultsEnabled())
}

func launch(c *cluster.Cluster, np, ppn int, body func(r *Rank), confined bool) *World {
	if np <= 0 || ppn <= 0 {
		panic("mpi: np and ppn must be positive")
	}
	need := (np + ppn - 1) / ppn
	if need > c.Size() {
		panic(fmt.Sprintf("mpi: %d ranks at %d/node need %d nodes, cluster has %d", np, ppn, need, c.Size()))
	}
	w := &World{Cluster: c, NP: np, PPN: ppn, wg: sim.NewWaitGroup(c.K), windows: map[string]*Win{}}
	group := make([]int, np)
	for i := range group {
		group[i] = i
	}
	w.comm0 = &Comm{world: w, group: group, cid: 0} // nil index: comm rank == world rank
	w.nextCID = 1
	for i := 0; i < np; i++ {
		r := &Rank{world: w, rank: i, node: i / ppn, p: nil}
		w.ranks = append(w.ranks, r)
	}
	spawn := c.SpawnOnNode
	if confined {
		spawn = c.SpawnOnNodeConfined
	}
	for i := 0; i < np; i++ {
		r := w.ranks[i]
		w.wg.Add(1)
		spawn(r.node, fmt.Sprintf("mpi.rank%d", i), func(p *sim.Proc) {
			r.p = p
			body(r)
			// World completion state (finished, the waitgroup and whoever
			// it wakes) is cross-shard; a confined rank finishing inside a
			// parallel window defers the update to the commit barrier.
			p.Serial(func() {
				w.finished++
				w.wg.Done()
			})
		})
	}
	return w
}

// Run launches the job and runs the kernel to completion, returning the
// final virtual time. The kernel must not have been run yet and should not
// contain other long-lived work unless that is intended.
func Run(c *cluster.Cluster, np, ppn int, body func(r *Rank)) sim.Time {
	Launch(c, np, ppn, body)
	return c.K.Run()
}

// Rank returns this process's rank in MPI_COMM_WORLD.
func (r *Rank) Rank() int { return r.rank }

// Size returns the number of ranks in MPI_COMM_WORLD.
func (r *Rank) Size() int { return r.world.NP }

// Node returns the cluster node hosting this rank.
func (r *Rank) Node() int { return r.node }

// Proc exposes the underlying simulated process (for Sleep/Now).
func (r *Rank) Proc() *sim.Proc { return r.p }

// Now returns the current virtual time.
func (r *Rank) Now() sim.Time { return r.p.Now() }

// Compute charges local single-core compute time to the rank (stretched
// on straggler nodes).
func (r *Rank) Compute(d float64) { // seconds
	t := secs(d)
	if cs := r.world.Cluster.Node(r.node).ComputeScale(); cs != 1 {
		t = time.Duration(float64(t) * cs)
	}
	r.p.Sleep(t)
}

// World returns the world communicator, MPI_COMM_WORLD.
func (r *Rank) World() *Comm { return r.world.comm0 }

// cost returns the cluster cost model.
func (r *Rank) cost() cluster.CostModel { return r.world.Cluster.Cost }

// fabric returns the fabric MPI uses: RDMA verbs for everything.
func (r *Rank) fabric() cluster.FabricSpec { return r.world.Cluster.Fabric }
