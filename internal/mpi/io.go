package mpi

import (
	"errors"
	"fmt"
	"math"
)

// ErrCountOverflow is returned when a collective read asks for a per-
// process chunk larger than a C `int` can express. MPI_File_read_at_all
// takes `int count`, so chunks are capped at 2 GiB; the paper hits exactly
// this wall with the 80 GB AnswersCount input and fewer than 40 processes
// (§V-C): "This makes MPI non-scalable and shows a fundamental issue with
// the parallel I/Os of MPI".
var ErrCountOverflow = errors.New("mpi-io: count exceeds MAX_INT (C int); use more processes or smaller chunks")

// File is an MPI-IO file handle opened collectively. The file is assumed
// replicated on every node's local scratch (the staging the paper performs
// for the MPI experiments), so reads hit the local SSD of each rank's node
// and contend only with ranks sharing that node.
type File struct {
	comm *Comm
	name string
	size int64
}

// FileOpenLocal collectively opens a file of the given logical size that
// has been staged to every node's local scratch filesystem.
func (c *Comm) FileOpenLocal(r *Rank, name string, size int64) *File {
	// File open is collective: all ranks synchronize and the metadata
	// round-trip is charged once per rank.
	c.Barrier(r)
	r.p.Sleep(r.cost().MPIPerCallOverhead)
	return &File{comm: c, name: name, size: size}
}

// ReadAtAll performs a collective read of count bytes at offset by this
// rank, modelled on MPI_File_read_at_all: every rank of the communicator
// must call it, ranks synchronize, and each rank's data is served from its
// node-local scratch disk (contending with other ranks on the same node).
//
// count is declared int64 for convenience, but values above math.MaxInt32
// return ErrCountOverflow, faithfully reproducing the C `int count`
// parameter of the MPI standard.
func (f *File) ReadAtAll(r *Rank, offset, count int64) error {
	if count > math.MaxInt32 {
		return fmt.Errorf("%w: count=%d", ErrCountOverflow, count)
	}
	if offset < 0 || offset+count > f.size {
		return fmt.Errorf("mpi-io: read [%d,%d) outside file of %d bytes", offset, offset+count, f.size)
	}
	// Two-phase collective I/O: entry synchronization, local read,
	// exit synchronization.
	f.comm.Barrier(r)
	node := f.comm.world.Cluster.Node(r.node)
	node.Scratch.Read(r.p, count)
	f.comm.Barrier(r)
	return nil
}

// ReadAt is the independent (non-collective) variant.
func (f *File) ReadAt(r *Rank, offset, count int64) error {
	if count > math.MaxInt32 {
		return fmt.Errorf("%w: count=%d", ErrCountOverflow, count)
	}
	if offset < 0 || offset+count > f.size {
		return fmt.Errorf("mpi-io: read [%d,%d) outside file of %d bytes", offset, offset+count, f.size)
	}
	f.comm.world.Cluster.Node(r.node).Scratch.Read(r.p, count)
	return nil
}

// EvenChunk returns this rank's (offset, count) under an even contiguous
// partition of the file — the decomposition the paper's MPI AnswersCount
// uses. The returned count may exceed MaxInt32, in which case ReadAtAll
// will reject it.
func (f *File) EvenChunk(r *Rank) (offset, count int64) {
	n := int64(f.comm.Size())
	me := int64(f.comm.rankOf(r))
	lo := me * f.size / n
	hi := (me + 1) * f.size / n
	return lo, hi - lo
}

// Checkpoint writes bytes of rank-local state to the node's scratch disk
// and synchronizes — the classical HPC defensive-I/O pattern the paper
// contrasts with Spark's lineage-based recovery (§VI-D).
func Checkpoint(r *Rank, c *Comm, bytes int64) {
	node := c.world.Cluster.Node(r.node)
	node.Scratch.Write(r.p, bytes)
	c.Barrier(r)
}

// Restore reads a checkpoint back from local scratch.
func Restore(r *Rank, c *Comm, bytes int64) {
	node := c.world.Cluster.Node(r.node)
	node.Scratch.Read(r.p, bytes)
	c.Barrier(r)
}

// WriteScratch charges a non-collective write of rank-local state to the
// node's scratch disk.
func (r *Rank) WriteScratch(bytes int64) {
	r.world.Cluster.Node(r.node).Scratch.Write(r.p, bytes)
}

// ReadScratch charges a non-collective read of rank-local state from the
// node's scratch disk.
func (r *Rank) ReadScratch(bytes int64) {
	r.world.Cluster.Node(r.node).Scratch.Read(r.p, bytes)
}
