package cluster

import (
	"errors"
	"sync/atomic"
	"time"

	"hpcbd/internal/sim"
)

// ErrDiskFault is the transient read error injected by the chaos engine:
// a checksum mismatch or medium error on one request. Retrying (possibly
// on another replica) is expected to succeed.
var ErrDiskFault = errors.New("disk: transient read error")

// ErrDiskFull is the persistent allocation error a full device returns:
// ENOSPC. Unlike ErrDiskFault, retrying the same device cannot succeed
// until space is freed; callers redirect to another device or fail.
var ErrDiskFull = errors.New("disk: device full")

// DiskSpec describes a storage device.
type DiskSpec struct {
	Name     string
	ReadBW   float64 // bytes/s sequential read
	WriteBW  float64 // bytes/s sequential write
	Latency  time.Duration
	Channels int64 // internal parallelism: concurrent requests served at full speed
	Capacity int64 // device capacity in bytes; 0 = unbounded (no space accounting)
}

// LocalSSD models the 320 GB scratch SSD of a Comet node (sequential
// throughput with readahead; the paper's MPI numbers imply ~700 MB/s
// effective per node).
func LocalSSD() DiskSpec {
	return DiskSpec{
		Name:     "local-ssd",
		ReadBW:   7.0e8,
		WriteBW:  5.0e8,
		Latency:  90 * time.Microsecond,
		Channels: 4,
		Capacity: 320 << 30,
	}
}

// NFSDisk models the shared NFS filer HPC clusters traditionally mount;
// a single service channel makes cluster-wide read contention visible.
func NFSDisk() DiskSpec {
	return DiskSpec{
		Name:     "nfs",
		ReadBW:   1.0e9,
		WriteBW:  6.0e8,
		Latency:  500 * time.Microsecond,
		Channels: 1,
	}
}

// Disk is a simulated storage device. Concurrent requests beyond Channels
// queue FIFO, so oversubscribed disks slow down gracefully — the storage
// contention effect the paper discusses in §III-C.
type Disk struct {
	Spec DiskSpec
	ch   *sim.Resource

	// used is the space-accounting counter (Alloc/Free), the disk
	// analogue of Node.memUsed: atomic with trailing padding because
	// spill decisions and overload fillers touch it from confined events
	// on different gang workers under the parallel window executor.
	used atomic.Int64
	_    [56]byte

	scale         float64 // service-time multiplier (chaos straggler knob), 0 == 1
	pendingFaults int     // reads that will fail with ErrDiskFault

	bytesRead    int64
	bytesWritten int64
	reads        int64
	writes       int64
}

// NewDisk creates a disk attached to the given kernel.
func NewDisk(k *sim.Kernel, name string, spec DiskSpec) *Disk {
	ch := spec.Channels
	if ch <= 0 {
		ch = 1
	}
	return &Disk{Spec: spec, ch: sim.NewResource(k, name, ch)}
}

// Alloc accounts bytes of device space, mirroring Node.AllocMem: it
// reports false (allocating nothing) when the device lacks capacity,
// letting callers redirect the write elsewhere. Disks with a zero
// Capacity are unbounded and always succeed. Alloc models the space
// reservation only; callers still charge the transfer via Write.
func (d *Disk) Alloc(bytes int64) bool {
	if d.Spec.Capacity <= 0 {
		return true
	}
	for {
		cur := d.used.Load()
		if cur+bytes > d.Spec.Capacity {
			return false
		}
		if d.used.CompareAndSwap(cur, cur+bytes) {
			return true
		}
	}
}

// AllocUpTo claims as much of bytes as the device can supply (possibly
// zero) and returns the amount claimed — the chaos disk-filler primitive.
// Unbounded disks claim nothing: there is no capacity to exhaust.
func (d *Disk) AllocUpTo(bytes int64) int64 {
	if d.Spec.Capacity <= 0 {
		return 0
	}
	for {
		cur := d.used.Load()
		free := d.Spec.Capacity - cur
		if free <= 0 || bytes <= 0 {
			return 0
		}
		take := bytes
		if take > free {
			take = free
		}
		if d.used.CompareAndSwap(cur, cur+take) {
			return take
		}
	}
}

// Free returns space accounted by Alloc.
func (d *Disk) Free(bytes int64) {
	if d.Spec.Capacity <= 0 {
		return
	}
	if d.used.Add(-bytes) < 0 {
		panic("disk: Free below zero")
	}
}

// Used returns currently-accounted device space.
func (d *Disk) Used() int64 { return d.used.Load() }

// FreeBytes returns unaccounted capacity; unbounded disks report the
// full int64 range.
func (d *Disk) FreeBytes() int64 {
	if d.Spec.Capacity <= 0 {
		return int64(1) << 62
	}
	return d.Spec.Capacity - d.used.Load()
}

// SetCapacity overrides the device capacity (a bench/test hook: overload
// sweeps shrink scratch disks so saturation is reachable at test scale).
// Panics if the new capacity is below the space already accounted.
func (d *Disk) SetCapacity(bytes int64) {
	if bytes > 0 && d.used.Load() > bytes {
		panic("disk: SetCapacity below used")
	}
	d.Spec.Capacity = bytes
}

// Read charges the process for reading n bytes sequentially.
func (d *Disk) Read(p *sim.Proc, n int64) { d.ReadEff(p, n, 1) }

// ReadEff charges a read that achieves only the given fraction of the
// device bandwidth (eff in (0,1]). JVM stream stacks — HDFS datanodes,
// Spark's HadoopRDD — typically realize about half the raw device rate
// (buffer copies, small reads); see CostModel.JVMIOFactor.
func (d *Disk) ReadEff(p *sim.Proc, n int64, eff float64) {
	if n <= 0 {
		return
	}
	if eff <= 0 || eff > 1 {
		eff = 1
	}
	d.reads++
	d.bytesRead += n
	d.ch.UseFor(p, 1, d.stretch(d.Spec.Latency+time.Duration(float64(n)/(d.Spec.ReadBW*eff)*1e9)))
}

// ReadChecked is ReadEff with fault visibility: when the chaos engine has
// armed transient faults on this disk, the read fails partway through
// (charging the seek plus half the transfer — the point where the bad
// checksum surfaces) and returns ErrDiskFault. Callers retry or fail over
// to another replica.
func (d *Disk) ReadChecked(p *sim.Proc, n int64, eff float64) error {
	if n <= 0 {
		return nil
	}
	if d.pendingFaults > 0 {
		d.pendingFaults--
		if eff <= 0 || eff > 1 {
			eff = 1
		}
		partial := time.Duration(float64(n) / (d.Spec.ReadBW * eff) * 1e9 / 2)
		d.ch.UseFor(p, 1, d.stretch(d.Spec.Latency+partial))
		return ErrDiskFault
	}
	d.ReadEff(p, n, eff)
	return nil
}

// SetScale sets the service-time multiplier for all requests (>= 1 slows
// the device — a sick disk or a straggler node's saturated SSD).
func (d *Disk) SetScale(f float64) {
	if f <= 0 {
		f = 1
	}
	d.scale = f
}

// InjectReadFaults arms the next n ReadChecked calls to fail with
// ErrDiskFault.
func (d *Disk) InjectReadFaults(n int) { d.pendingFaults += n }

func (d *Disk) stretch(t time.Duration) time.Duration {
	if d.scale <= 0 || d.scale == 1 {
		return t
	}
	return time.Duration(float64(t) * d.scale)
}

// Write charges the process for writing n bytes sequentially.
func (d *Disk) Write(p *sim.Proc, n int64) {
	if n <= 0 {
		return
	}
	d.writes++
	d.bytesWritten += n
	d.ch.UseFor(p, 1, d.stretch(d.Spec.Latency+time.Duration(float64(n)/d.Spec.WriteBW*1e9)))
}

// BytesRead returns the cumulative bytes read.
func (d *Disk) BytesRead() int64 { return d.bytesRead }

// BytesWritten returns the cumulative bytes written.
func (d *Disk) BytesWritten() int64 { return d.bytesWritten }
