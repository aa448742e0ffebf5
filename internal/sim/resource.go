package sim

import (
	"fmt"
	"time"
)

// Resource is a counting resource with FIFO queueing in virtual time. It
// models anything with finite capacity whose contention should produce
// waiting: CPU cores, NIC ports, disk channels, memory grants.
//
// Resources are not goroutine-safe in the conventional sense; they rely on
// the kernel's one-process-at-a-time execution for consistency.
type Resource struct {
	k        *Kernel
	name     string
	capacity int64
	used     int64
	// waiters is a head-indexed FIFO: grants advance whead instead of
	// re-slicing (which forces a fresh allocation on the next append);
	// the backing array is reused once the queue drains.
	waiters []resWaiter
	whead   int

	// Stats
	acquires  int64
	waited    int64 // number of acquires that had to queue
	busyTime  Time  // integral of (used>0) over time, for utilization
	lastEvent Time
}

type resWaiter struct {
	p *Proc
	n int64
}

// NewResource creates a resource with the given capacity.
func NewResource(k *Kernel, name string, capacity int64) *Resource {
	if capacity <= 0 {
		panic(fmt.Sprintf("sim: resource %q capacity must be positive", name))
	}
	return &Resource{k: k, name: name, capacity: capacity}
}

// Capacity returns the total capacity.
func (r *Resource) Capacity() int64 { return r.capacity }

// InUse returns the currently held units.
func (r *Resource) InUse() int64 { return r.used }

// QueueLen returns the number of processes waiting to acquire.
func (r *Resource) QueueLen() int { return len(r.waiters) - r.whead }

// account closes the utilization interval [lastEvent, t] using the
// usage level that prevailed during it; call before mutating used. The
// time is explicit because a process inside a parallel window observes
// its window's clock, not the kernel's serial clock — proc-carrying
// entry points pass p.Now(), proc-less ones the kernel clock.
func (r *Resource) account(t Time) {
	if r.used > 0 {
		r.busyTime += t - r.lastEvent
	}
	r.lastEvent = t
}

// Acquire blocks the process until n units are available, FIFO-fair.
// n must not exceed capacity.
func (r *Resource) Acquire(p *Proc, n int64) {
	if n <= 0 {
		return
	}
	if n > r.capacity {
		panic(fmt.Sprintf("sim: acquire %d exceeds capacity %d of %q", n, r.capacity, r.name))
	}
	p.FlushCharge() // deferred time elapses before joining the queue
	r.acquires++
	// FIFO fairness: even if n units are free, queue behind earlier waiters.
	if r.whead == len(r.waiters) && r.used+n <= r.capacity {
		r.account(p.Now())
		r.used += n
		return
	}
	r.waited++
	r.waiters = append(r.waiters, resWaiter{p: p, n: n})
	p.block()
}

// TryAcquire acquires n units without blocking; it reports whether it
// succeeded. Serial-loop only: it has no process to date the
// acquisition with, so it must not be reached from a parallel window.
func (r *Resource) TryAcquire(n int64) bool {
	if n <= 0 {
		return true
	}
	if r.k.inWindow {
		panic(fmt.Sprintf("sim: TryAcquire of %q inside a parallel window (use Acquire)", r.name))
	}
	if r.whead < len(r.waiters) || r.used+n > r.capacity {
		return false
	}
	r.acquires++
	r.account(r.k.now)
	r.used += n
	return true
}

// Release returns n units and grants queued waiters in FIFO order.
// It may be called from any running process or kernel callback on the
// serial loop; a confined process inside a parallel window must use
// ReleaseBy, which carries the releasing process's clock.
func (r *Resource) Release(n int64) {
	if r.k.inWindow {
		panic(fmt.Sprintf("sim: bare Release of %q inside a parallel window (use ReleaseBy)", r.name))
	}
	r.release(r.k.now, n)
}

// ReleaseBy returns n units on behalf of process p, accounting the
// utilization interval at p's clock. Inside a parallel window the
// resource must be shard-local to p — that is the confinement
// discipline — so the FIFO waiters it wakes are on p's shard too.
func (r *Resource) ReleaseBy(p *Proc, n int64) {
	r.release(p.Now(), n)
}

func (r *Resource) release(t Time, n int64) {
	if n <= 0 {
		return
	}
	if n > r.used {
		panic(fmt.Sprintf("sim: release %d exceeds in-use %d of %q", n, r.used, r.name))
	}
	r.account(t)
	r.used -= n
	for r.whead < len(r.waiters) && r.used+r.waiters[r.whead].n <= r.capacity {
		w := r.waiters[r.whead]
		r.waiters[r.whead] = resWaiter{}
		r.whead++
		r.used += w.n
		r.k.wake(w.p)
	}
	if r.whead == len(r.waiters) && r.whead > 0 {
		r.waiters = r.waiters[:0]
		r.whead = 0
	}
}

// UseFor acquires n units for duration d, then releases. This is the
// common "occupy the device for the service time" pattern.
func (r *Resource) UseFor(p *Proc, n int64, d time.Duration) {
	r.Acquire(p, n)
	p.Sleep(d)
	r.ReleaseBy(p, n)
}

// Utilization returns the fraction of elapsed virtual time during which at
// least one unit was held, up to the last acquire/release.
func (r *Resource) Utilization() float64 {
	if r.lastEvent == 0 {
		return 0
	}
	return float64(r.busyTime) / float64(r.lastEvent)
}

// ContentionRate returns the fraction of acquires that had to queue.
func (r *Resource) ContentionRate() float64 {
	if r.acquires == 0 {
		return 0
	}
	return float64(r.waited) / float64(r.acquires)
}
