package main

import (
	"runtime"
	"time"
)

// Per-layer probes: small drivers that build a fresh kernel or cluster
// and time only calls into one package's public API, from outside it.
// Every probe reports host nanoseconds (or seconds) per operation as the
// median of prober.reps repetitions, and exact event and allocation
// counts per operation. They run only in a traced run.

type prober struct {
	div  int // 1; 100 for a smoke run
	reps int
	seed int64
	out  map[string]float64
}

// n scales a probe's full size down for a smoke run.
func (p *prober) n(full int) int {
	if n := full / p.div; n > 0 {
		return n
	}
	return 1
}

// timed calls f reps times and returns the median of the durations f
// measured (f times the part of itself that counts), in seconds.
func (p *prober) timed(f func() time.Duration) float64 {
	xs := make([]float64, p.reps)
	for i := range xs {
		xs[i] = f().Seconds()
	}
	return median(xs)
}

// nsPer is timed, in nanoseconds per one of ops operations.
func (p *prober) nsPer(ops int, f func() time.Duration) float64 {
	return 1e9 * p.timed(f) / float64(ops)
}

// mallocsDuring returns the heap allocations f makes. Probes are serial,
// so nothing else allocates meanwhile.
func mallocsDuring(f func()) float64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	f()
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs - a.Mallocs)
}

func runProbes(cfg config, out map[string]float64) {
	p := &prober{div: 1, reps: 3, seed: cfg.seed, out: out}
	if cfg.smoke {
		p.div, p.reps = 100, 1
	}
	p.probeSim()
	p.probeExec()
	p.probeCluster()
	p.probeTransport()
	p.probeDFS()
	p.probeRDD()
	p.probeMapRed()
	p.probeMPI()
	p.probeSharedMemory()
	p.probeHA()
	p.probeRM()
	p.probeWorkload()
}
