package exec

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// ForEach runs fn(0..n-1) with bounded host parallelism and returns when
// every call has finished. The width is the effective CPU budget (see
// Default) — the same budget payload workers draw from — so a sweep that
// fans out per-point kernels and a kernel offloading payloads never
// oversubscribe the host between them.
//
// ForEach is the sweep-point runner: the figures and the fault sweeps
// build one independent kernel per point (own RNG, own cluster, no
// shared mutable state), so points can execute concurrently while each
// kernel individually keeps its serial, deterministic event order.
// Callers must ensure fn(i) and fn(j) share nothing mutable; assembly of
// results must be by index, never by completion order.
//
// A panic in fn(i) does not hang or kill the run: every worker drains,
// remaining points are skipped, and the panic with the lowest point
// index re-panics on the caller's goroutine — the same deterministic
// choice at every width, including the serial width-1 loop (which stops
// at the first panicking index).
//
// When the budget is 1 (or n is 1), ForEach degrades to a plain serial
// loop on the caller's goroutine — the baseline execution the
// determinism tests compare against.
func ForEach(n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	width := ForEachWidth()
	if width > n {
		width = n
	}
	if width <= 1 || n == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next int64 = -1
	var pc panicCollector
	var wg sync.WaitGroup
	wg.Add(width)
	for w := 0; w < width; w++ {
		go func() {
			defer wg.Done()
			for pc.ok() {
				i := int(atomic.AddInt64(&next, 1))
				if i >= n {
					return
				}
				func() {
					defer pc.capture(i)
					fn(i)
				}()
			}
		}()
	}
	wg.Wait()
	pc.repanic()
}

// panicCollector captures panics from concurrent point functions and
// re-panics the one with the lowest index — a deterministic choice no
// matter which worker hit which point first.
type panicCollector struct {
	mu       sync.Mutex
	panicked atomic.Bool
	idx      int
	val      any
}

// ok reports whether work should continue (no panic captured yet).
func (pc *panicCollector) ok() bool { return !pc.panicked.Load() }

// capture is used as a deferred call around one point; it records a
// panic (keeping the lowest index seen) instead of letting it escape
// into the worker goroutine.
func (pc *panicCollector) capture(i int) {
	r := recover()
	if r == nil {
		return
	}
	pc.mu.Lock()
	if !pc.panicked.Load() || i < pc.idx {
		pc.idx, pc.val = i, r
	}
	pc.panicked.Store(true)
	pc.mu.Unlock()
}

// repanic re-raises the captured panic, if any, on the caller.
func (pc *panicCollector) repanic() {
	if pc.panicked.Load() {
		panic(pc.val)
	}
}

// ForEachWidth returns the parallelism ForEach will use for large n:
// the override set by SetForEachWidth, or the effective CPU budget.
func ForEachWidth() int {
	sharedMu.Lock()
	w := forEachWidth
	sharedMu.Unlock()
	if w > 0 {
		return w
	}
	c := effectiveCPUs()
	if gm := runtime.GOMAXPROCS(0); gm < c {
		c = gm
	}
	return c
}

// SetForEachWidth overrides ForEach's parallelism (0 restores the CPU
// budget). Like SetDefaultSize, this is the hook the invariance tests
// use to compare serial and parallel sweep execution.
func SetForEachWidth(n int) {
	sharedMu.Lock()
	forEachWidth = n
	sharedMu.Unlock()
}

var forEachWidth int
