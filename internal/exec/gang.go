package exec

import "sync"

// Gang is a persistent barrier-synchronized worker group: n-1 background
// goroutines plus the caller, who participates as worker 0. It exists
// for the sim kernel's conservative-window executor, which opens many
// short parallel windows per simulated second — spawning goroutines (or
// funneling through a queued pool) per window would cost more than the
// window runs. Workers park on a channel between rounds, so an idle gang
// costs nothing but memory.
//
// Run partitions tasks statically: worker w executes tasks w, w+n, ...
// in increasing order. The assignment depends only on the task count and
// gang size, never on timing, so any state the tasks index by task id is
// touched by a fixed worker per round.
//
// A panic in a task is captured, the round still joins (no worker is
// lost, no barrier hangs), and the panic with the lowest task index
// re-panics on the caller — the same deterministic choice at every gang
// size.
type Gang struct {
	size int

	start chan gangRound
	wg    sync.WaitGroup // per-round completion of background workers
}

// gangRound is one worker's work order for one Run: the share index it
// must execute. Shares travel in the message because channel delivery
// order is arbitrary — a worker goroutine has no fixed identity.
type gangRound struct {
	w  int // share to run: tasks w, w+size, ...
	n  int
	fn func(i int)
	pc *panicCollector
}

// NewGang creates a gang of n workers (n-1 goroutines; the caller is
// worker 0). n <= 1 creates an inline gang with no goroutines.
func NewGang(n int) *Gang {
	if n < 1 {
		n = 1
	}
	g := &Gang{size: n}
	if n == 1 {
		return g
	}
	g.start = make(chan gangRound)
	for w := 1; w < n; w++ {
		go g.worker(g.start)
	}
	return g
}

// Run executes fn(0..n-1) across the gang and returns when every call
// has finished (a full barrier). The caller runs its own share; tasks
// are assigned worker w ∈ {0..size-1} by task index i mod size. Run must
// not be called concurrently with itself.
func (g *Gang) Run(n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if g.size == 1 || n == 1 {
		var pc panicCollector
		for i := 0; i < n; i++ {
			func() {
				defer pc.capture(i)
				fn(i)
			}()
		}
		pc.repanic()
		return
	}
	var pc panicCollector
	active := g.size
	if active > n {
		active = n
	}
	g.wg.Add(active - 1)
	for w := 1; w < active; w++ {
		g.start <- gangRound{w: w, n: n, fn: fn, pc: &pc}
	}
	g.runShare(gangRound{w: 0, n: n, fn: fn, pc: &pc})
	g.wg.Wait()
	pc.repanic()
}

// runShare executes one round's share w: tasks w, w+size, ...
func (g *Gang) runShare(r gangRound) {
	for i := r.w; i < r.n; i += g.size {
		func(i int) {
			defer r.pc.capture(i)
			r.fn(i)
		}(i)
	}
}

// worker is one background gang member: park, run a round's share, join.
func (g *Gang) worker(start chan gangRound) {
	for r := range start {
		g.runShare(r)
		g.wg.Done()
	}
}

// Close releases the background workers. The gang must be idle. Run must
// not be called after Close; a closed size-1 gang is still usable (it
// never had workers).
func (g *Gang) Close() {
	if g.start != nil {
		close(g.start)
		g.start = nil
	}
}
