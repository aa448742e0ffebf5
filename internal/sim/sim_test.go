package sim

import (
	"runtime"
	"testing"
	"time"
)

func TestSleepAdvancesClock(t *testing.T) {
	k := NewKernel(1)
	var at Time
	k.Spawn("a", func(p *Proc) {
		p.Sleep(5 * time.Millisecond)
		at = p.Now()
	})
	end := k.Run()
	if at != Time(5*time.Millisecond) {
		t.Errorf("woke at %v, want 5ms", at)
	}
	if end != at {
		t.Errorf("Run returned %v, want %v", end, at)
	}
}

func TestEventOrderingFIFOAtSameTime(t *testing.T) {
	k := NewKernel(1)
	var order []string
	for _, name := range []string{"a", "b", "c"} {
		name := name
		k.Spawn(name, func(p *Proc) {
			p.Sleep(time.Millisecond)
			order = append(order, name)
		})
	}
	k.Run()
	if got := order[0] + order[1] + order[2]; got != "abc" {
		t.Errorf("order %q, want abc (FIFO at equal times)", got)
	}
}

func TestInterleavedSleeps(t *testing.T) {
	k := NewKernel(1)
	var order []int
	k.Spawn("slow", func(p *Proc) {
		p.Sleep(10 * time.Millisecond)
		order = append(order, 10)
	})
	k.Spawn("fast", func(p *Proc) {
		p.Sleep(1 * time.Millisecond)
		order = append(order, 1)
		p.Sleep(20 * time.Millisecond)
		order = append(order, 21)
	})
	k.Run()
	want := []int{1, 10, 21}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order %v, want %v", order, want)
		}
	}
}

func TestAfterCallback(t *testing.T) {
	k := NewKernel(1)
	var fired Time
	k.Spawn("a", func(p *Proc) {
		p.k.After(3*time.Millisecond, func() { fired = k.Now() })
		p.Sleep(10 * time.Millisecond)
	})
	k.Run()
	if fired != Time(3*time.Millisecond) {
		t.Errorf("callback fired at %v, want 3ms", fired)
	}
}

func TestSpawnFromProcess(t *testing.T) {
	k := NewKernel(1)
	var childRan bool
	k.Spawn("parent", func(p *Proc) {
		p.Sleep(time.Millisecond)
		k.Spawn("child", func(c *Proc) {
			c.Sleep(time.Millisecond)
			childRan = true
		})
	})
	end := k.Run()
	if !childRan {
		t.Fatal("child never ran")
	}
	if end != Time(2*time.Millisecond) {
		t.Errorf("end %v, want 2ms", end)
	}
}

func TestResourceSerializes(t *testing.T) {
	k := NewKernel(1)
	r := NewResource(k, "disk", 1)
	var finish []Time
	for i := 0; i < 3; i++ {
		k.Spawn("user", func(p *Proc) {
			r.Acquire(p, 1)
			p.Sleep(time.Second)
			r.Release(1)
			finish = append(finish, p.Now())
		})
	}
	k.Run()
	want := []Time{Time(time.Second), Time(2 * time.Second), Time(3 * time.Second)}
	for i := range want {
		if finish[i] != want[i] {
			t.Fatalf("finish times %v, want %v", finish, want)
		}
	}
	if u := r.Utilization(); u < 0.99 {
		t.Errorf("utilization %f, want ~1", u)
	}
	if cr := r.ContentionRate(); cr < 0.6 || cr > 0.7 {
		t.Errorf("contention rate %f, want 2/3", cr)
	}
}

func TestResourceCapacityTwoRunsPairs(t *testing.T) {
	k := NewKernel(1)
	r := NewResource(k, "cores", 2)
	var finish []Time
	for i := 0; i < 4; i++ {
		k.Spawn("user", func(p *Proc) {
			r.Acquire(p, 1)
			p.Sleep(time.Second)
			r.Release(1)
			finish = append(finish, p.Now())
		})
	}
	end := k.Run()
	if end != Time(2*time.Second) {
		t.Errorf("end %v, want 2s (4 jobs, 2 wide)", end)
	}
	_ = finish
}

func TestResourceFIFOFairness(t *testing.T) {
	k := NewKernel(1)
	r := NewResource(k, "res", 2)
	var order []string
	// holder takes both units; "big" queues for 2, then "small" for 1.
	// small must NOT jump ahead of big (FIFO, no starvation of big).
	k.Spawn("holder", func(p *Proc) {
		r.Acquire(p, 2)
		p.Sleep(time.Second)
		r.Release(2)
	})
	k.Spawn("big", func(p *Proc) {
		p.Sleep(time.Millisecond)
		r.Acquire(p, 2)
		order = append(order, "big")
		p.Sleep(time.Second)
		r.Release(2)
	})
	k.Spawn("small", func(p *Proc) {
		p.Sleep(2 * time.Millisecond)
		r.Acquire(p, 1)
		order = append(order, "small")
		r.Release(1)
	})
	k.Run()
	if order[0] != "big" {
		t.Errorf("order %v, want big first (FIFO)", order)
	}
}

func TestTryAcquire(t *testing.T) {
	k := NewKernel(1)
	r := NewResource(k, "r", 1)
	k.Spawn("a", func(p *Proc) {
		if !r.TryAcquire(1) {
			t.Error("first TryAcquire failed")
		}
		if r.TryAcquire(1) {
			t.Error("second TryAcquire succeeded on full resource")
		}
		r.Release(1)
		if !r.TryAcquire(1) {
			t.Error("TryAcquire after release failed")
		}
		r.Release(1)
	})
	k.Run()
}

func TestChanRendezvous(t *testing.T) {
	k := NewKernel(1)
	c := NewChan[int](k, "c", 0)
	var got int
	var recvAt Time
	k.Spawn("recv", func(p *Proc) {
		got, _ = c.Recv(p)
		recvAt = p.Now()
	})
	k.Spawn("send", func(p *Proc) {
		p.Sleep(time.Second)
		c.Send(p, 42)
	})
	k.Run()
	if got != 42 {
		t.Errorf("got %d, want 42", got)
	}
	if recvAt != Time(time.Second) {
		t.Errorf("received at %v, want 1s", recvAt)
	}
}

func TestChanSenderBlocksUntilReceiver(t *testing.T) {
	k := NewKernel(1)
	c := NewChan[int](k, "c", 0)
	var sendDone Time
	k.Spawn("send", func(p *Proc) {
		c.Send(p, 1)
		sendDone = p.Now()
	})
	k.Spawn("recv", func(p *Proc) {
		p.Sleep(2 * time.Second)
		c.Recv(p)
	})
	k.Run()
	if sendDone != Time(2*time.Second) {
		t.Errorf("send completed at %v, want 2s", sendDone)
	}
}

func TestChanBuffered(t *testing.T) {
	k := NewKernel(1)
	c := NewChan[int](k, "c", 2)
	var sent3At Time
	k.Spawn("send", func(p *Proc) {
		c.Send(p, 1)
		c.Send(p, 2)
		c.Send(p, 3) // blocks: buffer full
		sent3At = p.Now()
	})
	k.Spawn("recv", func(p *Proc) {
		p.Sleep(time.Second)
		for i := 1; i <= 3; i++ {
			v, ok := c.Recv(p)
			if !ok || v != i {
				t.Errorf("recv %d: got %d ok=%v", i, v, ok)
			}
		}
	})
	k.Run()
	if sent3At != Time(time.Second) {
		t.Errorf("third send completed at %v, want 1s", sent3At)
	}
}

func TestChanCloseWakesReceivers(t *testing.T) {
	k := NewKernel(1)
	c := NewChan[int](k, "c", 0)
	var ok = true
	k.Spawn("recv", func(p *Proc) {
		_, ok = c.Recv(p)
	})
	k.Spawn("closer", func(p *Proc) {
		p.Sleep(time.Millisecond)
		c.Close()
	})
	k.Run()
	if ok {
		t.Error("receiver on closed channel got ok=true")
	}
}

func TestFuture(t *testing.T) {
	k := NewKernel(1)
	f := NewFuture[string](k)
	var got string
	var at Time
	k.Spawn("waiter", func(p *Proc) {
		got = f.Wait(p)
		at = p.Now()
	})
	k.Spawn("resolver", func(p *Proc) {
		p.Sleep(7 * time.Millisecond)
		f.Complete("done")
	})
	k.Run()
	if got != "done" || at != Time(7*time.Millisecond) {
		t.Errorf("got %q at %v", got, at)
	}
	// Waiting on an already-complete future returns immediately.
	k2 := NewKernel(1)
	f2 := NewFuture[int](k2)
	f2.Complete(9)
	var v int
	k2.Spawn("w", func(p *Proc) { v = f2.Wait(p) })
	k2.Run()
	if v != 9 {
		t.Errorf("completed-future wait got %d", v)
	}
}

func TestWaitGroup(t *testing.T) {
	k := NewKernel(1)
	wg := NewWaitGroup(k)
	var doneAt Time
	for i := 1; i <= 3; i++ {
		i := i
		wg.Add(1)
		k.Spawn("worker", func(p *Proc) {
			p.Sleep(time.Duration(i) * time.Second)
			wg.Done()
		})
	}
	k.Spawn("waiter", func(p *Proc) {
		wg.Wait(p)
		doneAt = p.Now()
	})
	k.Run()
	if doneAt != Time(3*time.Second) {
		t.Errorf("waitgroup released at %v, want 3s", doneAt)
	}
}

func TestSignalBroadcast(t *testing.T) {
	k := NewKernel(1)
	s := NewSignal(k)
	woken := 0
	for i := 0; i < 5; i++ {
		k.Spawn("w", func(p *Proc) {
			s.Wait(p)
			woken++
		})
	}
	k.Spawn("b", func(p *Proc) {
		p.Sleep(time.Millisecond)
		if s.Waiters() != 5 {
			t.Errorf("waiters %d, want 5", s.Waiters())
		}
		s.Broadcast()
	})
	k.Run()
	if woken != 5 {
		t.Errorf("woken %d, want 5", woken)
	}
}

func TestShutdownReleasesParked(t *testing.T) {
	k := NewKernel(1)
	c := NewChan[int](k, "never", 0)
	k.Spawn("stuck", func(p *Proc) {
		c.Recv(p) // never satisfied
	})
	k.Run()
	if k.Blocked() != 1 {
		t.Errorf("blocked %d, want 1", k.Blocked())
	}
	k.Shutdown() // must not hang or panic
	k.Shutdown() // idempotent
}

// TestRunReclaimsCoroutines: Run returns with no goroutine of its own left
// behind — not the processes that finished, not the one parked forever,
// not the one whose unwinding defer wakes another — and what callers read
// afterwards is still there.
func TestRunReclaimsCoroutines(t *testing.T) {
	NewKernel(0) // starts the process-wide worker pool, which stays
	base := runtime.NumGoroutine()
	k := NewKernel(1)
	never := NewChan[int](k, "never", 0)
	wg := NewWaitGroup(k)
	wg.Add(1)
	k.Spawn("waiter", func(p *Proc) { wg.Wait(p) })
	k.Spawn("stuck", func(p *Proc) {
		defer wg.Done() // runs while the kernel reclaims, and wakes waiter
		never.Recv(p)
	})
	for i := 0; i < 50; i++ {
		k.Spawn("worker", func(p *Proc) { p.Sleep(time.Duration(i)) })
	}
	k.Run()
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("%d goroutines after Run, %d before the kernel existed", n, base)
	}
	if k.Blocked() != 2 {
		t.Errorf("Blocked() = %d after Run, want the 2 processes the run left parked", k.Blocked())
	}
	if k.Events() == 0 {
		t.Error("Events() lost by the reclaim")
	}
	k.Shutdown() // still fine, and idempotent
	k.Shutdown()
}

func TestDeterminism(t *testing.T) {
	run := func() []Time {
		k := NewKernel(42)
		r := NewResource(k, "r", 2)
		var times []Time
		for i := 0; i < 10; i++ {
			k.Spawn("p", func(p *Proc) {
				d := time.Duration(k.Rand().Intn(1000)) * time.Microsecond
				p.Sleep(d)
				r.Acquire(p, 1)
				p.Sleep(time.Millisecond)
				r.Release(1)
				times = append(times, p.Now())
			})
		}
		k.Run()
		return times
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run differs at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestNegativeSleepIsZero(t *testing.T) {
	k := NewKernel(1)
	k.Spawn("a", func(p *Proc) {
		p.Sleep(-time.Second)
		if p.Now() != 0 {
			t.Errorf("now %v after negative sleep", p.Now())
		}
	})
	k.Run()
}

func TestChanTrySendTryRecv(t *testing.T) {
	k := NewKernel(1)
	c := NewChan[int](k, "c", 1)
	k.Spawn("a", func(p *Proc) {
		if _, ok := c.TryRecv(); ok {
			t.Error("TryRecv on empty channel succeeded")
		}
		if !c.TrySend(1) {
			t.Error("TrySend into empty buffer failed")
		}
		if c.TrySend(2) {
			t.Error("TrySend into full buffer succeeded")
		}
		v, ok := c.TryRecv()
		if !ok || v != 1 {
			t.Errorf("TryRecv got %d ok=%v", v, ok)
		}
	})
	k.Run()
}

func TestResourceUseAndUseFor(t *testing.T) {
	k := NewKernel(1)
	r := NewResource(k, "r", 1)
	k.Spawn("a", func(p *Proc) {
		r.UseFor(p, 1, 2*time.Millisecond)
		if p.Now() != Time(2*time.Millisecond) {
			t.Errorf("now %v, want 2ms", p.Now())
		}
		if r.InUse() != 0 {
			t.Error("UseFor leaked the resource")
		}
	})
	k.Run()
}

func TestResourceOverCapacityPanics(t *testing.T) {
	k := NewKernel(1)
	r := NewResource(k, "r", 2)
	panicked := false
	k.Spawn("a", func(p *Proc) {
		func() {
			defer func() {
				if recover() != nil {
					panicked = true
				}
			}()
			r.Acquire(p, 3)
		}()
	})
	k.Run()
	if !panicked {
		t.Error("acquire beyond capacity did not panic")
	}
}

func TestAfterCallbacksOrderedWithProcs(t *testing.T) {
	k := NewKernel(1)
	var order []string
	k.Spawn("p", func(p *Proc) {
		k.After(time.Millisecond, func() { order = append(order, "cb") })
		p.Sleep(time.Millisecond)
		order = append(order, "proc")
	})
	k.Run()
	// The callback was scheduled first at the same timestamp: FIFO.
	if len(order) != 2 || order[0] != "cb" || order[1] != "proc" {
		t.Errorf("order %v, want [cb proc]", order)
	}
}

func TestFutureDoneAndDoubleCompletePanics(t *testing.T) {
	k := NewKernel(1)
	f := NewFuture[int](k)
	if f.Done() {
		t.Error("new future reports done")
	}
	f.Complete(1)
	if !f.Done() {
		t.Error("completed future not done")
	}
	defer func() {
		if recover() == nil {
			t.Error("double complete did not panic")
		}
	}()
	f.Complete(2)
}
