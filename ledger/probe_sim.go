package main

import (
	"time"

	"hpcbd/internal/sim"
)

// stormShape selects the kernel dispatch path a sleep storm runs on.
type stormShape struct {
	shards  int
	windows bool // confined processes, 2 dispatch workers
}

// sleepStorm runs procs processes that each sleep a process-specific
// few dozen nanoseconds sleeps times, and returns the host time of
// Kernel.Run and the events it committed.
func sleepStorm(sh stormShape, procs, sleeps int, spread time.Duration) (time.Duration, int64) {
	k := sim.NewKernel(3)
	if sh.shards > 1 {
		k.SetShards(sh.shards)
		k.SetLookahead(time.Microsecond)
	}
	if sh.windows {
		k.SetParallel(2)
	}
	for i := 0; i < procs; i++ {
		d := 50*time.Nanosecond + time.Duration(i)%spread
		body := func(p *sim.Proc) {
			for s := 0; s < sleeps; s++ {
				p.Sleep(d)
			}
		}
		switch {
		case sh.windows:
			k.SpawnOnConfined(i%sh.shards, "storm", body)
		case sh.shards > 1:
			k.SpawnOn(i%sh.shards, "storm", body)
		default:
			k.Spawn("storm", body)
		}
	}
	t0 := time.Now()
	k.Run()
	dt := time.Since(t0)
	ev := k.Events()
	k.Shutdown()
	return dt, ev
}

func (p *prober) probeSim() {
	// 64 processes x 5 k sleeps: dispatch + coroutine switch on a
	// shallow heap, on each of the three dispatch paths.
	procs, sleeps := 64, p.n(5000)
	for _, s := range []struct {
		name string
		sh   stormShape
	}{
		{"sim.sleep_ns_per_event", stormShape{shards: 1}},
		{"sim.sleep_sharded_ns_per_event", stormShape{shards: 4}},
		{"sim.sleep_windows_ns_per_event", stormShape{shards: 4, windows: true}},
	} {
		var events int64
		secs := p.timed(func() time.Duration {
			dt, ev := sleepStorm(s.sh, procs, sleeps, 64)
			events = ev
			return dt
		})
		p.out[s.name] = 1e9 * secs / float64(events)
	}
	var events int64
	allocs := mallocsDuring(func() { _, events = sleepStorm(stormShape{shards: 1}, procs, sleeps, 64) })
	p.out["sim.storm_allocs_per_event"] = allocs / float64(events)

	// 32 k sleeping processes: the heap depth of a 4,000-node point.
	deep, deepSleeps := p.n(32000), 8
	secs := p.timed(func() time.Duration {
		dt, ev := sleepStorm(stormShape{shards: 1}, deep, deepSleeps, 4096)
		events = ev
		return dt
	})
	p.out["sim.deep_heap_ns_per_event"] = 1e9 * secs / float64(events)

	// Kernel.After callbacks, 1,024 chains: heap cost without a
	// coroutine switch.
	timers := p.n(400000)
	p.out["sim.after_ns_per_timer"] = p.nsPer(timers, func() time.Duration {
		k := sim.NewKernel(3)
		armed := 0
		var fire func()
		fire = func() {
			if armed < timers {
				armed++
				k.After(time.Duration(100+armed%64), fire)
			}
		}
		for ; armed < 1024 && armed < timers; armed++ {
			k.After(time.Duration(armed), fire)
		}
		t0 := time.Now()
		k.Run()
		return time.Since(t0)
	})

	// 64 processes queueing on a capacity-1 resource.
	uses := p.n(2000)
	p.out["sim.resource_handoff_ns"] = p.nsPer(64*uses, func() time.Duration {
		k := sim.NewKernel(3)
		dev := sim.NewResource(k, "dev", 1)
		for i := 0; i < 64; i++ {
			k.Spawn("user", func(q *sim.Proc) {
				for u := 0; u < uses; u++ {
					dev.UseFor(q, 1, 10*time.Nanosecond)
				}
			})
		}
		t0 := time.Now()
		k.Run()
		dt := time.Since(t0)
		k.Shutdown()
		return dt
	})

	// Two processes ping-ponging over a pair of channels.
	trips := p.n(100000)
	p.out["sim.chan_ns_per_msg"] = p.nsPer(2*trips, func() time.Duration {
		k := sim.NewKernel(3)
		ping := sim.NewChan[int](k, "ping", 1)
		pong := sim.NewChan[int](k, "pong", 1)
		k.Spawn("a", func(q *sim.Proc) {
			for i := 0; i < trips; i++ {
				ping.Send(q, i)
				pong.Recv(q)
			}
			ping.Close()
		})
		k.Spawn("b", func(q *sim.Proc) {
			for {
				v, ok := ping.Recv(q)
				if !ok {
					return
				}
				pong.Send(q, v)
			}
		})
		t0 := time.Now()
		k.Run()
		dt := time.Since(t0)
		k.Shutdown()
		return dt
	})

	// Spawn, run and retire 10 k short processes (a scale point spawns
	// 8 k ranks per pass).
	spawns := p.n(10000)
	p.out["sim.spawn_ns_per_proc"] = p.nsPer(spawns, func() time.Duration {
		t0 := time.Now()
		k := sim.NewKernel(3)
		for i := 0; i < spawns; i++ {
			k.Spawn("short", func(q *sim.Proc) { q.Sleep(time.Nanosecond) })
		}
		k.Run()
		k.Shutdown()
		return time.Since(t0)
	})
}
