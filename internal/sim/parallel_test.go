package sim

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"
)

// parStormCfg parameterizes the confined-process storm used by the
// parallel-dispatch identity and property tests.
type parStormCfg struct {
	shards    int
	workers   int
	lookahead time.Duration
	procs     int
	steps     int
	seed      int64
}

// parStorm runs a seeded storm of shard-confined processes — shard-local
// resource contention, confined callbacks, in-window child spawns,
// cross-shard synchronized posts that wake waiters on other shards — and
// returns the committed schedule as text plus the kernel telemetry.
// Every random choice is drawn host-side before Run, so the simulated
// behavior is a pure function of cfg minus cfg.workers; the tests assert
// exactly that.
//
// Recording is partitioned to match the ownership rules of window
// execution: each process appends only to its own log, confined
// callbacks to their shard's log, synchronized callbacks to the global
// log. Confined callbacks record order only (no clock): a callback
// running inside a window has no process to date its observations with.
func parStorm(t *testing.T, cfg parStormCfg) (string, ShardStats) {
	t.Helper()
	k := NewKernel(cfg.seed)
	k.SetShards(cfg.shards)
	k.SetLookahead(cfg.lookahead)
	if cfg.workers > 1 {
		k.SetParallel(cfg.workers)
	}

	// Commit-order audit: committed keys must form a strictly increasing
	// (time, seq) sequence — serial pops and window folds interleaved —
	// at every worker count. (Scenarios here avoid Proc.Serial: a Serial
	// thunk may push events that commit after larger-keyed window
	// commits, which is exactly why it is reserved for commutative
	// end-of-job bookkeeping.)
	last := evKey{}
	audited := false
	k.commitAudit = func(key evKey, window bool) {
		if audited && !last.less(key) {
			t.Errorf("commit order violated: (%v,%d) after (%v,%d) (window=%v)",
				key.t, key.seq, last.t, last.seq, window)
		}
		last, audited = key, true
	}

	la := cfg.lookahead
	procLog := make([][]byte, cfg.procs)
	shardLog := make([][]byte, cfg.shards)
	var syncLog []byte
	syncInWindow := false

	res := make([]*Resource, cfg.shards)
	sigs := make([]*Signal, cfg.shards)
	for i := range res {
		res[i] = NewResource(k, fmt.Sprintf("shard%d.dev", i), 2)
		sigs[i] = NewSignal(k)
	}

	// Pre-drawn randomness: confined code must not touch the kernel RNG.
	rng := rand.New(rand.NewSource(cfg.seed + 1))
	type step struct {
		action int
		d1, d2 time.Duration
	}
	plan := make([][]step, cfg.procs)
	jitter := make([]time.Duration, cfg.procs)
	for i := range plan {
		jitter[i] = time.Duration(rng.Intn(4000)) * time.Nanosecond
		plan[i] = make([]step, cfg.steps)
		for s := range plan[i] {
			plan[i][s] = step{
				action: rng.Intn(5),
				d1:     time.Duration(100+rng.Intn(2500)) * time.Nanosecond,
				d2:     time.Duration(100+rng.Intn(2500)) * time.Nanosecond,
			}
		}
	}

	for i := 0; i < cfg.procs; i++ {
		i := i
		sh := i % cfg.shards
		k.SpawnOnConfined(sh, fmt.Sprintf("storm%d", i), func(p *Proc) {
			rec := func(tag string) {
				procLog[i] = append(procLog[i], fmt.Sprintf("%d %s %s\n", p.Now(), tag, p.Name())...)
			}
			rec("start")
			p.Sleep(jitter[i])
			for s, st := range plan[i] {
				rec("step")
				switch st.action {
				case 0: // shard-local device contention
					res[sh].UseFor(p, 1, st.d1)
				case 1: // confined same-shard callback
					s := s
					p.After(st.d1, func() {
						shardLog[sh] = append(shardLog[sh], fmt.Sprintf("cb %d.%d\n", i, s)...)
					})
					p.Sleep(st.d2)
				case 2: // cross-shard synchronized post, waking that shard's waiters
					dst := (sh + 1) % cfg.shards
					p.AfterOn(dst, la+st.d1, func() {
						if k.inWindow {
							syncInWindow = true
						}
						syncLog = append(syncLog, fmt.Sprintf("%d sync %d.%d\n", k.now, i, s)...)
						sigs[dst].Broadcast()
					})
					p.Sleep(st.d2)
				case 3: // child on the spawner's shard (in-window when parallel)
					s := s
					p.Spawn(fmt.Sprintf("child%d.%d", i, s), func(cp *Proc) {
						cp.Sleep(st.d1)
						procLog[i] = append(procLog[i], fmt.Sprintf("%d child %s\n", cp.Now(), cp.Name())...)
					})
					p.Sleep(st.d2)
				case 4: // park on the shard signal until a cross-shard post fires it
					sigs[sh].Wait(p)
					rec("woke")
				}
			}
			rec("done")
		})
	}

	end := k.Run()
	st := k.ShardStats()
	k.Shutdown()
	if syncInWindow {
		t.Errorf("synchronized callback executed inside a parallel window")
	}

	var b strings.Builder
	fmt.Fprintf(&b, "end=%d events=%d pershard=%v\n", end, st.Events, st.PerShard)
	for i, l := range procLog {
		fmt.Fprintf(&b, "-- proc %d --\n%s", i, l)
	}
	for i, l := range shardLog {
		fmt.Fprintf(&b, "-- shard %d --\n%s", i, l)
	}
	fmt.Fprintf(&b, "-- sync --\n%s", syncLog)
	return b.String(), st
}

// TestParallelIdentityStorm pins the tentpole contract at kernel level:
// the committed schedule — timestamps, interleavings, resource grants,
// callback order, telemetry — is byte-identical between serial dispatch
// and parallel window dispatch at every worker count, and the parallel
// runs actually execute events inside windows.
func TestParallelIdentityStorm(t *testing.T) {
	cfg := parStormCfg{shards: 4, lookahead: 1200 * time.Nanosecond, procs: 16, steps: 8, seed: 42}
	cfg.workers = 1
	ref, rst := parStorm(t, cfg)
	if rst.Windows != 0 || rst.WindowEvents != 0 {
		t.Fatalf("serial run reported windows: %+v", rst)
	}
	for _, wk := range []int{2, 3, 4, 8} {
		cfg.workers = wk
		got, st := parStorm(t, cfg)
		if got != ref {
			t.Errorf("workers=%d: committed schedule differs from serial\n--- serial ---\n%s\n--- workers=%d ---\n%s",
				wk, ref, wk, got)
		}
		if st.Windows == 0 || st.WindowEvents == 0 {
			t.Errorf("workers=%d: no window execution (windows=%d winEvents=%d)", wk, st.Windows, st.WindowEvents)
		}
		if st.Workers != wk {
			t.Errorf("workers=%d: ShardStats.Workers = %d", wk, st.Workers)
		}
		if st.WindowEvents > st.Independent {
			t.Errorf("workers=%d: realized window events %d exceed independence ceiling %d",
				wk, st.WindowEvents, st.Independent)
		}
	}
}

// TestParallelWindowProperty is the seeded property test for the window
// partitioner: across random (lookahead, shards, workers) configurations
// the kernel never commits out of global (time, seq) order (the
// commitAudit inside parStorm), never runs a synchronized event off the
// serial loop, and reproduces the serial schedule exactly.
func TestParallelWindowProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(20160926))
	for trial := 0; trial < 12; trial++ {
		cfg := parStormCfg{
			shards:    2 + rng.Intn(7),
			lookahead: time.Duration(rng.Intn(3000)) * time.Nanosecond,
			procs:     4 + rng.Intn(20),
			steps:     3 + rng.Intn(6),
			seed:      rng.Int63(),
		}
		cfg.workers = 1
		ref, _ := parStorm(t, cfg)
		cfg.workers = 2 + rng.Intn(7)
		got, _ := parStorm(t, cfg)
		if got != ref {
			t.Errorf("trial %d (%+v): parallel schedule differs from serial", trial, cfg)
		}
	}
}

// TestParallelUnshardedNoop: SetParallel on one shard (or without a
// lookahead) must never open a window and must leave results untouched.
// Nor may it on several shards with a lookahead when no process is
// confined: window dispatch is armed but has nothing to run.
func TestParallelUnshardedNoop(t *testing.T) {
	run := func(shards int, la time.Duration, workers int) (Time, int64, ShardStats) {
		k := NewKernel(7)
		k.SetShards(shards)
		k.SetLookahead(la)
		k.SetParallel(workers)
		var sum int64
		for i := 0; i < 6; i++ {
			i := i
			k.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
				for s := 0; s < 4; s++ {
					p.Sleep(time.Duration(50 + i*7))
					sum += int64(i + s)
				}
			})
		}
		end := k.Run()
		st := k.ShardStats()
		k.Shutdown()
		return end, sum, st
	}
	re, rs, _ := run(1, 0, 1)
	for _, c := range []struct {
		shards  int
		la      time.Duration
		workers int
	}{{1, 0, 4}, {1, time.Microsecond, 4}, {2, 0, 4}, {4, time.Microsecond, 4}} {
		ge, gs, st := run(c.shards, c.la, c.workers)
		if ge != re || gs != rs {
			t.Errorf("%+v: end=%v sum=%d, want end=%v sum=%d", c, ge, gs, re, rs)
		}
		if st.Windows != 0 {
			t.Errorf("%+v: opened %d windows, want 0", c, st.Windows)
		}
	}
}

// TestWindowGuardPanics: the classification guards must fire when
// confined code reaches for kernel-global state inside a window.
func TestWindowGuardPanics(t *testing.T) {
	for _, tc := range []struct {
		name string
		want string
		body func(k *Kernel, p *Proc)
	}{
		{"rand", "Rand inside a parallel window", func(k *Kernel, p *Proc) { k.Rand().Int63() }},
		{"spawn", "Kernel.Spawn inside a parallel window", func(k *Kernel, p *Proc) { k.Spawn("x", func(*Proc) {}) }},
		{"after", "inside a parallel window", func(k *Kernel, p *Proc) { k.After(time.Nanosecond, func() {}) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k := NewKernel(1)
			k.SetShards(2)
			k.SetLookahead(time.Millisecond) // huge lookahead: first events run in a window
			k.SetParallel(2)
			defer k.Shutdown()
			for sh := 0; sh < 2; sh++ {
				sh := sh
				k.SpawnOnConfined(sh, fmt.Sprintf("g%d", sh), func(p *Proc) {
					p.Sleep(time.Duration(sh) * time.Nanosecond)
					if sh == 1 {
						tc.body(k, p)
					}
					p.Sleep(time.Nanosecond)
				})
			}
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("no panic; guard did not fire")
				}
				if !strings.Contains(fmt.Sprint(r), tc.want) {
					t.Fatalf("panic %q does not mention %q", r, tc.want)
				}
			}()
			k.Run()
		})
	}
}

// TestInboxShrinkRetention pins the inbox capacity-retention policy: a
// drained inbox keeps its backing array at steady-state sizes and
// releases it after a burst beyond inboxShrinkCap, on both classes.
func TestInboxShrinkRetention(t *testing.T) {
	var s shardQ
	s.init()
	for i := 0; i < 64; i++ {
		s.sinbox = append(s.sinbox, event{t: Time(i), seq: uint64(i)})
	}
	s.drainSync()
	if cap(s.sinbox) == 0 {
		t.Errorf("small synchronized burst: backing array released, want retained")
	}
	if s.smin != maxKey || len(s.sinbox) != 0 {
		t.Errorf("drainSync left state: smin=%v len=%d", s.smin, len(s.sinbox))
	}
	for i := 0; i < inboxShrinkCap+1; i++ {
		s.cinbox = append(s.cinbox, event{t: Time(i), seq: uint64(i)})
	}
	s.drainConf()
	if cap(s.cinbox) != 0 {
		t.Errorf("confined burst past threshold: cap=%d retained, want released", cap(s.cinbox))
	}
	if s.conf.len() != inboxShrinkCap+1 || s.synq.len() != 64 {
		t.Errorf("events lost in drain: conf holds %d, synq holds %d", s.conf.len(), s.synq.len())
	}
	// Steady state after the shrink: the next small burst re-grows and is
	// retained again.
	for i := 0; i < 32; i++ {
		s.cinbox = append(s.cinbox, event{t: Time(i), seq: uint64(i)})
	}
	s.drainConf()
	if cap(s.cinbox) == 0 {
		t.Errorf("post-shrink small burst: backing array released, want retained")
	}
}

// TestInboxShrinkEndToEnd drives a cross-shard burst through a live
// kernel and checks the destination inbox does not pin burst-sized
// capacity after the fold.
func TestInboxShrinkEndToEnd(t *testing.T) {
	k := NewKernel(3)
	k.SetShards(2)
	k.SetLookahead(time.Microsecond)
	const burst = inboxShrinkCap + 500
	var got int
	k.SpawnOn(0, "burster", func(p *Proc) {
		for i := 0; i < burst; i++ {
			k.AfterOn(1, time.Duration(1000+i)*time.Nanosecond, func() { got++ })
		}
		p.Sleep(time.Millisecond)
	})
	k.Run()
	defer k.Shutdown()
	if got != burst {
		t.Fatalf("delivered %d of %d burst events", got, burst)
	}
	if c := cap(k.shards[1].sinbox); c > inboxShrinkCap {
		t.Errorf("destination inbox retains burst capacity %d (> %d)", c, inboxShrinkCap)
	}
}
