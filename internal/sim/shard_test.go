package sim

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// stormTrace runs a seeded random event storm — procs spread across
// shards sleeping, waking each other through cross-shard After
// deliveries, spawning children — and returns the exact committed
// schedule: one line per event with timestamp and process identity.
func stormTrace(t *testing.T, shards int) (string, ShardStats) {
	t.Helper()
	k := NewKernel(99)
	k.SetShards(shards)
	k.SetLookahead(1200 * time.Nanosecond)
	var log []byte
	record := func(p *Proc, tag string) {
		log = append(log, fmt.Sprintf("%d %s %s#%d\n", p.Now(), tag, p.Name(), p.ID())...)
	}
	const nprocs = 24
	sigs := make([]*Signal, nprocs)
	for i := range sigs {
		sigs[i] = NewSignal(k)
	}
	rng := rand.New(rand.NewSource(7)) // host-side driver, outside the kernel
	for i := 0; i < nprocs; i++ {
		i := i
		sh := i % shards
		jitter := time.Duration(rng.Intn(5000)) * time.Nanosecond
		k.SpawnOn(sh, fmt.Sprintf("storm%d", i), func(p *Proc) {
			p.Sleep(jitter)
			for step := 0; step < 6; step++ {
				record(p, "run")
				// Cross-shard delivery: wake a neighbor after a fabric-like
				// latency, routed to the neighbor's shard.
				nb := (i + 7) % nprocs
				k.AfterOn(nb%shards, 1500*time.Nanosecond, func() { sigs[nb].Broadcast() })
				if step%3 == 0 {
					// Child inherits the spawner's shard.
					k.Spawn(fmt.Sprintf("child%d.%d", i, step), func(cp *Proc) {
						cp.Sleep(300 * time.Nanosecond)
						record(cp, "child")
					})
				}
				if step%2 == 0 {
					sigs[i].Wait(p)
					record(p, "woke")
				} else {
					p.Sleep(time.Duration(1000+i*13) * time.Nanosecond)
				}
			}
		})
	}
	k.Run()
	defer k.Shutdown()
	return string(log), k.ShardStats()
}

// TestShardInvarianceStorm asserts the committed schedule — timestamps,
// process identities, interleavings — is bit-identical at every shard
// count. This is the kernel-level determinism contract: shard counts
// change the queue layout, never the event order.
func TestShardInvarianceStorm(t *testing.T) {
	ref, _ := stormTrace(t, 1)
	for _, n := range []int{2, 3, 4, 8} {
		got, st := stormTrace(t, n)
		if got != ref {
			t.Fatalf("schedule at shards=%d differs from the one-shard schedule", n)
		}
		if st.Shards != n {
			t.Fatalf("ShardStats.Shards = %d, want %d", st.Shards, n)
		}
		if st.Cross == 0 {
			t.Errorf("shards=%d: expected cross-shard inbox traffic, got none", n)
		}
		if st.Events == 0 || st.Independent > st.Events {
			t.Errorf("shards=%d: bad telemetry: %+v", n, st)
		}
	}
}

// TestShardRNGDrawOrder asserts kernel RNG draws happen in the same
// order at every shard count: processes on different shards draw
// interleaved by event order, and the resulting values must match the
// one-shard run exactly.
func TestShardRNGDrawOrder(t *testing.T) {
	draws := func(shards int) []int64 {
		k := NewKernel(123)
		k.SetShards(shards)
		var out []int64
		for i := 0; i < 8; i++ {
			i := i
			k.SpawnOn(i%shards, fmt.Sprintf("rng%d", i), func(p *Proc) {
				for s := 0; s < 5; s++ {
					p.Sleep(time.Duration(100 + i*17))
					out = append(out, k.Rand().Int63())
				}
			})
		}
		k.Run()
		defer k.Shutdown()
		return out
	}
	ref := draws(1)
	for _, n := range []int{2, 4} {
		got := draws(n)
		if len(got) != len(ref) {
			t.Fatalf("shards=%d: %d draws, want %d", n, len(got), len(ref))
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("shards=%d: RNG draw %d = %d, want %d", n, i, got[i], ref[i])
			}
		}
	}
}

// TestSetShardsRebuckets verifies SetShards re-buckets events that were
// queued before the call (root spawns), including back down to one
// shard.
func TestSetShardsRebuckets(t *testing.T) {
	k := NewKernel(1)
	var order []int
	for i := 0; i < 6; i++ {
		i := i
		k.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			p.Sleep(time.Duration(10 * (6 - i)))
			order = append(order, i)
		})
	}
	k.SetShards(3) // events already queued: must re-bucket, not lose them
	if k.Shards() != 3 {
		t.Fatalf("Shards() = %d", k.Shards())
	}
	k.SetShards(4) // shard-to-shard rebucket
	k.SetShards(1) // and back to one shard
	if k.Shards() != 1 {
		t.Fatalf("Shards() = %d", k.Shards())
	}
	k.SetShards(4)
	k.Run()
	defer k.Shutdown()
	want := []int{5, 4, 3, 2, 1, 0}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// TestShardLookaheadTelemetry checks the independence accounting: two
// shards whose events are far apart in virtual time relative to the
// lookahead should commit (almost) everything independently; with zero
// lookahead and interleaved timestamps, independence collapses.
func TestShardLookaheadTelemetry(t *testing.T) {
	run := func(lookahead time.Duration, gap time.Duration) ShardStats {
		k := NewKernel(5)
		k.SetShards(2)
		k.SetLookahead(lookahead)
		for i := 0; i < 2; i++ {
			i := i
			k.SpawnOn(i, fmt.Sprintf("lp%d", i), func(p *Proc) {
				for s := 0; s < 50; s++ {
					p.Sleep(gap)
				}
			})
		}
		k.Run()
		defer k.Shutdown()
		return k.ShardStats()
	}
	wide := run(10*time.Microsecond, 1*time.Nanosecond)
	if frac := float64(wide.Independent) / float64(wide.Events); frac < 0.9 {
		t.Errorf("wide lookahead: independence %.2f, want >= 0.9 (%+v)", frac, wide)
	}
	// Lockstep shards with zero lookahead: at each timestamp the
	// earlier-seq commit waits on its neighbor (runner-up key at the
	// same instant), and the later one is free only because the
	// neighbor already advanced — alternation pins independence at
	// one half, far below the wide-lookahead run.
	tight := run(0, 1*time.Nanosecond)
	if frac := float64(tight.Independent) / float64(tight.Events); frac > 0.6 {
		t.Errorf("zero lookahead: independence %.2f, want <= 0.6 (%+v)", frac, tight)
	}
}

// TestSetShardsAfterRunPanics locks the API contract.
func TestSetShardsAfterRunPanics(t *testing.T) {
	k := NewKernel(1)
	k.Spawn("p", func(p *Proc) {})
	k.Run()
	defer k.Shutdown()
	defer func() {
		if recover() == nil {
			t.Fatal("SetShards after Run did not panic")
		}
	}()
	k.SetShards(2)
}

// BenchmarkShardedStorm measures four shards against one on a pure
// event storm (no payloads), the kernel's hot path.
func BenchmarkShardedStorm(b *testing.B) {
	for _, shards := range []int{1, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				k := NewKernel(3)
				k.SetShards(shards)
				for p := 0; p < 64; p++ {
					p := p
					k.SpawnOn(p%shards, fmt.Sprintf("b%d", p), func(pr *Proc) {
						for s := 0; s < 2000; s++ {
							pr.Sleep(time.Duration(50 + p))
						}
					})
				}
				k.Run()
				k.Shutdown()
			}
		})
	}
}
