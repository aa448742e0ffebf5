package transport

import (
	"errors"
	"testing"
	"time"

	"hpcbd/internal/cluster"
	"hpcbd/internal/sim"
)

func newCluster(seed int64, n int) *cluster.Cluster {
	return cluster.Comet(sim.NewKernel(seed), n)
}

// On a fault-free cluster Send must cost exactly one plain Xfer — the
// guarantee that keeps every pre-transport experiment bit-identical.
func TestFaultFreePassThrough(t *testing.T) {
	const bytes = 1 << 20
	var plain, reliable time.Duration
	{
		c := newCluster(1, 2)
		c.K.Spawn("plain", func(p *sim.Proc) {
			c.Xfer(p, 0, 1, bytes, cluster.IPoIB())
			plain = time.Duration(p.Now())
		})
		c.K.Run()
	}
	{
		c := newCluster(1, 2)
		tr := New(c, cluster.IPoIB(), Config{}, StreamShuffle, 7)
		c.K.Spawn("reliable", func(p *sim.Proc) {
			res, err := tr.Send(p, 0, 1, bytes)
			if err != nil || res.Attempts != 1 || res.Corrupted {
				t.Errorf("fault-free Send: res=%+v err=%v", res, err)
			}
			reliable = time.Duration(p.Now())
		})
		c.K.Run()
	}
	if plain != reliable {
		t.Fatalf("fault-free Send cost %v, plain Xfer cost %v", reliable, plain)
	}
}

// Total loss exhausts the bounded retry ladder and surfaces ErrTimeout
// (or trips the breaker first, which is also a timeout family failure).
func TestTotalLossTimesOut(t *testing.T) {
	c := newCluster(1, 2)
	c.EnableNetFaults(42)
	c.SetMsgLoss(1)
	tr := New(c, cluster.IPoIB(), Config{BreakerThreshold: 100}, StreamShuffle, 7)
	c.K.Spawn("send", func(p *sim.Proc) {
		res, err := tr.Send(p, 0, 1, 4096)
		if !errors.Is(err, ErrTimeout) {
			t.Errorf("want ErrTimeout, got %v", err)
		}
		if want := tr.cfg.MaxRetries + 1; res.Attempts != want {
			t.Errorf("attempts = %d, want %d", res.Attempts, want)
		}
	})
	c.K.Run()
	if tr.Losses == 0 || tr.Timeouts == 0 || tr.Delivered != 0 {
		t.Errorf("stats after total loss: %+v", tr.Stats)
	}
}

// Moderate loss is absorbed by retries: every message is delivered, some
// after retransmission, and two identical runs agree bit-exactly.
func TestLossRetriesDeterministic(t *testing.T) {
	run := func() (Stats, time.Duration) {
		c := newCluster(1, 2)
		c.EnableNetFaults(42)
		c.SetMsgLoss(0.3)
		tr := New(c, cluster.IPoIB(), Config{MaxRetries: 12, BreakerThreshold: 1 << 20}, StreamShuffle, 7)
		var end time.Duration
		c.K.Spawn("send", func(p *sim.Proc) {
			for i := 0; i < 200; i++ {
				if _, err := tr.Send(p, 0, 1, 8192); err != nil {
					t.Errorf("send %d: %v", i, err)
				}
			}
			end = time.Duration(p.Now())
		})
		c.K.Run()
		return tr.Stats, end
	}
	s1, t1 := run()
	s2, t2 := run()
	if s1 != s2 || t1 != t2 {
		t.Fatalf("nondeterministic: %+v @%v vs %+v @%v", s1, t1, s2, t2)
	}
	if s1.Delivered != 200 || s1.Retries == 0 {
		t.Errorf("expected 200 deliveries with retries, got %+v", s1)
	}
	if s1.Duplicates > s1.AckLosses {
		t.Errorf("more duplicates (%d) than lost acks (%d)", s1.Duplicates, s1.AckLosses)
	}
}

// Corruption on a verified flow is dropped and retried — never delivered;
// on an unverified flow it is delivered and flagged.
func TestCorruptionVerifyDiscipline(t *testing.T) {
	c := newCluster(1, 2)
	c.EnableNetFaults(42)
	c.SetMsgCorrupt(1)
	verified := New(c, cluster.IPoIB(), Config{BreakerThreshold: 100}, StreamShuffle, 7)
	raw := New(c, cluster.IPoIB(), Config{NoVerify: true}, StreamDFSBulk, 7)
	c.K.Spawn("send", func(p *sim.Proc) {
		if _, err := verified.Send(p, 0, 1, 4096); !errors.Is(err, ErrTimeout) {
			t.Errorf("verified flow under total corruption: err=%v, want timeout", err)
		}
		res, err := raw.Send(p, 0, 1, 4096)
		if err != nil || !res.Corrupted {
			t.Errorf("unverified flow: res=%+v err=%v, want delivered corrupt", res, err)
		}
	})
	c.K.Run()
	if verified.CorruptDropped == 0 || verified.CorruptDelivered != 0 {
		t.Errorf("verified stats: %+v", verified.Stats)
	}
	if raw.CorruptDelivered != 1 {
		t.Errorf("raw stats: %+v", raw.Stats)
	}
}

// A partition trips the per-peer breaker; while open, calls fast-fail in
// microseconds instead of burning a full retry ladder; after the cut
// heals and the cooldown passes, a half-open probe restores service.
func TestPartitionBreaker(t *testing.T) {
	c := newCluster(1, 4)
	c.EnableNetFaults(42)
	c.SetPartition([][]int{{0, 1, 2}, {3}})
	tr := New(c, cluster.IPoIB(), Config{}, StreamShuffle, 7)
	c.K.Spawn("send", func(p *sim.Proc) {
		if _, err := tr.Send(p, 0, 3, 4096); err == nil {
			t.Error("send across partition succeeded")
		}
		if tr.BreakerTrips != 1 {
			t.Errorf("breaker trips = %d, want 1", tr.BreakerTrips)
		}
		before := time.Duration(p.Now())
		if _, err := tr.Send(p, 0, 3, 4096); !errors.Is(err, ErrCircuitOpen) {
			t.Errorf("want ErrCircuitOpen, got %v", err)
		}
		if cost := time.Duration(p.Now()) - before; cost > time.Millisecond {
			t.Errorf("fast-fail cost %v, want microseconds", cost)
		}
		// Same-side traffic is unaffected by the cut.
		if _, err := tr.Send(p, 0, 2, 4096); err != nil {
			t.Errorf("intra-group send failed: %v", err)
		}
		c.HealPartition()
		// The open-state dwell is jittered up to JitterFrac beyond the
		// cooldown; sleep past the worst case.
		p.Sleep(2 * breakerCooldown)
		if _, err := tr.Send(p, 0, 3, 4096); err != nil {
			t.Errorf("post-heal probe failed: %v", err)
		}
	})
	c.K.Run()
	if tr.FastFails == 0 || tr.PartitionDrops == 0 {
		t.Errorf("stats: %+v", tr.Stats)
	}
	if c.PartitionEpoch() != 1 {
		t.Errorf("partition epoch = %d, want 1", c.PartitionEpoch())
	}
}

// Raising the loss rate can only add lost messages (the fate coins are
// shared), so retry counts are monotone in the rate.
func TestLossMonotoneInRate(t *testing.T) {
	retries := func(rate float64) int64 {
		c := newCluster(1, 2)
		c.EnableNetFaults(42)
		c.SetMsgLoss(rate)
		// A huge breaker threshold isolates the retry ladder from
		// breaker interference at the highest rates.
		tr := New(c, cluster.IPoIB(), Config{BreakerThreshold: 1 << 20}, StreamShuffle, 7)
		c.K.Spawn("send", func(p *sim.Proc) {
			for i := 0; i < 300; i++ {
				tr.Send(p, 0, 1, 8192)
			}
		})
		c.K.Run()
		return tr.Retries
	}
	var prev int64
	for _, rate := range []float64{0, 0.001, 0.01, 0.05, 0.2} {
		r := retries(rate)
		if r < prev {
			t.Errorf("retries at rate %g = %d, below %d at the lower rate", rate, r, prev)
		}
		prev = r
	}
}
