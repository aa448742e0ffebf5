package transport

import (
	"errors"
	"testing"
	"time"

	"hpcbd/internal/cluster"
	"hpcbd/internal/sim"
)

// The breaker's open-state dwell is drawn per trip: breakerCooldown
// stretched by up to JitterFrac of seeded jitter — never shorter, never
// more than the fraction longer — and bit-identical across runs.
func TestBreakerCooldownJitterDeterministic(t *testing.T) {
	trip := func() time.Duration {
		c := newCluster(1, 2)
		c.EnableNetFaults(42)
		c.SetMsgLoss(1)
		tr := New(c, cluster.IPoIB(), Config{BreakerThreshold: 2}, StreamShuffle, 7)
		c.K.Spawn("send", func(p *sim.Proc) {
			tr.Send(p, 0, 1, 4096)
		})
		c.K.Run()
		if tr.BreakerTrips != 1 {
			t.Fatalf("breaker trips = %d, want 1", tr.BreakerTrips)
		}
		return tr.peer(0, 1).cooldown
	}
	cd1, cd2 := trip(), trip()
	if cd1 != cd2 {
		t.Fatalf("cooldown jitter nondeterministic: %v vs %v", cd1, cd2)
	}
	base := breakerCooldown
	lo, hi := base, time.Duration(float64(base)*(1+JitterFrac))
	if cd1 < lo || cd1 > hi {
		t.Fatalf("jittered cooldown %v outside [%v, %v]", cd1, lo, hi)
	}
}

// While a tripped breaker is half-open, exactly one concurrent caller is
// admitted as the probe; everyone else keeps fast-failing until the
// probe resolves.
func TestHalfOpenAdmitsExactlyOneProbe(t *testing.T) {
	c := newCluster(1, 4)
	c.EnableNetFaults(42)
	c.SetPartition([][]int{{0, 1, 2}, {3}})
	tr := New(c, cluster.IPoIB(), Config{}, StreamShuffle, 7)
	var probed, fastFailed int
	c.K.Spawn("driver", func(p *sim.Proc) {
		if _, err := tr.Send(p, 0, 3, 4096); err == nil {
			t.Error("send across partition succeeded")
		}
		c.HealPartition()
		p.Sleep(2 * breakerCooldown) // past the jittered dwell
		for i := 0; i < 3; i++ {
			c.K.Spawn("rival", func(wp *sim.Proc) {
				switch _, err := tr.Send(wp, 0, 3, 1<<16); {
				case err == nil:
					probed++
				case errors.Is(err, ErrCircuitOpen):
					fastFailed++
				default:
					t.Errorf("unexpected error: %v", err)
				}
			})
		}
	})
	c.K.Run()
	if probed != 1 || fastFailed != 2 {
		t.Fatalf("probed=%d fastFailed=%d, want exactly one admitted probe and two fast-fails",
			probed, fastFailed)
	}
}

// On a healthy path the adaptive timeout converges well under the fixed
// ackTimeout grace: lost frames are detected in a fraction of the fixed
// budget instead of a full grace per attempt.
func TestAdaptiveTimeoutTightensOnHealthyPath(t *testing.T) {
	const bytes = 1 << 20
	c := newCluster(1, 3)
	c.EnableNetFaults(42)
	tr := New(c, cluster.IPoIB(), Config{Adaptive: true, BreakerThreshold: 1 << 20}, StreamShuffle, 7)
	c.K.Spawn("send", func(p *sim.Proc) {
		for i := 0; i < 20; i++ {
			if _, err := tr.Send(p, 0, 1+i%2, bytes); err != nil {
				t.Fatalf("send %d: %v", i, err)
			}
		}
		fixed := tr.expected(bytes) + ackTimeout
		if got := tr.timeoutFor(0, 1, bytes); got >= fixed {
			t.Errorf("adaptive timeout %v not tighter than fixed %v", got, fixed)
		}
		if got, min := tr.timeoutFor(0, 1, bytes), tr.expected(bytes)+minAckTimeout; got < min {
			t.Errorf("adaptive timeout %v fell below the floor %v", got, min)
		}
	})
	c.K.Run()
}

// A node whose NIC limps at 8x nominal pace is ejected once enough
// samples accumulate; traffic touching it fast-fails with
// ErrPeerEjected, healthy pairs are unaffected, and after the node
// heals a re-probe past reprobeAfter readmits it.
func TestGrayPeerEjectedAndReprobed(t *testing.T) {
	const bytes = 1 << 20
	const grayNode = 3
	c := newCluster(1, 6)
	c.EnableNetFaults(42)
	tr := New(c, cluster.IPoIB(),
		Config{Adaptive: true, EjectFactor: 4, EjectMinSamples: 8, BreakerThreshold: 1 << 20},
		StreamShuffle, 7)
	c.K.Spawn("driver", func(p *sim.Proc) {
		c.Node(grayNode).SetNICScale(8)
		// Round-robin traffic from node 0 to every other node builds the
		// cluster-median baseline and the gray node's profile together.
		for i := 0; i < 60 && !tr.Ejected(grayNode); i++ {
			tr.Send(p, 0, 1+i%5, bytes)
		}
		if !tr.Ejected(grayNode) {
			t.Fatal("gray node never ejected")
		}
		for n := 0; n < 6; n++ {
			if n != grayNode && tr.Ejected(n) {
				t.Errorf("healthy node %d ejected", n)
			}
		}
		if _, err := tr.Send(p, 0, grayNode, bytes); !errors.Is(err, ErrPeerEjected) {
			t.Errorf("send to ejected peer: err=%v, want ErrPeerEjected", err)
		}
		if _, err := tr.Send(p, 0, 1, bytes); err != nil {
			t.Errorf("healthy pair blocked by the ejection: %v", err)
		}
		// Heal the node; the next admitted probe observes nominal pace,
		// the windowed minimum collapses, and the node is readmitted.
		c.Node(grayNode).SetNICScale(1)
		p.Sleep(reprobeAfter + time.Millisecond)
		if _, err := tr.Send(p, 0, grayNode, bytes); err != nil {
			t.Errorf("re-probe after heal failed: %v", err)
		}
		if tr.Ejected(grayNode) {
			t.Error("healed node still ejected after a successful probe")
		}
	})
	c.K.Run()
	if tr.PeersEjected != 1 || tr.PeersRestored != 1 {
		t.Errorf("ejection stats: ejected=%d restored=%d, want 1/1", tr.PeersEjected, tr.PeersRestored)
	}
}

// A still-sick node is NOT readmitted by its re-probe: probe successes
// at degraded pace keep the windowed minimum high, so the node stays
// out instead of ping-ponging in and back.
func TestStillGrayPeerStaysEjected(t *testing.T) {
	const bytes = 1 << 20
	const grayNode = 3
	c := newCluster(1, 6)
	c.EnableNetFaults(42)
	tr := New(c, cluster.IPoIB(),
		Config{Adaptive: true, EjectFactor: 4, EjectMinSamples: 8, BreakerThreshold: 1 << 20},
		StreamShuffle, 7)
	c.K.Spawn("driver", func(p *sim.Proc) {
		c.Node(grayNode).SetNICScale(8)
		for i := 0; i < 60 && !tr.Ejected(grayNode); i++ {
			tr.Send(p, 0, 1+i%5, bytes)
		}
		if !tr.Ejected(grayNode) {
			t.Fatal("gray node never ejected")
		}
		p.Sleep(reprobeAfter + time.Millisecond)
		if _, err := tr.Send(p, 0, grayNode, bytes); err != nil {
			t.Errorf("probe delivery failed: %v", err)
		}
		if !tr.Ejected(grayNode) {
			t.Error("still-gray node readmitted by a degraded-pace probe")
		}
	})
	c.K.Run()
	if tr.PeersRestored != 0 {
		t.Errorf("restored=%d, want 0 while the node is still gray", tr.PeersRestored)
	}
}

// One budget shared by two transports is one pool: retries on either
// flow drain it, and when it is dry both fail fast with ErrRetryBudget
// instead of climbing their backoff ladders.
func TestRetryBudgetSharedAcrossTransports(t *testing.T) {
	c := newCluster(1, 3)
	c.EnableNetFaults(42)
	c.SetMsgLoss(1)
	bud := NewRetryBudget(0.001, 3) // effectively no refill at test timescales
	mk := func(stream int64) *Transport {
		return New(c, cluster.IPoIB(),
			Config{Budget: bud, MaxRetries: 50, BreakerThreshold: 1 << 20}, stream, 7)
	}
	a, b := mk(StreamShuffle), mk(StreamMapRed)
	c.K.Spawn("send", func(p *sim.Proc) {
		if _, err := a.Send(p, 0, 1, 4096); !errors.Is(err, ErrRetryBudget) {
			t.Errorf("first flow under total loss: err=%v, want ErrRetryBudget", err)
		}
		res, err := b.Send(p, 0, 2, 4096)
		if !errors.Is(err, ErrRetryBudget) {
			t.Errorf("second flow: err=%v, want ErrRetryBudget", err)
		}
		if res.Attempts != 1 {
			t.Errorf("second flow attempts = %d, want 1 (pool already dry)", res.Attempts)
		}
	})
	c.K.Run()
	if a.RetriesBudgeted != 1 || b.RetriesBudgeted != 1 {
		t.Errorf("per-transport denials: a=%d b=%d, want 1 each", a.RetriesBudgeted, b.RetriesBudgeted)
	}
	if bud.Denied != 2 {
		t.Errorf("shared pool denials = %d, want 2", bud.Denied)
	}
	if got := a.Retries; got != 3 {
		t.Errorf("first flow spent %d retries, want the full burst of 3", got)
	}
}

// Hedged sends under loss: the duplicate fires on its own stream after
// the adaptive delay, some duplicates win, every message is delivered,
// and two runs agree bit-exactly.
func TestSendHedgedDeterministicUnderLoss(t *testing.T) {
	run := func() (delivered, hedged, wins int, elapsed time.Duration) {
		c := newCluster(1, 2)
		c.EnableNetFaults(42)
		c.SetMsgLoss(0.5)
		cfg := Config{MaxRetries: 20, BreakerThreshold: 1 << 20}
		pri := New(c, cluster.IPoIB(), cfg, StreamShuffle, 7)
		hed := New(c, cluster.IPoIB(), cfg, StreamShuffleHedge, 7)
		c.K.Spawn("send", func(p *sim.Proc) {
			for i := 0; i < 60; i++ {
				_, h, won, err := pri.SendHedged(p, hed, 0, 1, 1<<16)
				if err != nil {
					t.Errorf("hedged send %d: %v", i, err)
					continue
				}
				delivered++
				if h {
					hedged++
				}
				if won {
					wins++
				}
			}
			elapsed = time.Duration(p.Now())
		})
		c.K.Run()
		return
	}
	d1, h1, w1, t1 := run()
	d2, h2, w2, t2 := run()
	if d1 != d2 || h1 != h2 || w1 != w2 || t1 != t2 {
		t.Fatalf("nondeterministic: (%d,%d,%d,%v) vs (%d,%d,%d,%v)", d1, h1, w1, t1, d2, h2, w2, t2)
	}
	if d1 != 60 {
		t.Errorf("delivered %d of 60", d1)
	}
	if h1 == 0 || w1 == 0 {
		t.Errorf("hedged=%d wins=%d, want both positive at 50%% loss", h1, w1)
	}
	if w1 > h1 {
		t.Errorf("wins %d exceed hedges %d", w1, h1)
	}
}

// On a fault-free fabric SendHedged degenerates to a plain Send: no
// duplicate fires and the cost is identical.
func TestSendHedgedFaultFreePassThrough(t *testing.T) {
	const bytes = 1 << 20
	var plain, hedgedCost time.Duration
	{
		c := newCluster(1, 2)
		tr := New(c, cluster.IPoIB(), Config{}, StreamShuffle, 7)
		c.K.Spawn("plain", func(p *sim.Proc) {
			tr.Send(p, 0, 1, bytes)
			plain = time.Duration(p.Now())
		})
		c.K.Run()
	}
	{
		c := newCluster(1, 2)
		pri := New(c, cluster.IPoIB(), Config{}, StreamShuffle, 7)
		hed := New(c, cluster.IPoIB(), Config{}, StreamShuffleHedge, 7)
		c.K.Spawn("hedged", func(p *sim.Proc) {
			_, h, won, err := pri.SendHedged(p, hed, 0, 1, bytes)
			if err != nil || h || won {
				t.Errorf("fault-free hedged send: hedged=%v won=%v err=%v", h, won, err)
			}
			hedgedCost = time.Duration(p.Now())
		})
		c.K.Run()
	}
	if plain != hedgedCost {
		t.Fatalf("fault-free SendHedged cost %v, plain Send cost %v", hedgedCost, plain)
	}
}

// The hedge trigger is a multiple of the windowed median, so a bimodal
// healthy/gray mix cannot drag it up the way a mean-based trigger
// drifts: with most samples healthy, Delay stays near the healthy mode.
func TestLatencyEstimatorMedianRobustToGrayMix(t *testing.T) {
	var e LatencyEstimator
	for i := 0; i < 48; i++ {
		e.Observe(10 * time.Millisecond)
	}
	for i := 0; i < 12; i++ {
		e.Observe(80 * time.Millisecond) // a gray minority
	}
	d := e.Delay()
	if d != 30*time.Millisecond {
		t.Errorf("Delay = %v, want 3x the 10ms median despite the gray mode", d)
	}
	if e.Samples() != 60 {
		t.Errorf("Samples = %d, want 60", e.Samples())
	}
}

// An estimator still warming up returns zero — callers must not hedge
// on no evidence — and the Floor guards against micro-latency hedging.
func TestLatencyEstimatorWarmupAndFloor(t *testing.T) {
	var e LatencyEstimator
	e.Floor = 5 * time.Millisecond
	e.Observe(time.Microsecond)
	e.Observe(time.Microsecond)
	if d := e.Delay(); d != 0 {
		t.Errorf("Delay during warmup = %v, want 0", d)
	}
	e.Observe(time.Microsecond)
	if d := e.Delay(); d != 5*time.Millisecond {
		t.Errorf("Delay = %v, want the 5ms floor", d)
	}
}
