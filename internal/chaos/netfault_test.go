package chaos

import (
	"testing"
	"time"

	"hpcbd/internal/cluster"
	"hpcbd/internal/sim"
)

// MTBFNested edge cases: zero rates, single node, and a horizon shorter
// than the first arrival must all yield empty (but non-nil) plans without
// disturbing their siblings.

func TestMTBFNestedZeroRates(t *testing.T) {
	plans := MTBFNested(7, 8, []time.Duration{0, time.Second, 0}, time.Minute, CrashOpts{})
	if len(plans) != 3 {
		t.Fatalf("got %d plans, want 3", len(plans))
	}
	if len(plans[0].Events) != 0 || len(plans[2].Events) != 0 {
		t.Errorf("zero-rate entries got events: %d, %d", len(plans[0].Events), len(plans[2].Events))
	}
	if len(plans[1].Events) == 0 {
		t.Error("positive-rate entry got no events despite a 60x-MTBF horizon")
	}
	// All zero: every plan empty, nothing panics.
	for i, p := range MTBFNested(7, 8, []time.Duration{0, 0}, time.Minute, CrashOpts{}) {
		if p == nil || len(p.Events) != 0 {
			t.Errorf("all-zero plan %d: %v", i, p)
		}
	}
}

func TestMTBFNestedSingleNode(t *testing.T) {
	// One node, not spared: it is the only victim.
	plans := MTBFNested(7, 1, []time.Duration{time.Second}, time.Minute, CrashOpts{})
	if len(plans[0].Events) == 0 {
		t.Fatal("single-node plan empty")
	}
	for _, e := range plans[0].Events {
		if e.Node != 0 {
			t.Errorf("event on node %d in a 1-node cluster", e.Node)
		}
	}
	// One node, spared: no victims remain, plans must be empty.
	spared := MTBFNested(7, 1, []time.Duration{time.Second}, time.Minute, CrashOpts{Spare: []int{0}})
	if len(spared[0].Events) != 0 {
		t.Errorf("spared single node still crashed: %v", spared[0].Events)
	}
}

func TestMTBFNestedShortHorizon(t *testing.T) {
	// With mtbf = 1h and a 1ns horizon, the first exponential arrival
	// (mean 1h) lands far beyond the horizon: no events.
	plans := MTBFNested(7, 8, []time.Duration{time.Hour}, time.Nanosecond, CrashOpts{})
	if len(plans[0].Events) != 0 {
		t.Errorf("events before a 1ns horizon: %v", plans[0].Events)
	}
	// Zero and negative horizons are inert, not panics.
	for _, h := range []time.Duration{0, -time.Second} {
		if got := MTBFNested(7, 8, []time.Duration{time.Second}, h, CrashOpts{}); len(got[0].Events) != 0 {
			t.Errorf("horizon %v produced events", h)
		}
	}
}

// The fabric-level events drive the cluster's message-fault model, and
// the windows close again.
func TestEngineAppliesNetEvents(t *testing.T) {
	k := sim.NewKernel(3)
	c := cluster.Comet(k, 4)
	c.EnableNetFaults(42)
	plan := Script(
		Event{At: 0, Kind: MsgLoss, Factor: 0.05},
		Event{At: 2 * time.Second, Kind: MsgLoss, Factor: 0},
		Event{At: time.Second, Kind: MsgCorrupt, Factor: 0.01},
		Event{At: 3 * time.Second, Kind: MsgCorrupt, Factor: 0},
	)
	plan.Add(Partition([][]int{{0, 1}, {2, 3}}, time.Second, 2*time.Second)...)
	eng := Install(c, plan)
	type snap struct {
		loss, corrupt float64
		reach         bool
	}
	var at1, at4 snap
	k.Spawn("probe", func(p *sim.Proc) {
		p.Sleep(1500 * time.Millisecond)
		at1 = snap{c.MsgLossRate(), c.MsgCorruptRate(), c.Reachable(0, 2)}
		p.Sleep(3 * time.Second)
		at4 = snap{c.MsgLossRate(), c.MsgCorruptRate(), c.Reachable(0, 2)}
	})
	k.Run()
	if at1.loss != 0.05 || at1.corrupt != 0.01 || at1.reach {
		t.Errorf("mid-window state: %+v", at1)
	}
	if at4.loss != 0 || at4.corrupt != 0 || !at4.reach {
		t.Errorf("post-window state: %+v", at4)
	}
	if eng.LossChanges != 2 || eng.CorruptChanges != 2 || eng.Partitions != 1 || eng.Heals != 1 {
		t.Errorf("engine counters: %s", eng.Summary())
	}
	if c.PartitionEpoch() != 1 {
		t.Errorf("partition epoch = %d, want 1", c.PartitionEpoch())
	}
}
