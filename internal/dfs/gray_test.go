package dfs

import (
	"errors"
	"testing"
	"time"

	"hpcbd/internal/sim"
	"hpcbd/internal/transport"
)

// Blocks created while datanodes are down are born under-replicated
// (placement had fewer live targets than the factor). The namenode
// counts them, and once the nodes come back a recovery-time sweep
// restores every such block to full replication.
func TestBlocksBornUnderReplicatedRepairedOnRecovery(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BlockSize = 1 << 20
	cfg.RereplicationDelay = 50 * time.Millisecond
	k, c, d := setup(4, cfg)
	var underAfterCreate, underAfterRepair int
	var readErr error
	k.Spawn("client", func(p *sim.Proc) {
		c.KillNode(2)
		c.KillNode(3)
		p.Sleep(100 * time.Millisecond) // past the heartbeat timeout
		if err := d.Create(p, 0, "/born-under", 2<<20); err != nil {
			t.Errorf("create during the outage: %v", err)
		}
		c.RestoreNode(2)
		c.RestoreNode(3)
		// The under-replication count clamps its target to the live
		// datanode count (two replicas on a two-datanode cluster is the
		// best possible), so the deficit becomes visible the moment the
		// fleet is back — and before the repair sweep has had any
		// virtual time to run.
		underAfterCreate = d.UnderReplicated()
		p.Sleep(500 * time.Millisecond) // recovery sweep re-replicates
		underAfterRepair = d.UnderReplicated()
		readErr = d.Read(p, 3, "/born-under", 0, 2<<20)
	})
	k.Run()
	if underAfterCreate != 2 {
		t.Errorf("under-replicated after create = %d, want both blocks", underAfterCreate)
	}
	if underAfterRepair != 0 {
		t.Errorf("under-replicated after recovery = %d, want 0", underAfterRepair)
	}
	if d.BlocksRereplicated() < 2 {
		t.Errorf("blocks re-replicated = %d, want >= 2", d.BlocksRereplicated())
	}
	if readErr != nil {
		t.Errorf("read after repair: %v", readErr)
	}
}

// Without HA a permanently dead namenode fails every metadata operation
// closed — ErrUnavailable, not a hang — in bounded virtual time, even
// with the message-fault model armed.
func TestDeadNamenodeFailsClosedBounded(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BlockSize = 1 << 20
	k, c, d := setup(4, cfg)
	c.EnableNetFaults(42)
	var errs [2]error
	var elapsed time.Duration
	k.Spawn("client", func(p *sim.Proc) {
		if err := d.Create(p, 1, "/doomed", 1<<20); err != nil {
			t.Errorf("create before the kill: %v", err)
		}
		c.KillNode(0)
		start := p.Now()
		errs[0] = d.Read(p, 2, "/doomed", 0, 1<<20)
		errs[1] = d.Create(p, 2, "/after", 1<<20)
		elapsed = p.Now().Sub(start)
	})
	k.Run()
	for i, err := range errs {
		if !errors.Is(err, ErrUnavailable) {
			t.Errorf("op %d with the namenode dead: err=%v, want ErrUnavailable", i, err)
		}
	}
	if elapsed > time.Second {
		t.Errorf("fail-closed took %v of virtual time, want bounded well under a second", elapsed)
	}
}

// The namenode RPC backoff ladder is capped: no matter how deep the
// attempt, the pause never exceeds BackoffMax plus its jitter fraction —
// and it is deterministic for a fixed DFS instance history.
func TestNamenodeRPCBackoffCapped(t *testing.T) {
	_, _, d := setup(4, DefaultConfig())
	cap := time.Duration(float64(transport.BackoffMax) * (1 + transport.JitterFrac))
	for _, attempt := range []int{1, 5, 20, 63} {
		if b := d.rpcBackoff(attempt); b <= 0 || b > cap {
			t.Errorf("rpcBackoff(%d) = %v, want in (0, %v]", attempt, b, cap)
		}
	}
}

// A hedged read fires its duplicate at the second replica once the
// primary outlives the adaptive delay learned from recent healthy
// reads, and the duplicate wins when the primary's replica sits on a
// gray node.
func TestHedgedReadBeatsGrayReplica(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BlockSize = 1 << 20
	cfg.Replication = 2
	cfg.Hedge = true
	k, c, d := setup(4, cfg)
	var healthy, gray time.Duration
	k.Spawn("client", func(p *sim.Proc) {
		if err := d.Create(p, 1, "/tail", 1<<20); err != nil {
			t.Fatalf("create: %v", err)
		}
		// Warm the read-latency profile on the healthy cluster; the
		// client on node 3 holds no replica, so every read is remote and
		// served by the placement-preferred replica on node 1.
		t0 := p.Now()
		for i := 0; i < 6; i++ {
			if err := d.Read(p, 3, "/tail", 0, 1<<20); err != nil {
				t.Fatalf("warm read %d: %v", i, err)
			}
		}
		healthy = p.Now().Sub(t0) / 6
		if d.HedgesSent() != 0 {
			t.Errorf("healthy reads fired %d hedges, want 0", d.HedgesSent())
		}
		// Node 1 goes gray: disk and NIC limp at 8x while the node stays
		// alive. The primary branch blows through the hedge delay and the
		// duplicate at the other replica answers first.
		c.Node(1).Scratch.SetScale(8)
		c.Node(1).SetNICScale(8)
		t0 = p.Now()
		for i := 0; i < 6; i++ {
			if err := d.Read(p, 3, "/tail", 0, 1<<20); err != nil {
				t.Fatalf("gray read %d: %v", i, err)
			}
		}
		gray = p.Now().Sub(t0) / 6
	})
	k.Run()
	if d.HedgesSent() == 0 || d.HedgeWins() == 0 {
		t.Fatalf("hedges=%d wins=%d, want both positive against a gray primary",
			d.HedgesSent(), d.HedgeWins())
	}
	// The hedged gray read should cost near one hedge delay plus a
	// healthy read — far under the ~8x a gray-paced stream would take.
	if gray > 4*healthy {
		t.Errorf("hedged gray read averages %v vs healthy %v; hedging saved too little", gray, healthy)
	}
}
