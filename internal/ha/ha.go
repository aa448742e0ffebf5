// Package ha is the control-plane high-availability layer: a
// deterministic replicated metadata journal with lease-based leader
// election. A master runtime (the HDFS namenode, the Spark driver, the
// MapReduce job tracker) appends its metadata mutations to a Group's
// write-ahead log; every append is streamed to the standby candidates
// over the reliable transport before the operation is acknowledged. When
// the leader's node dies, the standbys wait out the lease (the leader
// might merely be slow — exactly the ambiguity real failure detectors
// face), add a seeded election jitter, and the first live candidate in
// preference order seizes leadership after replaying the journal it has
// been receiving. Clients park on AwaitLeader during the window and
// retry against the new leader — the unavailability they observe IS the
// measured recovery time.
//
// Partition tolerance is opt-in and layered on top (Config.Heartbeat,
// Config.Fenced):
//
//   - Quorum journaling: Append commits only once a strict majority of
//     the candidate set (leader included) holds the entry.
//     A failed quorum either deposes the leader (Fenced — the CP
//     choice: refuse the ack you cannot durably replicate) or records
//     the entry as at-risk (unfenced — the split-brain data-loss
//     scenario, counted so the sweep can print it).
//   - Partition-triggered failover: with Heartbeat > 0 the group arms a
//     lease-expiry timer whenever connectivity changes and the leader
//     can no longer assemble a quorum. A leader isolated by a network
//     cut — not just a dead one — loses its lease; the majority side
//     elects.
//   - Epoch fencing: every elected leader carries a monotonic epoch
//     (persisted as a journal record when Fenced). Clients obtain a
//     Lease{Node, Epoch} and every journal append and RPC reply is
//     validated against it, so a deposed leader that was merely
//     partitioned can never ack client operations after a heal.
//
// Everything is deterministic: the election jitter comes from the
// group's own seeded RNG (drawn in kernel event order), candidates are
// scanned in fixed preference order, lease timers are armed by
// partition-change callbacks (no polling processes, so an idle kernel
// still drains), and all costs are virtual-time charges — the same seed
// yields bit-identical failover timings.
package ha

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"hpcbd/internal/cluster"
	"hpcbd/internal/sim"
	"hpcbd/internal/transport"
)

// ErrDeposed is returned by AppendFor when the presented lease no longer
// names an authoritative leader (a newer epoch was elected, the leader is
// recovering, or — Fenced — the append could not assemble a quorum).
// Callers re-fetch a lease with LeaderFor and retry.
var ErrDeposed = errors.New("ha: leader deposed (stale epoch)")

// Lease identifies one leadership term: the node a client should talk to
// and the epoch fencing token it must present with every mutation.
type Lease struct {
	Node  int
	Epoch int64
}

// Config tunes a replication group.
type Config struct {
	// LeaseTimeout is how long after the leader's death standbys wait
	// before starting an election (the lease the dead leader could still
	// be holding). Default 500ms.
	LeaseTimeout time.Duration
	// Fenced selects the CP behavior under failed quorum: the leader
	// steps down instead of acknowledging a write it cannot durably
	// replicate, and every elected epoch is persisted in the journal.
	// Unfenced groups keep acking (split-brain), and the sweep counts
	// the acknowledged entries lost when the stale suffix is truncated.
	Fenced bool
	// Heartbeat enables partition-aware lease monitoring: standbys
	// observe connectivity changes and expire the lease of a leader that
	// cannot assemble a quorum. It also paces client-side leader polling
	// across a cut. Zero disables partition handling entirely, keeping
	// pre-partition runs event-identical.
	Heartbeat time.Duration
	// Retry tunes the reliable transport under journal replication; zero
	// fields take the transport defaults.
	Retry transport.Config
}

func (cfg Config) withDefaults() Config {
	if cfg.LeaseTimeout <= 0 {
		cfg.LeaseTimeout = 500 * time.Millisecond
	}
	return cfg
}

const (
	// entryBytes is the logical wire/disk size of one journal record.
	entryBytes = 256
	// replayBW is the rate, in bytes/s, at which a newly elected leader
	// replays the journal to rebuild master state: 200 MiB/s.
	replayBW = 200 << 20
)

// electionJitter bounds the extra seeded delay a candidate adds before
// seizing leadership (randomized election timeouts prevent split votes;
// here the draw is deterministic): a quarter of the lease.
func (g *Group) electionJitter() int64 { return int64(g.cfg.LeaseTimeout / 4) }

// Group is one replicated master: an ordered candidate list whose first
// live member leads. The zero value is not usable; create with New.
type Group struct {
	c          *cluster.Cluster
	cfg        Config
	name       string
	candidates []int
	tr         *transport.Transport
	rng        *rand.Rand
	quorum     int

	leader     int
	generation int
	epoch      int64
	recovering bool
	waitRevive bool // every candidate dead; election resumes on a revival
	waitQuorum bool // no candidate can assemble a quorum; resumes on a heal
	failedAt   sim.Time
	ready      sim.Signal

	// Split-brain state (unfenced groups only): a deposed-but-alive
	// leader keeps acking on the minority side until the heal. Its
	// at-risk suffix is truncated when the healed cluster observes the
	// newer epoch — unless the claimant is re-elected first.
	stale       bool
	staleLeader int
	staleEpoch  int64
	riskN       int64
	riskUndo    []func()

	journalBytes int64
	onElect      func(p *sim.Proc, leader int)

	// Counters (read after the job, like the chaos engine's).
	Failovers       int
	EntriesLogged   int64
	BytesReplicated int64
	ReplDropped     int64         // entry-replications that never reached a standby
	QuorumFailures  int64         // appends that could not assemble a quorum
	StepDowns       int64         // leaders that lost authority (fenced refusal or truncation)
	LostAcked       int64         // acknowledged entries later truncated (split-brain loss)
	LastRecovery    time.Duration // lease wait + election + replay of the latest failover
	TotalRecovery   time.Duration
}

// New creates a replication group over the candidate nodes (preference
// order; the first candidate is the initial leader). Journal replication
// rides the given fabric on its own transport stream, so its fate coins
// are decorrelated from the data plane's.
func New(c *cluster.Cluster, fabric cluster.FabricSpec, name string, candidates []int, cfg Config, seed int64) *Group {
	if len(candidates) == 0 {
		panic("ha: empty candidate list")
	}
	seen := map[int]bool{}
	uniq := make([]int, 0, len(candidates))
	for _, n := range candidates {
		if n < 0 || n >= c.Size() {
			panic(fmt.Sprintf("ha: candidate %d outside cluster of %d nodes", n, c.Size()))
		}
		if !seen[n] {
			seen[n] = true
			uniq = append(uniq, n)
		}
	}
	g := &Group{
		c: c, cfg: cfg.withDefaults(), name: name, candidates: uniq,
		tr:     transport.New(c, fabric, cfg.Retry, transport.StreamHA, seed),
		rng:    rand.New(rand.NewSource(seed ^ 0x517cc1b727220a95)),
		leader: uniq[0],
		epoch:  1,
	}
	g.quorum = len(uniq)/2 + 1 // a strict majority; the leader counts itself
	c.Watch(func(node int, h cluster.Health) {
		switch h {
		case cluster.Dead:
			if g.stale && node == g.staleLeader {
				// The split-brain claimant died: its unreplicated
				// suffix dies with it.
				g.truncateStale()
			}
			if node == g.leader && !g.recovering {
				g.beginFailover()
			}
		case cluster.Alive:
			if g.recovering && g.waitRevive {
				// A candidate revived while the whole group was dark:
				// restart the election (the revived node must still wait
				// out a lease — it cannot know the old leader is gone).
				g.waitRevive = false
				g.beginFailover()
			} else if g.recovering && g.waitQuorum && g.someEligible() {
				g.waitQuorum = false
				g.beginElection(0)
			}
		}
	})
	if g.cfg.Heartbeat > 0 {
		c.WatchNet(g.netChanged)
	}
	return g
}

// SetOnElect registers extra recovery work to run (and be charged) in
// the election process after journal replay, before the new leader is
// published — e.g. the namenode's datanode block reports.
func (g *Group) SetOnElect(fn func(p *sim.Proc, leader int)) { g.onElect = fn }

// Leader returns the current leader without blocking; during a failover
// it still names the dead one. Use AwaitLeader from simulated processes.
func (g *Group) Leader() int { return g.leader }

// Generation counts leadership changes (0 = the initial leader).
func (g *Group) Generation() int { return g.generation }

// Epoch returns the current leadership epoch (1 = the initial leader;
// every election increments it). The fencing token clients must present.
func (g *Group) Epoch() int64 { return g.epoch }

// Recovering reports whether a failover is in progress.
func (g *Group) Recovering() bool { return g.recovering }

// AwaitLeader blocks until a live leader is published and returns its
// node. Callers re-check after waking: the fresh leader can itself die.
func (g *Group) AwaitLeader(p *sim.Proc) int {
	for g.recovering || !g.c.NodeAlive(g.leader) {
		g.ready.Wait(p)
	}
	return g.leader
}

// LeaderFor returns a lease the client at clientNode can use: normally
// the current leader, but across a partition cut an unfenced split-brain
// claimant reachable from the client is offered instead (that IS the
// split-brain hazard the sweep measures). Without Heartbeat the call is
// exactly AwaitLeader. While a cut separates the client from every
// authority the call polls at Heartbeat pace — a permanent partition
// leaves a CP client unavailable by design; the sweeps always heal.
func (g *Group) LeaderFor(p *sim.Proc, clientNode int) Lease {
	if g.cfg.Heartbeat <= 0 {
		return Lease{Node: g.AwaitLeader(p), Epoch: g.epoch}
	}
	for {
		if !g.recovering && g.c.NodeAlive(g.leader) && g.c.Reachable(clientNode, g.leader) {
			return Lease{Node: g.leader, Epoch: g.epoch}
		}
		if g.stale && g.c.NodeAlive(g.staleLeader) && g.c.Reachable(clientNode, g.staleLeader) {
			return Lease{Node: g.staleLeader, Epoch: g.staleEpoch}
		}
		if !g.c.Partitioned() && g.recovering {
			g.ready.Wait(p)
		} else {
			p.Sleep(g.cfg.Heartbeat)
		}
	}
}

// ValidLease reports whether the lease still names an authority: the
// current leader at the current epoch, or an active split-brain
// claimant. RPC servers check it before replying so a healed client
// rejects a stale-epoch leader.
func (g *Group) ValidLease(l Lease) bool {
	if l.Node == g.leader && l.Epoch == g.epoch && !g.recovering {
		return true
	}
	return g.stale && l.Node == g.staleLeader && l.Epoch == g.staleEpoch
}

// Append journals n metadata records under the current leader's lease.
// See AppendFor.
func (g *Group) Append(p *sim.Proc, n int64) error {
	return g.AppendFor(p, Lease{Node: g.leader, Epoch: g.epoch}, n, nil)
}

// AppendFor journals n metadata records under the given lease: the
// leader streams them to every live standby over the reliable transport
// before the caller proceeds — synchronous replication, charged to the
// committing process. The entry commits only if a strict majority of
// the candidates (the leader included) hold it. A stale lease, a recovering
// group, or — Fenced — a failed quorum returns ErrDeposed without
// acknowledging anything. Unfenced, a quorum-failed entry is still acked
// (the split-brain hazard) but recorded at-risk with the undo closure,
// which runs if the suffix is later truncated.
func (g *Group) AppendFor(p *sim.Proc, l Lease, n int64, undo func()) error {
	if n <= 0 {
		return nil
	}
	cur := l.Node == g.leader && l.Epoch == g.epoch && !g.recovering
	st := g.stale && l.Node == g.staleLeader && l.Epoch == g.staleEpoch
	if (!cur && !st) || !g.c.NodeAlive(l.Node) {
		// Deposed, recovering, or streaming from a dead node: refuse.
		return ErrDeposed
	}
	bytes := n * entryBytes
	acks := 1 // the leader's own copy
	for _, cand := range g.candidates {
		if cand == l.Node {
			continue
		}
		if !g.c.NodeAlive(cand) {
			g.ReplDropped += n
			continue
		}
		if _, err := g.tr.Send(p, l.Node, cand, bytes); err == nil {
			g.BytesReplicated += bytes
			acks++
		} else {
			g.ReplDropped += n
		}
	}
	if acks < g.quorum {
		g.QuorumFailures++
		if g.cfg.Fenced {
			// CP: refuse the ack and surrender the lease rather than
			// commit an entry a failover could lose.
			if cur {
				g.deposeLeader()
			}
			return ErrDeposed
		}
		if g.cfg.Heartbeat > 0 {
			g.riskN += n
			if undo != nil {
				g.riskUndo = append(g.riskUndo, undo)
			}
		}
	}
	g.EntriesLogged += n
	g.journalBytes += bytes
	return nil
}

// reachesQuorum reports whether node n can currently assemble a quorum
// of live, reachable candidates (n counts itself when alive).
func (g *Group) reachesQuorum(n int) bool {
	live := 0
	for _, m := range g.candidates {
		if g.c.NodeAlive(m) && g.c.Reachable(n, m) {
			live++
		}
	}
	return live >= g.quorum
}

func (g *Group) someEligible() bool {
	for _, n := range g.candidates {
		if g.c.NodeAlive(n) && g.reachesQuorum(n) {
			return true
		}
	}
	return false
}

// netChanged runs in kernel context on every partition change (armed via
// cluster.WatchNet when Heartbeat > 0). It is the event-driven
// replacement for a heartbeat polling process: timers are only armed
// when connectivity actually changed, so an idle kernel still drains.
func (g *Group) netChanged() {
	if g.stale && g.c.Reachable(g.staleLeader, g.leader) {
		// The heal lets the claimant observe the newer epoch; one
		// heartbeat later its unreplicated suffix is truncated (unless
		// yet another election or cut intervenes).
		ep := g.epoch
		g.c.K.After(g.cfg.Heartbeat, func() {
			if g.stale && g.epoch == ep && g.c.Reachable(g.staleLeader, g.leader) {
				g.truncateStale()
			}
		})
	}
	if !g.stale && g.riskN > 0 && !g.recovering && g.reachesQuorum(g.leader) {
		// The cut flapped shut before the lease expired: the leader kept
		// its term, so the at-risk backlog catches up to the standbys
		// (the catch-up transfer itself is uncharged — a model
		// simplification) and the entries are committed after all.
		g.riskN = 0
		g.riskUndo = nil
	}
	if g.recovering && g.waitQuorum {
		if g.someEligible() {
			g.waitQuorum = false
			g.beginElection(0)
		}
		return
	}
	if !g.recovering && g.c.NodeAlive(g.leader) && !g.reachesQuorum(g.leader) {
		// The leader just lost its quorum: arm the lease. If the cut
		// outlives the lease (and no election happened meanwhile), the
		// leader is deposed and the quorum side elects.
		ep := g.epoch
		g.c.K.After(g.cfg.LeaseTimeout, func() {
			if !g.recovering && g.epoch == ep && g.c.NodeAlive(g.leader) && !g.reachesQuorum(g.leader) {
				g.deposeLeader()
			}
		})
	}
}

// deposeLeader strips the current leader of authority (kernel or proc
// context): Fenced leaders step down cleanly; unfenced ones keep acking
// on their side of the cut as split-brain claimants until truncated. The
// lease has already been served, so the election starts after jitter
// only.
func (g *Group) deposeLeader() {
	if g.recovering {
		return
	}
	if g.cfg.Fenced {
		g.StepDowns++
	} else {
		g.stale = true
		g.staleLeader = g.leader
		g.staleEpoch = g.epoch
	}
	g.recovering = true
	g.failedAt = g.c.K.Now()
	g.beginElection(0)
}

// beginFailover runs in kernel context (a health-watch callback): the
// leader's node just died. Standbys wait out the lease plus a seeded
// jitter, then elect.
func (g *Group) beginFailover() {
	g.recovering = true
	g.failedAt = g.c.K.Now()
	g.beginElection(g.cfg.LeaseTimeout)
}

// beginElection spawns the election process after the given lease wait
// plus a seeded jitter draw.
func (g *Group) beginElection(lease time.Duration) {
	delay := lease
	if j := g.electionJitter(); j > 0 {
		delay += time.Duration(g.rng.Int63n(j + 1))
	}
	g.c.K.Spawn(fmt.Sprintf("ha.%s.elect", g.name), func(p *sim.Proc) {
		if delay > 0 {
			p.Sleep(delay)
		}
		g.elect(p)
	})
}

// elect promotes the first eligible candidate: alive and — under
// partition monitoring — able to assemble a quorum. It replays the
// journal (and any registered recovery work), then publishes itself and
// wakes every parked client. If no candidate is alive the election
// parks, resumed by the health watcher when one revives; if candidates
// are alive but none can reach a quorum (a symmetric split) it parks
// until a heal re-arms it — no busy-waiting, so a fully dead or fully
// split group leaves the kernel free to drain.
func (g *Group) elect(p *sim.Proc) {
	for retry := 0; ; retry++ {
		if retry > 0 {
			// The previous pick died mid-replay: re-draw the election
			// jitter so back-to-back elections don't collide
			// deterministically at the same instant.
			if j := g.electionJitter(); j > 0 {
				p.Sleep(time.Duration(g.rng.Int63n(j + 1)))
			}
		}
		next, anyAlive := -1, false
		for _, n := range g.candidates {
			if !g.c.NodeAlive(n) {
				continue
			}
			anyAlive = true
			if g.cfg.Heartbeat > 0 && !g.reachesQuorum(n) {
				continue
			}
			next = n
			break
		}
		if next < 0 {
			if anyAlive {
				g.waitQuorum = true
			} else {
				g.waitRevive = true
			}
			return
		}
		if g.journalBytes > 0 {
			p.Sleep(cluster.ScanCost(g.journalBytes, replayBW))
		}
		if g.onElect != nil {
			g.onElect(p, next)
		}
		// The chosen candidate can die during replay; start over.
		if !g.c.NodeAlive(next) {
			continue
		}
		if g.stale && next == g.staleLeader {
			// The deposed claimant reclaims leadership: its acked
			// suffix becomes the committed log — no truncation.
			g.stale = false
			g.riskN = 0
			g.riskUndo = nil
		}
		g.leader = next
		g.generation++
		g.epoch++
		g.Failovers++
		g.LastRecovery = time.Duration(p.Now() - g.failedAt)
		g.TotalRecovery += g.LastRecovery
		g.recovering = false
		g.ready.Broadcast()
		if g.cfg.Fenced {
			g.persistEpoch(p, next)
		}
		if g.stale && g.c.Reachable(g.staleLeader, g.leader) {
			// Elected while the old claimant is already reachable
			// (healed during replay): schedule its truncation.
			ep := g.epoch
			g.c.K.After(g.cfg.Heartbeat, func() {
				if g.stale && g.epoch == ep && g.c.Reachable(g.staleLeader, g.leader) {
					g.truncateStale()
				}
			})
		}
		return
	}
}

// persistEpoch journals the fencing record of a freshly elected leader:
// one entry carrying the new epoch, streamed to the standbys like any
// metadata mutation. Fenced groups only, so unfenced and legacy runs
// stay event-identical.
func (g *Group) persistEpoch(p *sim.Proc, leader int) {
	g.EntriesLogged++
	g.journalBytes += entryBytes
	for _, cand := range g.candidates {
		if cand == leader {
			continue
		}
		if !g.c.NodeAlive(cand) {
			g.ReplDropped++
			continue
		}
		if _, err := g.tr.Send(p, leader, cand, entryBytes); err == nil {
			g.BytesReplicated += entryBytes
		} else {
			g.ReplDropped++
		}
	}
}

// truncateStale discards the split-brain claimant's unreplicated suffix:
// the acknowledged-then-lost entries the paper's CP-vs-AP contrast is
// about. Undo closures run in reverse order to roll the master state
// back to the committed prefix.
func (g *Group) truncateStale() {
	if !g.stale {
		return
	}
	g.stale = false
	g.LostAcked += g.riskN
	g.journalBytes -= g.riskN * entryBytes
	for i := len(g.riskUndo) - 1; i >= 0; i-- {
		g.riskUndo[i]()
	}
	g.riskN = 0
	g.riskUndo = nil
	g.StepDowns++
}
