// Package transport is a reliable-delivery layer over the simulated
// cluster fabrics — the piece of the Big Data stacks the paper's §VI-D
// resilience story quietly depends on. Netty-era shuffle services and
// HDFS data streams run over TCP, which turns a lossy, occasionally
// partitioned network into either delivered-intact bytes or a clean
// error; MPI's verbs transport assumes a lossless fabric and offers no
// such contract. This package models the TCP-ish contract explicitly:
//
//   - per-message delivery timeouts sized from the fabric's expected
//     round trip;
//   - bounded retries with exponential backoff and deterministic,
//     seeded jitter, all on the sim clock;
//   - duplicate suppression by per-flow sequence number (a retry whose
//     original did arrive is detected and dropped at the receiver);
//   - optional CRC verification: corrupt frames are dropped and resent,
//     so no corrupt byte is ever delivered on a verified flow;
//   - a per-peer circuit breaker that trips to fast-fail after repeated
//     timeouts and half-opens on a single probe — the guard that keeps a
//     partition from stalling every caller for a full retry ladder.
//
// On a fault-free cluster (cluster.NetFaultsEnabled() == false) Send
// degenerates to exactly one plain Xfer: acks piggyback, no timer fires,
// and every fault-free experiment in the repository stays bit-identical.
package transport

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"hpcbd/internal/cluster"
	"hpcbd/internal/sim"
)

// Stream identifiers decorrelate the fate-coin streams of the subsystems
// sharing one cluster: the same (src, dst, seq) on different streams are
// independent messages.
const (
	StreamDFSMeta int64 = 1 // namenode RPCs + verified block reads
	StreamDFSBulk int64 = 2 // write-pipeline block streams
	StreamShuffle int64 = 3 // rdd shuffle fetches
	StreamMapRed  int64 = 4 // mapred reduce-side fetches
	StreamMPI     int64 = 5 // mpi point-to-point (used by package mpi)
	StreamHA      int64 = 6 // control-plane journal replication (package ha)

	// Hedge streams carry the duplicate transfers of hedged fetches.
	// Separate ids give hedges independent fate coins, so a hedge can
	// win exactly when the primary's copy met a loss burst.
	StreamShuffleHedge int64 = 7 // rdd hedged shuffle fetches
	StreamMapRedHedge  int64 = 8 // mapred hedged reduce fetches
)

// ackBytes is the wire size of a delivery acknowledgement.
const ackBytes = 32

// Errors returned by Send.
var (
	// ErrTimeout: every transmission attempt timed out.
	ErrTimeout = errors.New("transport: delivery timed out")
	// ErrCircuitOpen: the per-peer breaker is open (or its half-open
	// probe is already in flight) and the call fast-failed locally.
	ErrCircuitOpen = errors.New("transport: circuit breaker open")
	// ErrPeerEjected: an endpoint of the call is ejected as a latency
	// outlier (a gray node) and the call fast-failed locally.
	ErrPeerEjected = errors.New("transport: peer ejected as latency outlier")
	// ErrRetryBudget: the shared retry budget is exhausted; the call
	// failed fast instead of amplifying a fault into a retry storm.
	ErrRetryBudget = errors.New("transport: retry budget exhausted")
)

// Timing of every Transport.
const (
	// ackTimeout is the grace allowed beyond the expected transfer round
	// trip before an attempt is declared lost.
	ackTimeout = 2 * time.Millisecond
	// minAckTimeout floors the adaptive grace (Config.Adaptive).
	minAckTimeout = 200 * time.Microsecond
	// BackoffBase/BackoffMax shape the exponential backoff between
	// attempts; JitterFrac adds up to that fraction of seeded jitter so
	// synchronized senders decorrelate (deterministically). The dfs RPC
	// ladder uses the same three.
	BackoffBase = time.Millisecond
	BackoffMax  = 64 * time.Millisecond
	JitterFrac  = 0.2
	// breakerCooldown is how long a tripped breaker stays open before one
	// probe half-opens it, stretched by up to JitterFrac of seeded jitter
	// so peers tripped by the same event don't half-open in lockstep.
	breakerCooldown = 50 * time.Millisecond
	// fastFailCost is the local cost of a fast-failed call (an
	// EHOSTUNREACH, essentially).
	fastFailCost = 10 * time.Microsecond
	// reprobeAfter is how long an ejected node stays ejected before a
	// single probe is re-admitted (Config.EjectFactor).
	reprobeAfter = 200 * time.Millisecond
)

// Config tunes a Transport. Zero fields take the defaults below.
type Config struct {
	// MaxRetries bounds re-transmissions after the first attempt.
	MaxRetries int
	// NoVerify disables receiver-side CRC checking. Verified flows (the
	// default) drop corrupt frames and retry them, so no corrupt byte is
	// ever delivered. Flows that carry their own end-to-end checksums
	// (the DFS write pipeline) set NoVerify and inspect Result.Corrupted
	// themselves.
	NoVerify bool
	// BreakerThreshold consecutive timeouts to one peer trip its breaker;
	// breakerCooldown later one probe half-opens it.
	BreakerThreshold int

	// Gray-failure mitigations. All are opt-in: with Adaptive false,
	// EjectFactor zero and Budget nil, Send behaves exactly as before.

	// Adaptive enables deterministic per-node latency tracking: an EWMA +
	// deviation estimate of the observed delivery stretch (attempt time
	// over the fabric's expected time, on the sim clock) drives the
	// per-attempt timeout in place of the fixed ackTimeout grace. Healthy
	// peers converge to a grace near minAckTimeout, so lost frames are
	// detected in a fraction of the fixed budget; slow-but-alive peers
	// earn proportionally longer deadlines instead of spurious ladders.
	Adaptive bool
	// EjectFactor k ejects a node whose stretch estimate exceeds k× the
	// cluster-wide median, after EjectMinSamples observations (default 8);
	// calls touching an ejected node fast-fail with ErrPeerEjected until
	// reprobeAfter, when a single probe is re-admitted.
	// Zero disables ejection. At most a third of tracked nodes are ever
	// ejected at once, so mitigations cannot starve the cluster.
	EjectFactor     float64
	EjectMinSamples int
	// Budget, when set, is a (typically shared) token bucket charged one
	// token per retransmission. When it runs dry, Send fails fast with
	// ErrRetryBudget instead of climbing the backoff ladder — a gray
	// burst degrades to fail-fast, not to a cluster-wide retry storm.
	Budget *RetryBudget
}

// DefaultConfig returns the shuffle-service-flavored defaults.
func DefaultConfig() Config {
	return Config{
		MaxRetries:       6,
		BreakerThreshold: 4,
	}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.MaxRetries <= 0 {
		c.MaxRetries = d.MaxRetries
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = d.BreakerThreshold
	}
	if c.EjectMinSamples <= 0 {
		c.EjectMinSamples = 8
	}
	return c
}

// Stats counts what a transport did. All fields are cumulative.
type Stats struct {
	Sent       int64 // logical messages submitted
	Delivered  int64 // messages acknowledged delivered
	Retries    int64 // re-transmission attempts
	Timeouts   int64 // attempts that timed out (lost data or lost ack)
	Losses     int64 // data frames the network ate
	AckLosses  int64 // delivered frames whose ack was lost (duplicate risk)
	Duplicates int64 // retransmissions the receiver recognized and dropped

	CorruptDropped   int64 // corrupt frames caught by Verify and discarded
	CorruptDelivered int64 // corrupt frames delivered on unverified flows

	PartitionDrops int64 // attempts swallowed by a network partition
	BreakerTrips   int64 // breaker transitions to open
	FastFails      int64 // calls rejected locally (breaker open or peer ejected)

	PeersEjected    int64 // nodes ejected as latency outliers
	PeersRestored   int64 // ejected nodes readmitted by a successful probe
	RetriesBudgeted int64 // retries refused because the shared budget ran dry
}

// Result reports one successful Send.
type Result struct {
	Attempts  int
	Corrupted bool // unverified flow delivered a corrupt frame
}

type breakerState int

const (
	breakerClosed breakerState = iota
	breakerOpen
	breakerHalfOpen
)

// peerState is the per-directed-pair reliability state: breaker on the
// sender side, delivered-sequence set on the receiver side.
type peerState struct {
	state    breakerState
	fails    int // consecutive timed-out attempts
	openedAt sim.Time
	cooldown time.Duration // jittered open-state dwell, drawn at trip time
	probing  bool

	delivered map[int64]bool // accepted seq -> that copy was corrupt
}

// nodeLat is the per-node latency profile behind adaptive timeouts and
// outlier ejection. Stretch is the dimensionless ratio of observed
// attempt time to the fabric's expected time; both endpoints of every
// observed attempt are charged, so a gray node's profile climbs no
// matter which direction its traffic flows.
// minWindow is how many recent stretch samples back a node's windowed
// minimum. The minimum is the gray-failure discriminator: congestion
// queueing inflates most samples on every node, but a healthy node's
// best recent transfer still runs at ~1x nominal pace, while a node
// with a limping NIC or disk has a hard floor at its degradation
// factor (the same min-filter idea BBR uses for RTT).
const minWindow = 32

type nodeLat struct {
	srtt    float64 // EWMA of observed stretch
	dev     float64 // EWMA of |stretch - srtt|
	samples int

	win     [minWindow]float64 // ring of recent stretch samples
	winNext int

	ejected   bool
	ejectedAt sim.Time
	probing   bool // one re-probe in flight
}

// minStretch returns the smallest stretch in the window.
func (l *nodeLat) minStretch() float64 {
	n := l.samples
	if n > minWindow {
		n = minWindow
	}
	if n == 0 {
		return 0
	}
	m := l.win[0]
	for _, v := range l.win[1:n] {
		if v < m {
			m = v
		}
	}
	return m
}

// Transport is one reliable channel configuration over a cluster fabric.
// Create one per subsystem with New; it is not safe for concurrent use
// outside the sim kernel's one-process-at-a-time discipline.
type Transport struct {
	c      *cluster.Cluster
	fabric cluster.FabricSpec
	cfg    Config
	stream int64
	rng    *rand.Rand
	peers  map[[2]int]*peerState
	lat    map[int]*nodeLat

	Stats
}

// New creates a transport speaking fabric f on stream id stream, with
// jitter drawn from the given seed.
func New(c *cluster.Cluster, f cluster.FabricSpec, cfg Config, stream, seed int64) *Transport {
	return &Transport{
		c: c, fabric: f, cfg: cfg.withDefaults(), stream: stream,
		rng:   rand.New(rand.NewSource(seed ^ stream)),
		peers: map[[2]int]*peerState{},
		lat:   map[int]*nodeLat{},
	}
}

func (t *Transport) peer(src, dst int) *peerState {
	k := [2]int{src, dst}
	p := t.peers[k]
	if p == nil {
		p = &peerState{delivered: map[int64]bool{}}
		t.peers[k] = p
	}
	return p
}

// adaptiveWarmup is how many observations a node needs before its
// profile is trusted for timeouts or the cluster median.
const adaptiveWarmup = 3

func (t *Transport) latFor(node int) *nodeLat {
	l := t.lat[node]
	if l == nil {
		l = &nodeLat{}
		t.lat[node] = l
	}
	return l
}

// expected returns the fabric's nominal data + ack round trip.
func (t *Transport) expected(bytes int64) time.Duration {
	return t.fabric.TransferTime(bytes) + t.fabric.TransferTime(ackBytes)
}

// occupied returns the occupancy (pace-dependent) part of the round
// trip — the only component a degraded NIC or chaos stretch scales.
func (t *Transport) occupied(bytes int64) time.Duration {
	return t.fabric.Occupancy(bytes) + t.fabric.Occupancy(ackBytes)
}

// minObservableOcc is the smallest occupancy worth profiling: below it
// (tiny control RPCs) the fixed latency and overhead terms swamp any
// pace signal and the sample would just be noise around 1.
const minObservableOcc = time.Microsecond

// timeoutFor returns the per-attempt delivery deadline for a src→dst
// transfer. Fixed mode: expected round trip plus the ackTimeout grace.
// Adaptive mode: the occupancy part of the trip is scaled by the slower
// endpoint's smoothed pace estimate (fixed latency terms don't stretch
// on a slow NIC), plus a deviation-scaled grace clamped between
// minAckTimeout and ackTimeout — tight on healthy paths (fast loss
// detection), honest on slow-but-alive ones (no spurious ladders).
func (t *Transport) timeoutFor(src, dst int, bytes int64) time.Duration {
	exp := t.expected(bytes)
	if !t.cfg.Adaptive {
		return exp + ackTimeout
	}
	stretch, dev := 1.0, 0.0
	for _, l := range [2]*nodeLat{t.latFor(src), t.latFor(dst)} {
		if l.samples >= adaptiveWarmup && l.srtt > stretch {
			stretch, dev = l.srtt, l.dev
		}
	}
	if stretch == 1 && t.latFor(src).samples < adaptiveWarmup && t.latFor(dst).samples < adaptiveWarmup {
		return exp + ackTimeout
	}
	occ := float64(t.occupied(bytes))
	grace := time.Duration(4 * dev * occ)
	if grace < minAckTimeout {
		grace = minAckTimeout
	}
	if grace > ackTimeout {
		grace = ackTimeout
	}
	return exp + time.Duration((stretch-1)*occ) + grace
}

// observe folds one finished attempt into both endpoints' profiles
// (Jacobson-Karels style EWMAs over the pace stretch) and runs the
// ejection check. The stretch is measured over the occupancy component
// only — (observed - fixed terms) / nominal occupancy — so a gray NIC
// running at 1/k pace reads as k even on transfers small enough that
// latency constants would otherwise dilute it below any threshold.
func (t *Transport) observe(now sim.Time, src, dst int, obs, exp, occ time.Duration) {
	if !t.cfg.Adaptive || occ < minObservableOcc {
		return
	}
	r := float64(obs-(exp-occ)) / float64(occ)
	if r < 1 {
		r = 1 // timer precision; a transfer can't beat nominal pace
	}
	for _, node := range [2]int{src, dst} {
		l := t.latFor(node)
		if l.samples == 0 {
			l.srtt, l.dev = r, r/2
		} else {
			d := r - l.srtt
			if d < 0 {
				d = -d
			}
			l.dev += (d - l.dev) / 4
			l.srtt += (r - l.srtt) / 8
		}
		l.win[l.winNext] = r
		l.winNext = (l.winNext + 1) % minWindow
		l.samples++
		t.maybeEject(now, node)
	}
}

// medianStretch returns the median smoothed stretch across warmed-up
// nodes, and how many contributed. Values are sorted, so the result is
// independent of map iteration order.
func (t *Transport) medianStretch() (float64, int) {
	vals := make([]float64, 0, len(t.lat))
	for _, l := range t.lat {
		if l.samples >= adaptiveWarmup {
			vals = append(vals, l.srtt)
		}
	}
	if len(vals) == 0 {
		return 0, 0
	}
	sort.Float64s(vals)
	n := len(vals)
	if n%2 == 1 {
		return vals[n/2], n
	}
	return (vals[n/2-1] + vals[n/2]) / 2, n
}

// medianMinStretch is medianStretch over the windowed minimums — the
// congestion-immune baseline the ejection rule compares against.
func (t *Transport) medianMinStretch() (float64, int) {
	vals := make([]float64, 0, len(t.lat))
	for _, l := range t.lat {
		if l.samples >= adaptiveWarmup {
			vals = append(vals, l.minStretch())
		}
	}
	if len(vals) == 0 {
		return 0, 0
	}
	sort.Float64s(vals)
	n := len(vals)
	if n%2 == 1 {
		return vals[n/2], n
	}
	return (vals[n/2-1] + vals[n/2]) / 2, n
}

// maybeEject ejects node if its windowed-minimum stretch stands out k×
// above the cluster median of minimums — the deterministic
// outlier-ejection rule. Minimums, not means: under fan-in bursts every
// node's mean stretch balloons with queueing, but only a genuinely
// degraded node has a floor above nominal pace, so the rule stays quiet
// on busy-but-healthy clusters. A cap of one third of tracked nodes
// keeps mitigation from starving the cluster.
func (t *Transport) maybeEject(now sim.Time, node int) {
	k := t.cfg.EjectFactor
	l := t.latFor(node)
	if k <= 0 || l.ejected || l.samples < t.cfg.EjectMinSamples {
		return
	}
	med, n := t.medianMinStretch()
	if n < 3 || med <= 0 || l.minStretch() <= k*med {
		return
	}
	ejected := 0
	for _, o := range t.lat {
		if o.ejected {
			ejected++
		}
	}
	if 3*(ejected+1) > len(t.lat) {
		return
	}
	l.ejected = true
	l.ejectedAt = now
	t.PeersEjected++
}

// reconsider re-evaluates an ejected endpoint after a probe: a profile
// back under the threshold readmits the node, anything else re-arms the
// ejection clock. Probe successes still at degraded pace keep the
// windowed minimum high, so a still-gray node stays out instead of
// ping-ponging in and back.
func (t *Transport) reconsider(now sim.Time, node int) {
	l := t.latFor(node)
	if !l.ejected {
		return
	}
	med, n := t.medianMinStretch()
	if n >= 3 && med > 0 && l.minStretch() <= t.cfg.EjectFactor*med {
		l.ejected = false
		t.PeersRestored++
		return
	}
	l.ejectedAt = now
}

// Ejected reports whether node is currently ejected as a latency
// outlier. Hedging layers use it to steer requests away before paying a
// fast-fail.
func (t *Transport) Ejected(node int) bool {
	l := t.lat[node]
	return l != nil && l.ejected
}

// HedgeDelay returns the adaptive wait before firing a hedge for a
// transfer of bytes: a comfortably-high percentile of the cluster's
// current normal delivery time. A healthy primary answers well inside
// it; a gray one does not, and the hedge fires.
func (t *Transport) HedgeDelay(bytes int64) time.Duration {
	exp := t.expected(bytes)
	med, n := t.medianStretch()
	if !t.cfg.Adaptive || n < 3 || med < 1 {
		med = 1
	}
	// 3x the median-pace delivery time sits near the top of the healthy
	// distribution even under fan-in queueing (where a transfer can wait
	// a couple of service times behind its peers), so healthy transfers
	// essentially never hedge — while a gray endpoint, several times
	// slower still, remains far outside it. The median pace scales only
	// the occupancy component, mirroring how a slow NIC actually pays.
	d := 3 * (exp + time.Duration((med-1)*float64(t.occupied(bytes))))
	if min := exp + minAckTimeout; d < min {
		d = min
	}
	return d
}

// backoff returns the pause before retry `attempt` (1-based), with
// deterministic jitter.
func (t *Transport) backoff(attempt int) time.Duration {
	d := BackoffBase << uint(attempt-1)
	if d > BackoffMax || d <= 0 {
		d = BackoffMax
	}
	return time.Duration(float64(d) * (1 + JitterFrac*t.rng.Float64()))
}

// jitteredCooldown draws one breaker trip's open-state dwell:
// breakerCooldown stretched by up to JitterFrac of seeded jitter, so
// peers tripped by the same fault don't all half-open in lockstep.
func (t *Transport) jitteredCooldown() time.Duration {
	return time.Duration(float64(breakerCooldown) * (1 + JitterFrac*t.rng.Float64()))
}

// sleepRemainder sleeps p to `start + timeout` — the point where the
// sender's retransmission timer fires.
func sleepRemainder(p *sim.Proc, start sim.Time, timeout time.Duration) {
	if d := timeout - p.Now().Sub(start); d > 0 {
		p.Sleep(d)
	}
}

// Send moves bytes from src to dst with at-least-once delivery and
// duplicate suppression: it returns nil exactly when the receiver
// acknowledged one accepted copy. On error the message may or may not
// have arrived (the classic two-generals residue); callers treat errors
// as failure and recover at their own layer (lineage recompute, replica
// failover, task retry).
func (t *Transport) Send(p *sim.Proc, src, dst int, bytes int64) (Result, error) {
	if !t.c.NetFaultsEnabled() || src == dst {
		// Perfect fabric (or loopback): the reliability machinery is pure
		// bookkeeping — acks piggyback, no timer ever fires — so the cost
		// is exactly one plain transfer.
		t.c.Xfer(p, src, dst, bytes, t.fabric)
		t.Sent++
		t.Delivered++
		return Result{Attempts: 1}, nil
	}

	// Outlier-ejection gate: a call touching an ejected endpoint fails
	// fast until the re-probe window opens, then exactly one probe is
	// admitted (everyone else keeps fast-failing until it resolves).
	var probeNodes []*nodeLat
	defer func() {
		for _, l := range probeNodes {
			l.probing = false
		}
	}()
	for _, node := range [2]int{src, dst} {
		l := t.lat[node]
		if l == nil || !l.ejected {
			continue
		}
		if p.Now().Sub(l.ejectedAt) < reprobeAfter || l.probing {
			t.FastFails++
			p.Sleep(fastFailCost)
			return Result{}, fmt.Errorf("%w: node %d -> node %d (node %d)", ErrPeerEjected, src, dst, node)
		}
		l.probing = true
		probeNodes = append(probeNodes, l)
	}

	pr := t.peer(src, dst)
	switch pr.state {
	case breakerOpen:
		cooldown := pr.cooldown
		if cooldown <= 0 {
			cooldown = breakerCooldown
		}
		if p.Now().Sub(pr.openedAt) < cooldown {
			t.FastFails++
			p.Sleep(fastFailCost)
			return Result{}, fmt.Errorf("%w: node %d -> node %d", ErrCircuitOpen, src, dst)
		}
		pr.state = breakerHalfOpen
		pr.probing = false
	}
	if pr.state == breakerHalfOpen {
		if pr.probing {
			t.FastFails++
			p.Sleep(fastFailCost)
			return Result{}, fmt.Errorf("%w: node %d -> node %d (probe in flight)", ErrCircuitOpen, src, dst)
		}
		pr.probing = true
		defer func() { pr.probing = false }()
	}

	seq := t.c.NextMsgSeq(t.stream, src, dst)
	timeout := t.timeoutFor(src, dst, bytes)
	exp := t.expected(bytes)
	occ := t.occupied(bytes)
	t.Sent++
	var res Result
	for attempt := 0; ; attempt++ {
		res.Attempts++
		if attempt > 0 {
			t.Retries++
		}
		attemptStart := p.Now()
		ok, corrupted := t.attempt(p, pr, src, dst, bytes, seq, attempt, timeout)
		if ok {
			// Karn's rule: only acknowledged attempts feed the latency
			// profiles. A timed-out attempt's duration is the timer value,
			// not the path — folding it in would smear one lossy link's
			// timeouts across both endpoints' estimates (and once ejected
			// that way, an innocent busy client stalls the whole cluster).
			t.observe(p.Now(), src, dst, p.Now().Sub(attemptStart), exp, occ)
		}
		if ok {
			pr.state = breakerClosed
			pr.fails = 0
			t.Delivered++
			if corrupted {
				res.Corrupted = true
				t.CorruptDelivered++
			}
			for _, node := range [2]int{src, dst} {
				t.reconsider(p.Now(), node)
			}
			return res, nil
		}
		t.Timeouts++
		pr.fails++
		for _, l := range probeNodes {
			// A failed probe re-arms the ejection clock immediately.
			l.ejectedAt = p.Now()
		}
		if pr.state == breakerHalfOpen || pr.fails >= t.cfg.BreakerThreshold {
			pr.state = breakerOpen
			pr.openedAt = p.Now()
			pr.cooldown = t.jitteredCooldown()
			t.BreakerTrips++
			return res, fmt.Errorf("%w: node %d -> node %d after %d attempts (breaker tripped)",
				ErrTimeout, src, dst, res.Attempts)
		}
		if attempt >= t.cfg.MaxRetries {
			return res, fmt.Errorf("%w: node %d -> node %d after %d attempts", ErrTimeout, src, dst, res.Attempts)
		}
		if b := t.cfg.Budget; b != nil && !b.allow(p.Now()) {
			t.RetriesBudgeted++
			return res, fmt.Errorf("%w: node %d -> node %d after %d attempts", ErrRetryBudget, src, dst, res.Attempts)
		}
		p.Sleep(t.backoff(attempt + 1))
	}
}

// SendHedged delivers bytes like Send, but with tail-latency hedging: if
// the primary transfer outlives HedgeDelay, a duplicate fires on the
// hedge transport (an independent stream, so independent fate coins) and
// the first copy to land wins — the loser's bytes are wasted wire time,
// exactly as in a real hedged fetch. `hedged` reports whether the
// duplicate was fired, `hedgeWon` whether it answered first. On a
// fault-free fabric (or nil hedge) it degenerates to a plain Send.
func (t *Transport) SendHedged(p *sim.Proc, hedge *Transport, src, dst int, bytes int64) (res Result, hedged, hedgeWon bool, err error) {
	if hedge == nil || !t.c.NetFaultsEnabled() || src == dst {
		res, err = t.Send(p, src, dst, bytes)
		return res, false, false, err
	}
	type outcome struct {
		res     Result
		err     error
		byHedge bool
	}
	fut := &sim.Future[outcome]{}
	resolved := false
	outstanding := 0
	launched := false
	complete := func(o outcome) {
		if !resolved {
			resolved = true
			fut.Complete(o)
		}
	}
	var launch func(tr *Transport, isHedge bool)
	launch = func(tr *Transport, isHedge bool) {
		t.c.K.Spawn("transport.hedge", func(wp *sim.Proc) {
			r, e := tr.Send(wp, src, dst, bytes)
			if e == nil {
				if !resolved {
					complete(outcome{res: r, byHedge: isHedge})
				}
				return
			}
			outstanding--
			if !isHedge && !launched && !resolved {
				// The primary failed before the timer — typically a
				// fast-fail (ejected peer, open breaker, spent budget).
				// Promote the reserved hedge slot immediately instead of
				// sitting out the rest of the delay.
				launched = true
				launch(hedge, true)
				return
			}
			if outstanding == 0 {
				complete(outcome{err: e})
			}
		})
	}
	outstanding += 2 // primary + the reserved hedge slot
	launch(t, false)
	t.c.K.After(t.HedgeDelay(bytes), func() {
		if launched {
			return // the reserved slot was already promoted
		}
		if resolved {
			outstanding--
			return
		}
		launched = true
		launch(hedge, true)
	})
	o := fut.Wait(p)
	return o.res, launched, launched && o.byHedge, o.err
}

// attempt plays out one transmission: data frame, receiver-side accept,
// ack frame. It reports whether the sender saw the ack, and whether the
// accepted frame was corrupt (unverified flows only).
func (t *Transport) attempt(p *sim.Proc, pr *peerState, src, dst int, bytes, seq int64,
	attempt int, timeout time.Duration) (acked, corrupted bool) {
	start := p.Now()
	switch t.c.FateOf(src, dst, t.stream, seq, attempt) {
	case cluster.FatePartitioned:
		// The cut swallows the frame; the sender still injects it (the
		// local NIC has no idea) and waits out its timer.
		t.PartitionDrops++
		t.c.XferInject(p, src, dst, bytes, t.fabric)
		sleepRemainder(p, start, timeout)
		return false, false
	case cluster.FateLost:
		t.Losses++
		t.c.XferInject(p, src, dst, bytes, t.fabric)
		sleepRemainder(p, start, timeout)
		return false, false
	case cluster.FateCorrupt:
		t.c.Xfer(p, src, dst, bytes, t.fabric)
		if !t.cfg.NoVerify {
			// The receiver's CRC rejects the frame; no ack, sender times
			// out and resends. This is the guarantee that no corrupt byte
			// is ever delivered on a verified flow.
			t.CorruptDropped++
			sleepRemainder(p, start, timeout)
			return false, false
		}
		corrupted = true
	default:
		t.c.Xfer(p, src, dst, bytes, t.fabric)
	}

	// Frame accepted. Retransmissions of an already-accepted seq are
	// recognized and dropped — but still acked, so the sender stops. The
	// first accepted copy stands, including its corruption state.
	if wasCorrupt, seen := pr.delivered[seq]; seen {
		t.Duplicates++
		corrupted = wasCorrupt
	} else {
		pr.delivered[seq] = corrupted
	}

	// The ack rides the reverse path and takes its own chances.
	switch t.c.FateOf(dst, src, t.stream, seq, attempt) {
	case cluster.FateDeliver, cluster.FateCorrupt:
		// A corrupt ack still tells the sender the frame landed (acks
		// carry no payload worth protecting).
		t.c.Xfer(p, dst, src, ackBytes, t.fabric)
		return true, corrupted
	default:
		t.AckLosses++
		t.c.XferInject(p, dst, src, ackBytes, t.fabric)
		sleepRemainder(p, start, timeout)
		return false, false
	}
}
