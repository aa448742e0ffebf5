// Package chaos is a deterministic fault-injection engine for the
// simulated cluster. A Plan is a seeded, fully reproducible schedule of
// fault events — node crashes, recoveries, straggler slowdowns, NIC
// degradation and transient disk read errors — that an Engine replays on
// the sim.Kernel clock by transitioning cluster node health and
// performance knobs. Because the plan is built once from its own RNG
// (independent of the kernel's), the same seed always yields the same
// fault schedule, and therefore the same virtual execution, down to the
// nanosecond: §VI-D fault tolerance becomes a measured experiment instead
// of a hand-triggered demo.
package chaos

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"time"

	"hpcbd/internal/cluster"
)

// Kind enumerates fault event types.
type Kind int

const (
	// NodeCrash kills the node: processes, memory and scratch state are
	// lost. Runtimes notice via cluster health watchers and epoch checks.
	NodeCrash Kind = iota
	// NodeRecover brings a crashed node back as a fresh, empty machine.
	NodeRecover
	// SlowStart turns the node into a straggler: compute and scratch-disk
	// service times are multiplied by Factor and health drops to Degraded.
	SlowStart
	// SlowEnd restores the straggler to full speed.
	SlowEnd
	// NICDegrade multiplies the node's NIC occupancy by Factor (flapping
	// link, cable errors); health drops to Degraded.
	NICDegrade
	// NICRestore heals the NIC.
	NICRestore
	// DiskFaults arms the next Count scratch reads on the node to fail
	// with a transient error.
	DiskFaults
	// MsgLoss sets the cluster-wide message loss probability to Factor
	// (zero clears it). Node is ignored: loss is a fabric property.
	MsgLoss
	// MsgCorrupt sets the cluster-wide in-flight corruption probability
	// to Factor (zero clears it).
	MsgCorrupt
	// PartitionStart splits the network into the event's Groups (nodes
	// not listed form one implicit extra group) — a heal-able
	// split-brain.
	PartitionStart
	// PartitionHeal reconnects all partition groups.
	PartitionHeal
	// GrayStart turns the node gray: compute, scratch disk and NIC all
	// slow by Factor and the node's messages are lost with probability
	// Loss — but health stays Alive. The node answers every heartbeat,
	// so crash detection, speculation-by-death and HA failover all pass
	// it by; only latency-aware layers can notice it.
	GrayStart
	// GrayEnd restores the gray node to full performance.
	GrayEnd
	// MemHogStart lets an external hog (a co-tenant, a leaking daemon)
	// claim Factor of the node's RAM via the cluster memory accounting.
	// If tasks already hold memory the hog takes whatever is free up to
	// its target — exactly what a real greedy process would get. Health
	// stays Alive: the machine is slow and swappy, not dead.
	MemHogStart
	// MemHogEnd releases everything the hog on this node claimed.
	MemHogEnd
	// DiskFillStart claims Factor of the node's scratch-disk capacity
	// for an external filler (taking whatever is free up to that
	// target; Factor 1 fills the disk completely). No-op on disks
	// without capacity accounting.
	DiskFillStart
	// DiskFillEnd releases the filler's claim on the node's scratch disk.
	DiskFillEnd
	// JobSubmit fires the engine's OnJob hook with the event's Count as
	// the job index — the building block of JobStorm offered-load bursts.
	// Node is ignored: submission is a cluster-level act.
	JobSubmit
)

func (k Kind) String() string {
	switch k {
	case NodeCrash:
		return "crash"
	case NodeRecover:
		return "recover"
	case SlowStart:
		return "slow-start"
	case SlowEnd:
		return "slow-end"
	case NICDegrade:
		return "nic-degrade"
	case NICRestore:
		return "nic-restore"
	case DiskFaults:
		return "disk-faults"
	case MsgLoss:
		return "msg-loss"
	case MsgCorrupt:
		return "msg-corrupt"
	case PartitionStart:
		return "partition"
	case PartitionHeal:
		return "heal"
	case GrayStart:
		return "gray-start"
	case GrayEnd:
		return "gray-end"
	case MemHogStart:
		return "mem-hog"
	case MemHogEnd:
		return "mem-hog-end"
	case DiskFillStart:
		return "disk-fill"
	case DiskFillEnd:
		return "disk-fill-end"
	case JobSubmit:
		return "job-submit"
	}
	return "unknown"
}

// Event is one scheduled fault.
type Event struct {
	At     time.Duration // virtual time relative to Install
	Node   int
	Kind   Kind
	Factor float64 // slowdown multiplier, or a probability for MsgLoss / MsgCorrupt
	Count  int     // number of faults for DiskFaults
	Groups [][]int // partition groups for PartitionStart
	Loss   float64 // per-node message loss probability for GrayStart
}

// netLevel reports whether the event targets the fabric rather than one
// node.
func (e Event) netLevel() bool {
	switch e.Kind {
	case MsgLoss, MsgCorrupt, PartitionStart, PartitionHeal:
		return true
	}
	return false
}

func (e Event) String() string {
	if e.Kind == JobSubmit {
		return fmt.Sprintf("%8.3fs job-submit #%d", e.At.Seconds(), e.Count)
	}
	if e.netLevel() {
		s := fmt.Sprintf("%8.3fs net %s", e.At.Seconds(), e.Kind)
		switch e.Kind {
		case MsgLoss, MsgCorrupt:
			s += fmt.Sprintf(" p=%.4f", e.Factor)
		case PartitionStart:
			s += fmt.Sprintf(" groups=%v", e.Groups)
		}
		return s
	}
	s := fmt.Sprintf("%8.3fs node%d %s", e.At.Seconds(), e.Node, e.Kind)
	switch e.Kind {
	case SlowStart, NICDegrade:
		s += fmt.Sprintf(" x%.1f", e.Factor)
	case DiskFaults:
		s += fmt.Sprintf(" n=%d", e.Count)
	case GrayStart:
		s += fmt.Sprintf(" x%.1f loss=%.3f", e.Factor, e.Loss)
	case MemHogStart, DiskFillStart:
		s += fmt.Sprintf(" frac=%.2f", e.Factor)
	}
	return s
}

// Plan is an ordered fault schedule.
type Plan struct {
	Events []Event
}

// Script builds a plan from an explicit event list — the reproducible
// replacement for ad-hoc mid-run kill calls.
func Script(events ...Event) *Plan {
	p := &Plan{Events: append([]Event(nil), events...)}
	p.sort()
	return p
}

// Add appends events and keeps the plan ordered.
func (p *Plan) Add(events ...Event) *Plan {
	p.Events = append(p.Events, events...)
	p.sort()
	return p
}

func (p *Plan) sort() {
	sort.SliceStable(p.Events, func(i, j int) bool { return p.Events[i].At < p.Events[j].At })
}

// CrashesWithin counts the NodeCrash events scheduled in [0, d) — the
// crashes a job that ran for d from Install was exposed to.
func (p *Plan) CrashesWithin(d time.Duration) int {
	n := 0
	for _, e := range p.Events {
		if e.Kind == NodeCrash && e.At < d {
			n++
		}
	}
	return n
}

func (p *Plan) String() string {
	var b strings.Builder
	for _, e := range p.Events {
		fmt.Fprintln(&b, e)
	}
	return b.String()
}

// CrashOpts tunes MTBF plan generation.
type CrashOpts struct {
	// Spare lists node IDs that never crash (typically node 0, which
	// hosts the Spark driver and the HDFS namenode — single points of
	// failure this model does not harden).
	Spare []int
	// Downtime is how long a crashed node stays down before recovering
	// as a fresh machine. Zero means nodes stay dead forever.
	Downtime time.Duration
}

// MTBF builds a crash plan with exponentially distributed inter-failure
// times of the given mean, covering [0, horizon). Victims are chosen
// uniformly among non-spared nodes.
//
// The construction is monotone in the failure rate: arrival i occurs at
// (sum of the first i unit-rate exponentials from the seed) x mtbf, and
// victims come from an independent stream. Shrinking mtbf with the seed
// held fixed therefore only compresses the same arrival sequence — the
// number of crashes within any horizon is non-decreasing as mtbf
// decreases, which is what makes "overhead grows with failure rate" a
// checkable shape rather than a noisy tendency.
func MTBF(seed int64, nodes int, mtbf, horizon time.Duration, opts CrashOpts) *Plan {
	p := &Plan{}
	if mtbf <= 0 || horizon <= 0 || nodes <= 0 {
		return p
	}
	victims := crashVictims(nodes, opts.Spare)
	if len(victims) == 0 {
		return p
	}
	trng := rand.New(rand.NewSource(seed))
	vrng := rand.New(rand.NewSource(seed ^ 0x1e3779b97f4a7c15))
	cum := 0.0 // cumulative unit-rate exponential arrivals
	for {
		cum += trng.ExpFloat64()
		at := time.Duration(cum * float64(mtbf))
		if at >= horizon {
			break
		}
		n := victims[vrng.Intn(len(victims))]
		p.Events = append(p.Events, Event{At: at, Node: n, Kind: NodeCrash})
		if opts.Downtime > 0 {
			p.Events = append(p.Events, Event{At: at + opts.Downtime, Node: n, Kind: NodeRecover})
		}
	}
	p.sort()
	return p
}

// MTBFNested builds one crash plan per requested MTBF such that the crash
// sets are nested: every crash in the plan for a longer MTBF also appears,
// at the same time and on the same node, in every plan for a shorter one.
// Arrivals are generated once at the highest failure rate (the shortest
// MTBF) and thinned — each arrival draws one uniform coin u and belongs to
// the plan for mean m iff u < min(mtbfs)/m. Thinning a Poisson process
// yields a Poisson process, so each plan still has exponential
// inter-failure times with the right mean; but unlike independently
// generated plans, raising the failure rate can only add fault events,
// never move them. That makes "overhead grows with the failure rate" a
// structural property a shape check can assert exactly, rather than a
// statistical tendency.
func MTBFNested(seed int64, nodes int, mtbfs []time.Duration, horizon time.Duration, opts CrashOpts) []*Plan {
	plans := make([]*Plan, len(mtbfs))
	for i := range plans {
		plans[i] = &Plan{}
	}
	minM := time.Duration(0)
	for _, m := range mtbfs {
		if m > 0 && (minM == 0 || m < minM) {
			minM = m
		}
	}
	if minM == 0 || horizon <= 0 || nodes <= 0 {
		return plans
	}
	victims := crashVictims(nodes, opts.Spare)
	if len(victims) == 0 {
		return plans
	}
	trng := rand.New(rand.NewSource(seed))
	vrng := rand.New(rand.NewSource(seed ^ 0x1e3779b97f4a7c15))
	cum := 0.0
	for {
		cum += trng.ExpFloat64()
		at := time.Duration(cum * float64(minM))
		if at >= horizon {
			break
		}
		n := victims[vrng.Intn(len(victims))]
		u := vrng.Float64() // thinning coin, shared across plans
		for i, m := range mtbfs {
			if m <= 0 || u >= float64(minM)/float64(m) {
				continue
			}
			plans[i].Events = append(plans[i].Events, Event{At: at, Node: n, Kind: NodeCrash})
			if opts.Downtime > 0 {
				plans[i].Events = append(plans[i].Events, Event{At: at + opts.Downtime, Node: n, Kind: NodeRecover})
			}
		}
	}
	for _, p := range plans {
		p.sort()
	}
	return plans
}

// spareSet turns a spare list into a set for O(1) membership tests; nil
// when there are no spares, which ranges as empty.
func spareSet(spare []int) map[int]bool {
	if len(spare) == 0 {
		return nil
	}
	set := make(map[int]bool, len(spare))
	for _, s := range spare {
		set[s] = true
	}
	return set
}

// crashVictims returns the crashable nodes: all of them minus the spares.
func crashVictims(nodes int, spare []int) []int {
	spared := spareSet(spare)
	victims := make([]int, 0, nodes)
	for i := 0; i < nodes; i++ {
		if !spared[i] {
			victims = append(victims, i)
		}
	}
	return victims
}

// Partition returns events splitting the network into groups during
// [from, to) — a transient split-brain. Nodes not listed in any group
// form one implicit extra group. A `to` at or before `from` leaves the
// partition in place forever.
func Partition(groups [][]int, from, to time.Duration) []Event {
	evs := []Event{{At: from, Kind: PartitionStart, Groups: groups}}
	if to > from {
		evs = append(evs, Event{At: to, Kind: PartitionHeal})
	}
	return evs
}

// Stragglers builds a plan that slows `count` distinct nodes by `factor`
// from `at` for `length` (forever when length is zero), choosing victims
// deterministically from the seed.
func Stragglers(seed int64, nodes, count int, factor float64, at, length time.Duration, opts CrashOpts) *Plan {
	p := &Plan{}
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(nodes)
	spared := spareSet(opts.Spare)
	picked := 0
	for _, n := range perm {
		if picked >= count {
			break
		}
		if spared[n] {
			continue
		}
		picked++
		p.Events = append(p.Events, Event{At: at, Node: n, Kind: SlowStart, Factor: factor})
		if length > 0 {
			p.Events = append(p.Events, Event{At: at + length, Node: n, Kind: SlowEnd})
		}
	}
	p.sort()
	return p
}

// GrayNodes builds a gray-failure plan: `count` distinct nodes turn gray
// at `at` for `length` (forever when length is zero) — compute, disk and
// NIC slowed by `factor`, messages touching them lost with probability
// `loss` — while staying heartbeat-alive the whole time. Victims come
// from the same seeded permutation construction as Stragglers, so the
// victim set at a lower count is a strict prefix of the set at any
// higher count for the same seed: raising the gray fraction only adds
// sick nodes, which makes "tail latency grows with the gray fraction" a
// checkable shape.
func GrayNodes(seed int64, nodes, count int, factor, loss float64, at, length time.Duration, opts CrashOpts) *Plan {
	p := &Plan{}
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(nodes)
	spared := spareSet(opts.Spare)
	picked := 0
	for _, n := range perm {
		if picked >= count {
			break
		}
		if spared[n] {
			continue
		}
		picked++
		p.Events = append(p.Events, Event{At: at, Node: n, Kind: GrayStart, Factor: factor, Loss: loss})
		if length > 0 {
			p.Events = append(p.Events, Event{At: at + length, Node: n, Kind: GrayEnd})
		}
	}
	p.sort()
	return p
}

// MemPressure builds an overload plan: `count` distinct nodes each host
// an external memory hog that claims `frac` of the node's RAM at `at`
// and releases it after `length` (forever when length is zero). Victims
// come from the same seeded-permutation prefix construction as
// GrayNodes/Stragglers, so the victim set at a lower count is a strict
// prefix of the set at any higher count for the same seed — raising the
// pressure level only adds pressured nodes, which makes "goodput falls
// as pressure rises" a checkable shape.
func MemPressure(seed int64, nodes, count int, frac float64, at, length time.Duration, opts CrashOpts) *Plan {
	return hogPlan(seed, nodes, count, frac, at, length, opts, MemHogStart, MemHogEnd)
}

// DiskFull builds the disk analogue of MemPressure: `count` distinct
// nodes have `frac` of their scratch capacity claimed by an external
// filler at `at`, released after `length` (forever when length is
// zero). Same seeded prefix-nested victim construction — and the same
// seed as a MemPressure plan picks the same victims, so combined
// memory+disk pressure lands on the same machines, the worst (and most
// realistic) case.
func DiskFull(seed int64, nodes, count int, frac float64, at, length time.Duration, opts CrashOpts) *Plan {
	return hogPlan(seed, nodes, count, frac, at, length, opts, DiskFillStart, DiskFillEnd)
}

// hogPlan is the shared seeded windowed-pressure construction behind
// MemPressure and DiskFull.
func hogPlan(seed int64, nodes, count int, frac float64, at, length time.Duration, opts CrashOpts, start, end Kind) *Plan {
	p := &Plan{}
	if frac <= 0 || nodes <= 0 {
		return p
	}
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(nodes)
	spared := spareSet(opts.Spare)
	picked := 0
	for _, n := range perm {
		if picked >= count {
			break
		}
		if spared[n] {
			continue
		}
		picked++
		p.Events = append(p.Events, Event{At: at, Node: n, Kind: start, Factor: frac})
		if length > 0 {
			p.Events = append(p.Events, Event{At: at + length, Node: n, Kind: end})
		}
	}
	p.sort()
	return p
}

// JobStorm builds a seeded burst of `count` concurrent job submissions
// spread uniformly over [at, at+spread) (all at `at` when spread is
// zero). Each event carries its job index in Count; the Engine fires its
// OnJob hook per event. The offered-load axis of the overload sweeps:
// the same seed always yields the same submission times.
func JobStorm(seed int64, count int, at, spread time.Duration) *Plan {
	p := &Plan{}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < count; i++ {
		t := at
		if spread > 0 {
			t += time.Duration(rng.Int63n(int64(spread)))
		}
		p.Events = append(p.Events, Event{At: t, Kind: JobSubmit, Count: i})
	}
	p.sort()
	return p
}

// MasterKill builds the control-plane assassination plan: crash exactly
// the given node (no Spare list protects it — typically node 0, where
// the namenode, Spark driver, and job tracker live) at `at`, recovering
// it after `downtime` (forever dead when downtime is zero). Pointed
// rather than stochastic: the HA sweeps need the master to die, not to
// maybe die.
func MasterKill(node int, at, downtime time.Duration) *Plan {
	p := &Plan{Events: []Event{{At: at, Node: node, Kind: NodeCrash}}}
	if downtime > 0 {
		p.Events = append(p.Events, Event{At: at + downtime, Node: node, Kind: NodeRecover})
	}
	return p
}

// SplitBrain cuts the given minority away from the rest of the cluster
// during [at, at+length) (forever when length is zero). The remaining
// nodes form the implicit majority group.
func SplitBrain(minority []int, at, length time.Duration) *Plan {
	var to time.Duration
	if length > 0 {
		to = at + length
	}
	return Script(Partition([][]int{append([]int(nil), minority...)}, at, to)...)
}

// FlappingPartition cuts and heals the same minority `cycles` times:
// each cycle i partitions at `at + 2i·period` and heals one period
// later — the link that keeps coming back just long enough for leases
// to be re-taken.
func FlappingPartition(minority []int, at, period time.Duration, cycles int) *Plan {
	p := &Plan{}
	grp := [][]int{append([]int(nil), minority...)}
	for i := 0; i < cycles; i++ {
		start := at + time.Duration(2*i)*period
		p.Events = append(p.Events,
			Event{At: start, Kind: PartitionStart, Groups: grp},
			Event{At: start + period, Kind: PartitionHeal})
	}
	return p
}

// Engine replays a plan against a cluster and counts what it did.
type Engine struct {
	C *cluster.Cluster

	// OnJob, when set, receives each JobSubmit event's job index — the
	// harness's submission hook for JobStorm plans. Set it after Install
	// and before the kernel runs; submissions fire on the kernel clock.
	OnJob func(job int)

	Crashes    int
	Recoveries int
	Slowdowns  int
	NICFaults  int
	DiskErrors int
	Grays      int
	GrayHeals  int

	// Overload event counters.
	MemHogs       int
	MemHogEnds    int
	DiskFills     int
	DiskFillEnds  int
	JobsSubmitted int
	HoggedBytes   int64 // RAM currently claimed by hogs, total over nodes
	FilledBytes   int64 // scratch space currently claimed by fillers

	// Fabric-level event counters.
	LossChanges    int
	CorruptChanges int
	Partitions     int
	Heals          int

	// Per-node outstanding hog claims, so window ends release exactly
	// what their starts took.
	hogMem  map[int]int64
	hogDisk map[int]int64
}

// Install schedules every plan event on the cluster's kernel, relative to
// the current virtual time, and returns the engine for counter inspection.
// It may be called before Run or from inside a running process (e.g. after
// input staging, so faults land on the measured region).
func Install(c *cluster.Cluster, p *Plan) *Engine {
	e := &Engine{C: c, hogMem: make(map[int]int64), hogDisk: make(map[int]int64)}
	for _, ev := range p.Events {
		ev := ev
		c.K.After(ev.At, func() { e.apply(ev) })
	}
	return e
}

func (e *Engine) apply(ev Event) {
	c := e.C
	if ev.Kind == JobSubmit {
		e.JobsSubmitted++
		if e.OnJob != nil {
			e.OnJob(ev.Count)
		}
		return
	}
	if ev.netLevel() {
		// Fabric events are cluster-wide; Node is ignored. SetMsgLoss and
		// friends auto-enable the fault model with a default seed —
		// benches that care about coin reproducibility call
		// c.EnableNetFaults(seed) before Install.
		switch ev.Kind {
		case MsgLoss:
			c.SetMsgLoss(ev.Factor)
			e.LossChanges++
		case MsgCorrupt:
			c.SetMsgCorrupt(ev.Factor)
			e.CorruptChanges++
		case PartitionStart:
			c.SetPartition(ev.Groups)
			e.Partitions++
		case PartitionHeal:
			c.HealPartition()
			e.Heals++
		}
		return
	}
	if ev.Node < 0 || ev.Node >= c.Size() {
		return
	}
	n := c.Node(ev.Node)
	switch ev.Kind {
	case NodeCrash:
		if c.NodeAlive(ev.Node) {
			c.KillNode(ev.Node)
			e.Crashes++
		}
	case NodeRecover:
		if !c.NodeAlive(ev.Node) {
			c.RestoreNode(ev.Node)
			e.Recoveries++
		}
	case SlowStart:
		f := ev.Factor
		if f <= 1 || math.IsNaN(f) {
			return
		}
		n.SetComputeScale(f)
		n.Scratch.SetScale(f)
		if c.Health(ev.Node) == cluster.Alive {
			c.SetHealth(ev.Node, cluster.Degraded)
		}
		e.Slowdowns++
	case SlowEnd:
		n.SetComputeScale(1)
		n.Scratch.SetScale(1)
		e.clearDegraded(ev.Node)
	case NICDegrade:
		f := ev.Factor
		if f <= 1 || math.IsNaN(f) {
			return
		}
		n.SetNICScale(f)
		if c.Health(ev.Node) == cluster.Alive {
			c.SetHealth(ev.Node, cluster.Degraded)
		}
		e.NICFaults++
	case NICRestore:
		n.SetNICScale(1)
		e.clearDegraded(ev.Node)
	case DiskFaults:
		if ev.Count > 0 {
			n.Scratch.InjectReadFaults(ev.Count)
			e.DiskErrors += ev.Count
		}
	case GrayStart:
		f := ev.Factor
		if f <= 1 || math.IsNaN(f) {
			return
		}
		// Deliberately no SetHealth: a gray node keeps answering
		// heartbeats at full cadence, so nothing death-based fires.
		n.SetComputeScale(f)
		n.Scratch.SetScale(f)
		n.SetNICScale(f)
		if ev.Loss > 0 {
			c.SetNodeMsgLoss(ev.Node, ev.Loss)
		}
		e.Grays++
	case GrayEnd:
		n.SetComputeScale(1)
		n.Scratch.SetScale(1)
		n.SetNICScale(1)
		c.SetNodeMsgLoss(ev.Node, 0)
		e.GrayHeals++
	case MemHogStart:
		f := ev.Factor
		if f <= 0 || f > 1 || math.IsNaN(f) {
			return
		}
		got := n.AllocMemUpTo(int64(f * float64(n.Spec.MemBytes)))
		e.hogMem[ev.Node] += got
		e.HoggedBytes += got
		e.MemHogs++
	case MemHogEnd:
		n.FreeMem(e.hogMem[ev.Node])
		e.HoggedBytes -= e.hogMem[ev.Node]
		delete(e.hogMem, ev.Node)
		e.MemHogEnds++
	case DiskFillStart:
		f := ev.Factor
		if f <= 0 || f > 1 || math.IsNaN(f) {
			return
		}
		got := n.Scratch.AllocUpTo(int64(f * float64(n.Scratch.Spec.Capacity)))
		e.hogDisk[ev.Node] += got
		e.FilledBytes += got
		e.DiskFills++
	case DiskFillEnd:
		n.Scratch.Free(e.hogDisk[ev.Node])
		e.FilledBytes -= e.hogDisk[ev.Node]
		delete(e.hogDisk, ev.Node)
		e.DiskFillEnds++
	}
}

// clearDegraded returns a Degraded node to Alive once neither its compute,
// disk nor NIC is impaired any more.
func (e *Engine) clearDegraded(node int) {
	c := e.C
	n := c.Node(node)
	if c.Health(node) == cluster.Degraded && n.ComputeScale() == 1 && n.NICScale() == 1 {
		c.SetHealth(node, cluster.Alive)
	}
}

// Summary formats the engine counters on one line.
func (e *Engine) Summary() string {
	return fmt.Sprintf("crashes=%d recoveries=%d slowdowns=%d nic=%d diskerr=%d gray=%d loss=%d corrupt=%d partitions=%d heals=%d memhogs=%d diskfills=%d jobs=%d",
		e.Crashes, e.Recoveries, e.Slowdowns, e.NICFaults, e.DiskErrors, e.Grays,
		e.LossChanges, e.CorruptChanges, e.Partitions, e.Heals,
		e.MemHogs, e.DiskFills, e.JobsSubmitted)
}
