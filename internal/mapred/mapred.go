// Package mapred models a Hadoop-MapReduce-style engine (Hadoop 2.6 in the
// paper): input splits with locality hints, slot-scheduled map tasks with
// per-task JVM spawn cost, sorted spills to local disk, a socket shuffle,
// merging reduce tasks, and automatic re-execution of failed tasks.
//
// The engine's signature behaviour — every stage boundary goes through
// disk — is what separates Hadoop from Spark in the paper's Fig 4:
// "Hadoop relies heavily on disk operations and persists intermediate
// results on disk."
package mapred

import (
	"fmt"
	"math"
	"time"

	"hpcbd/internal/cluster"
	"hpcbd/internal/ha"
	"hpcbd/internal/sim"
	"hpcbd/internal/transport"
)

// Pair is an intermediate or output key-value pair.
type Pair[K comparable, V any] struct {
	Key K
	Val V
}

// Split is one unit of map input.
type Split struct {
	ID    int
	Hosts []int // nodes holding the data (locality hints)
	Bytes int64 // logical bytes, for cost accounting
}

// Input supplies records to map tasks. Read must charge whatever I/O the
// access costs (e.g. a DFS read) and return the physical records of the
// split.
type Input[In any] interface {
	Splits() []Split
	Read(p *sim.Proc, node int, s Split) []In
}

// Config tunes the engine.
type Config struct {
	NumReduces   int
	SlotsPerNode int
	// PairBytes is the logical wire/disk size of one emitted pair, used
	// to charge spills and shuffle (sampled datasets emit few physical
	// pairs representing many logical ones).
	PairBytes int64
	// MaxAttempts bounds task re-execution (Hadoop default 4).
	MaxAttempts int
	// FailureInjector, when non-nil, is consulted per task attempt; true
	// makes the attempt fail after doing half its work. Used to exercise
	// the re-execution path.
	FailureInjector func(task string, attempt int) bool
	// FetchRetry tunes the reliable transport under shuffle fetches; zero
	// fields take the transport defaults.
	FetchRetry transport.Config
	// FetchRetryWait is the pause after an exhausted shuffle fetch before
	// the reduce attempt is failed and rescheduled (Hadoop's fetch-retry
	// backoff). Only fault paths pay it.
	FetchRetryWait time.Duration
	// HedgedFetch enables tail-latency mitigation on reduce-side fetches:
	// a fetch that outlives the transport's adaptive hedge delay fires a
	// duplicate transfer on an independent stream and the first copy wins.
	// An ejected source fast-fails the primary and promotes the hedge
	// immediately; a fetch that fails both channels fails the attempt at
	// once, skipping the retry wait. Off by default; when off the fetch
	// path is byte-identical to the pre-hedging engine.
	HedgedFetch bool
}

// DefaultConfig mirrors common Hadoop settings.
func DefaultConfig(nodes int) Config {
	return Config{
		NumReduces:   nodes,
		SlotsPerNode: 8,
		PairBytes:    64,
		MaxAttempts:  4,
	}
}

// Stats reports what a job did.
type Stats struct {
	MapTasks      int
	ReduceTasks   int
	InputRecords  int64
	OutputPairs   int64
	SpilledBytes  int64 // map-side sorted spills (logical)
	ShuffledBytes int64 // moved between map and reduce nodes (logical)
	Retries       int
	FetchFailures int // shuffle fetches that exhausted transport retries
	HedgesSent    int // duplicate fetches fired after the adaptive delay
	HedgeWins     int // hedged fetches where the duplicate answered first
	Elapsed       time.Duration

	// Recovery counters (node-death + tracker-failover hardening)
	MapsRerun        int // committed map outputs invalidated by node death and re-executed
	TrackerFailovers int // job-tracker generations crossed during the run
}

// Job is one MapReduce job. Map is called once per input record; Reduce
// once per distinct key with all its values (first-seen key order, which
// is deterministic for deterministic inputs). Combine, when non-nil, runs
// on each map task's spill to shrink it before the shuffle (Hadoop's
// Combiner; it must be associative and produce reducer-compatible
// values).
type Job[In any, K comparable, V any] struct {
	Cluster *cluster.Cluster
	Fabric  cluster.FabricSpec // socket fabric for shuffle + control
	Name    string
	Input   Input[In]
	Map     func(in In, emit func(K, V))
	Combine func(key K, vals []V) V
	Reduce  func(key K, vals []V, emit func(K, V))
	Conf    Config

	// Transport is the reliable delivery layer under the shuffle; Run
	// creates one over Fabric when nil. Readable after Run for delivery
	// statistics.
	Transport *transport.Transport

	// hedgeNet carries duplicate (hedged) fetches on its own stream so
	// they draw independent fate coins from the primaries they race.
	hedgeNet *transport.Transport

	// HA, when non-nil, is the job tracker's replication group: task
	// completions are journaled through it, and when the tracker's node
	// dies the job resumes under the elected standby — re-running only
	// the work whose outputs died — instead of being lost with node 0.
	HA *ha.Group

	// lease is the tracker incarnation commits are fenced against:
	// refreshed at every round boundary (checkTracker) and on any
	// refused append, so a tracker deposed by a partition cannot ack
	// task completions after a heal.
	lease ha.Lease
}

// mapOutput is one map task's partitioned, sorted spill.
type mapOutput[K comparable, V any] struct {
	node       int
	down       int // the node's crash epoch when the spill was committed
	partitions [][]Pair[K, V]
	partBytes  []int64
}

// perCompare is the JVM cost of one sort comparison.
const perCompare = 25 * time.Nanosecond

// Run executes the job from the calling process (the "client"), returning
// the reduce outputs and statistics. The job tracker lives on node 0.
func (j *Job[In, K, V]) Run(p *sim.Proc) ([]Pair[K, V], Stats) {
	c := j.Cluster
	cm := c.Cost
	conf := j.Conf
	if conf.NumReduces <= 0 {
		conf.NumReduces = c.Size()
	}
	if conf.SlotsPerNode <= 0 {
		conf.SlotsPerNode = 8
	}
	if conf.PairBytes <= 0 {
		conf.PairBytes = 64
	}
	if conf.MaxAttempts <= 0 {
		conf.MaxAttempts = 4
	}
	if conf.FetchRetryWait <= 0 {
		conf.FetchRetryWait = 50 * time.Millisecond
	}
	if j.Transport == nil {
		j.Transport = transport.New(c, j.Fabric, conf.FetchRetry, transport.StreamMapRed, 0x6a9d)
	}
	if conf.HedgedFetch && j.hedgeNet == nil {
		// The hedge channel is the escape hatch for ejected or gray
		// primaries — it must never eject peers itself, or a spill could
		// become unreachable on both channels at once. It is likewise
		// exempt from the shared retry budget, which caps primary retry
		// amplification, not the recovery path.
		hedgeCfg := conf.FetchRetry
		hedgeCfg.EjectFactor = 0
		hedgeCfg.Budget = nil
		j.hedgeNet = transport.New(c, j.Fabric, hedgeCfg, transport.StreamMapRedHedge, 0x6a9d)
	}
	var st Stats
	start := p.Now()
	gen := 0
	if j.HA != nil {
		gen = j.HA.Generation()
		j.lease = ha.Lease{Node: j.HA.Leader(), Epoch: j.HA.Epoch()}
	}

	// Job submission and initialization at the tracker.
	p.Sleep(cm.HadoopJobOverhead)

	splits := j.Input.Splits()
	st.MapTasks = len(splits)
	st.ReduceTasks = conf.NumReduces

	slots := make([]*sim.Resource, c.Size())
	for i := range slots {
		slots[i] = sim.NewResource(c.K, fmt.Sprintf("%s.slots%d", j.Name, i), int64(conf.SlotsPerNode))
	}

	// The job runs in rounds. Round 0 is the plain two-phase schedule;
	// later rounds exist only when committed work died with its node
	// (map spills are local state) or the tracker failed over — they
	// re-run exactly the splits whose outputs are gone and the reduces
	// that have not committed. A fault-free job is one round with an
	// event sequence identical to the pre-HA engine's.
	results := make([][]Pair[K, V], conf.NumReduces)
	doneReduce := make([]bool, conf.NumReduces)
	outputs := make([]*mapOutput[K, V], len(splits))
	for round := 0; ; round++ {
		if round >= 64 {
			panic(fmt.Sprintf("mapred: %s made no progress after %d recovery rounds", j.Name, round))
		}
		j.checkTracker(p, &gen, &st)

		// ---- map phase: splits with no live committed output ----
		wg := sim.NewWaitGroup(c.K)
		for ti, s := range splits {
			if j.outputLive(outputs[ti]) {
				continue
			}
			if outputs[ti] != nil {
				// A committed spill died with its node's local disk.
				outputs[ti] = nil
				st.MapsRerun++
			}
			ti, s := ti, s
			wg.Add(1)
			c.K.Spawn(fmt.Sprintf("%s.map%d", j.Name, ti), func(tp *sim.Proc) {
				defer wg.Done()
				taskName := fmt.Sprintf("map%d", ti)
				zombies := 0
				for attempt := 1; ; attempt++ {
					node := j.pickMapNode(s, ti)
					// Placement is only known now: follow the task to its
					// node's event shard (locality hint, not semantics).
					tp.SetShard(c.ShardOfNode(node))
					down := c.DownCount(node)
					slots[node].Acquire(tp, 1)
					ok := j.runMapAttempt(tp, taskName, attempt, node, s, ti, outputs, &st, conf)
					slots[node].Release(1)
					if ok {
						if c.NodeAlive(node) && c.DownCount(node) == down {
							outputs[ti].down = down
							j.journal(tp, 1)
							return
						}
						// The node died (or bounced) under the attempt: the
						// spill is zombie output on a dead disk. Not a task
						// failure — re-place, without consuming the budget.
						outputs[ti] = nil
						if zombies++; zombies > 64 {
							panic(fmt.Sprintf("mapred: %s.%s lost every node it ran on", j.Name, taskName))
						}
						continue
					}
					st.Retries++
					if attempt+1 > conf.MaxAttempts {
						panic(fmt.Sprintf("mapred: %s.%s exceeded %d attempts", j.Name, taskName, conf.MaxAttempts))
					}
				}
			})
		}
		wg.Wait(p)
		j.checkTracker(p, &gen, &st)
		if !j.allOutputsLive(outputs) {
			continue // a map output died before the barrier; re-run it first
		}

		// ---- reduce phase (shuffle + merge + reduce) ----
		rwg := sim.NewWaitGroup(c.K)
		for r := 0; r < conf.NumReduces; r++ {
			if doneReduce[r] {
				continue
			}
			r := r
			rwg.Add(1)
			c.K.Spawn(fmt.Sprintf("%s.reduce%d", j.Name, r), func(tp *sim.Proc) {
				defer rwg.Done()
				taskName := fmt.Sprintf("reduce%d", r)
				zombies := 0
				for attempt := 1; ; attempt++ {
					node := j.pickReduceNode(r)
					tp.SetShard(c.ShardOfNode(node))
					down := c.DownCount(node)
					slots[node].Acquire(tp, 1)
					out, ok, lostMaps := j.runReduceAttempt(tp, taskName, attempt, node, r, outputs, &st, conf)
					slots[node].Release(1)
					if lostMaps {
						// A map output vanished mid-shuffle: only the round
						// loop can rebuild it. Leave this reduce uncommitted.
						return
					}
					if ok {
						if c.NodeAlive(node) && c.DownCount(node) == down {
							results[r] = out
							doneReduce[r] = true
							j.journal(tp, 1)
							return
						}
						// Reduce output died with its node; re-run elsewhere.
						if zombies++; zombies > 64 {
							panic(fmt.Sprintf("mapred: %s.%s lost every node it ran on", j.Name, taskName))
						}
						continue
					}
					st.Retries++
					if attempt+1 > conf.MaxAttempts {
						panic(fmt.Sprintf("mapred: %s.%s exceeded %d attempts", j.Name, taskName, conf.MaxAttempts))
					}
				}
			})
		}
		rwg.Wait(p)

		done := true
		for r := 0; r < conf.NumReduces; r++ {
			if !doneReduce[r] {
				done = false
				break
			}
		}
		if done {
			break
		}
	}
	// Count a tracker generation crossed during the final reduce phase:
	// the job completion itself must be acknowledged by a live tracker.
	j.checkTracker(p, &gen, &st)

	var all []Pair[K, V]
	for _, rs := range results {
		all = append(all, rs...)
	}
	st.OutputPairs = int64(len(all))
	st.Elapsed = time.Duration(p.Now() - start)
	return all, st
}

// pickMapNode places a map attempt: the split's preferred host (the same
// rotation the pre-HA scheduler used) whenever it is alive, otherwise
// the next live host in the hint list, otherwise the first live node.
// Only node death moves a task — injected-failure retries stay put.
func (j *Job[In, K, V]) pickMapNode(s Split, ti int) int {
	c := j.Cluster
	if len(s.Hosts) > 0 {
		for i := 0; i < len(s.Hosts); i++ {
			if n := s.Hosts[(ti+i)%len(s.Hosts)]; c.NodeAlive(n) {
				return n
			}
		}
	}
	if len(s.Hosts) == 0 && c.NodeAlive(0) {
		return 0
	}
	for n := 0; n < c.Size(); n++ {
		if c.NodeAlive(n) {
			return n
		}
	}
	// Nothing is alive; return the pre-HA choice and let the attempt
	// surface the stall.
	if len(s.Hosts) > 0 {
		return s.Hosts[ti%len(s.Hosts)]
	}
	return 0
}

// pickReduceNode places a reduce attempt: the pre-HA round-robin node
// when alive, otherwise the next live node.
func (j *Job[In, K, V]) pickReduceNode(r int) int {
	c := j.Cluster
	for i := 0; i < c.Size(); i++ {
		if n := (r + i) % c.Size(); c.NodeAlive(n) {
			return n
		}
	}
	return r % c.Size()
}

// outputLive reports whether a committed map output's spill still exists
// (its node has neither died nor bounced since the commit).
func (j *Job[In, K, V]) outputLive(mo *mapOutput[K, V]) bool {
	return mo != nil && j.Cluster.NodeAlive(mo.node) && j.Cluster.DownCount(mo.node) == mo.down
}

func (j *Job[In, K, V]) allOutputsLive(outputs []*mapOutput[K, V]) bool {
	for _, mo := range outputs {
		if !j.outputLive(mo) {
			return false
		}
	}
	return true
}

// checkTracker parks the client through a job-tracker failover (the
// elected standby replays the journaled task state) and counts crossed
// generations. Free with HA disabled — and with it enabled, a live
// tracker costs only an uncharged generation read.
func (j *Job[In, K, V]) checkTracker(p *sim.Proc, gen *int, st *Stats) {
	if j.HA == nil {
		return
	}
	j.HA.AwaitLeader(p)
	j.lease = ha.Lease{Node: j.HA.Leader(), Epoch: j.HA.Epoch()}
	if g := j.HA.Generation(); g != *gen {
		st.TrackerFailovers += g - *gen
		*gen = g
	}
}

// journal logs one task completion to the replicated tracker state; a
// dead tracker parks the task until the standby takes over (there is no
// one to accept the commit), and a deposed one — stale epoch after a
// partition — refuses the commit, so the task re-submits it under the
// successor's lease instead of losing it to a truncated journal.
func (j *Job[In, K, V]) journal(tp *sim.Proc, n int64) {
	if j.HA == nil {
		return
	}
	for {
		if j.HA.AppendFor(tp, j.lease, n, nil) == nil {
			return
		}
		j.lease = ha.Lease{Node: j.HA.AwaitLeader(tp), Epoch: j.HA.Epoch()}
	}
}

// runMapAttempt executes one attempt of a map task; false means injected
// failure.
func (j *Job[In, K, V]) runMapAttempt(tp *sim.Proc, task string, attempt, node int,
	s Split, ti int, outputs []*mapOutput[K, V], st *Stats, conf Config) bool {
	c := j.Cluster
	cm := c.Cost
	tp.Sleep(cm.HadoopTaskOverhead) // JVM spawn

	fail := conf.FailureInjector != nil && conf.FailureInjector(task, attempt)

	records := j.Input.Read(tp, node, s)
	st.InputRecords += int64(len(records))

	// The whole map-side record pipeline — emit, combine, per-partition
	// sort, size accounting — is a pure payload overlapped with the
	// per-record and scan charges below (both known up front), so the
	// event footprint is identical to running it inline. Failed attempts
	// never reach user code, as before.
	type mapRes struct {
		mo         *mapOutput[K, V]
		totalPairs int64
	}
	var pd *sim.Pending[mapRes]
	if !fail {
		pd = sim.OffloadStart(tp, func() mapRes {
			parts := make([][]Pair[K, V], conf.NumReduces)
			emit := func(k K, v V) {
				h := partitionOf(k, conf.NumReduces)
				parts[h] = append(parts[h], Pair[K, V]{k, v})
			}
			for _, rec := range records {
				j.Map(rec, emit)
			}
			// Map-side combine shrinks each partition before it is spilled.
			if j.Combine != nil {
				for pi, part := range parts {
					parts[pi] = combinePairs(part, j.Combine)
				}
			}
			// Sort each partition by key hash (Hadoop sorts spills).
			mo := &mapOutput[K, V]{node: node, partitions: parts, partBytes: make([]int64, conf.NumReduces)}
			var totalPairs int64
			for pi, part := range parts {
				sortByKeyHash(part)
				b := int64(len(part)) * conf.PairBytes
				mo.partBytes[pi] = b
				totalPairs += int64(len(part))
			}
			return mapRes{mo, totalPairs}
		})
	}

	// Record processing: framework per-record cost plus JVM-rate scan of
	// the split's logical bytes — both known up front, one kernel event.
	tp.Sleep(time.Duration(len(records))*cm.HadoopPerRecord + cluster.ScanCost(s.Bytes, cm.JVMScanBW()))

	if fail {
		return false // half-done attempt wasted the time above
	}
	res := pd.Join()

	// Charge n log n spill-sort comparisons plus the disk write. The sort
	// charge elapses when the spill write acquires the disk.
	var totalBytes int64
	for _, b := range res.mo.partBytes {
		totalBytes += b
	}
	if res.totalPairs > 0 {
		tp.Charge(time.Duration(float64(res.totalPairs)*math.Log2(float64(res.totalPairs)+1)) * perCompare)
	}
	st.SpilledBytes += totalBytes
	c.Node(node).Scratch.Write(tp, totalBytes)
	outputs[ti] = res.mo
	return true
}

// runReduceAttempt executes one attempt of a reduce task. ok=false means
// the attempt failed and should be retried; lostMaps means a map output
// vanished mid-shuffle (node death), which only a map re-run can fix.
func (j *Job[In, K, V]) runReduceAttempt(tp *sim.Proc, task string, attempt, node, r int,
	outputs []*mapOutput[K, V], st *Stats, conf Config) (_ []Pair[K, V], ok, lostMaps bool) {
	c := j.Cluster
	cm := c.Cost
	tp.Sleep(cm.HadoopTaskOverhead)

	fail := conf.FailureInjector != nil && conf.FailureInjector(task, attempt)

	// Shuffle: fetch this reducer's partition from every map output.
	nIn := 0
	for _, mo := range outputs {
		if mo.partBytes[r] > 0 {
			nIn += len(mo.partitions[r])
		}
	}
	fetched := make([]Pair[K, V], 0, nIn)
	for _, mo := range outputs {
		part := mo.partitions[r]
		b := mo.partBytes[r]
		if b == 0 {
			continue
		}
		if !j.outputLive(mo) {
			// The spill's node died between the map barrier and this
			// fetch: the data is gone, not merely unreachable.
			return nil, false, true
		}
		c.Node(mo.node).Scratch.Read(tp, b) // map-side spill read
		if mo.node != node {
			// Lost or corrupted frames are retried by the transport; a
			// fetch that exhausts its ladder (sustained loss, partition)
			// fails this reduce attempt, which the attempt loop
			// reschedules — Hadoop's fetch-failure path.
			if conf.HedgedFetch {
				_, hedged, won, err := j.Transport.SendHedged(tp, j.hedgeNet, mo.node, node, b)
				if hedged {
					st.HedgesSent++
				}
				if won {
					st.HedgeWins++
				}
				if err != nil {
					if !j.outputLive(mo) {
						return nil, false, true
					}
					st.FetchFailures++
					return nil, false, false
				}
			} else if _, err := j.Transport.Send(tp, mo.node, node, b); err != nil {
				if !j.outputLive(mo) {
					return nil, false, true
				}
				st.FetchFailures++
				tp.Sleep(conf.FetchRetryWait)
				return nil, false, false
			}
			st.ShuffledBytes += b
		}
		// Deserialization accumulates across map outputs and elapses at the
		// next fetch's disk acquire (or the merge charge below) — no
		// dedicated event per output.
		tp.Charge(cm.DeserTime(b))
		fetched = append(fetched, part...)
	}
	if fail {
		tp.FlushCharge() // the wasted attempt still pays its pending charges
		return nil, false, false
	}

	// Merge (sort), group and reduce as a payload over the sort-compare
	// and per-record charges (both functions of len(fetched), known now).
	pd := sim.OffloadStart(tp, func() []Pair[K, V] {
		sortByKeyHash(fetched)
		vals := make([]V, len(fetched)) // one backing array for all groups
		for i := range fetched {
			vals[i] = fetched[i].Val
		}
		var out []Pair[K, V]
		emit := func(k K, v V) { out = append(out, Pair[K, V]{k, v}) }
		i := 0
		for i < len(fetched) {
			jx := i + 1
			for jx < len(fetched) && fetched[jx].Key == fetched[i].Key {
				jx++
			}
			j.Reduce(fetched[i].Key, vals[i:jx], emit)
			i = jx
		}
		return out
	})
	merge := time.Duration(len(fetched)) * cm.HadoopPerRecord
	if n := len(fetched); n > 0 {
		merge += time.Duration(float64(n)*math.Log2(float64(n)+1)) * perCompare
	}
	tp.Sleep(merge) // one event: sort comparisons + per-record cost
	out := pd.Join()

	// Reduce output is persisted to disk (Hadoop writes to HDFS; charge
	// the local-replica write).
	c.Node(node).Scratch.Write(tp, int64(len(out))*conf.PairBytes)
	return out, true, false
}
