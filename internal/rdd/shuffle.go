package rdd

import (
	"fmt"

	"hpcbd/internal/keyhash"
	"hpcbd/internal/scratch"
	"hpcbd/internal/sim"
)

// shuffleState tracks one shuffle's map outputs (the MapOutputTracker).
type shuffleState struct {
	id      int
	dep     *shuffleDep
	nOut    int
	outputs []*mapOutput // indexed by map partition; nil = missing/lost
	// everComplete marks that all outputs once existed; later missing
	// parts are losses being recomputed from lineage.
	everComplete bool
}

// mapOutput is one map task's bucketed output, resident on an executor.
type mapOutput struct {
	exec    int
	buckets any // [][]KV[K,V], indexed by reduce partition (one box total)
	sizes   []int64
}

// missingParts lists map partitions whose output is absent or stranded on
// a dead executor.
func (ss *shuffleState) missingParts(ctx *Context) []int {
	var out []int
	for i, o := range ss.outputs {
		if o == nil || !ctx.executors[o.exec].alive {
			out = append(out, i)
		}
	}
	return out
}

// fetchFailure signals that a reduce task could not fetch a map output —
// the trigger for lineage-based recovery.
type fetchFailure struct {
	shuffleID int
	mapPart   int
}

func (f fetchFailure) Error() string {
	return fmt.Sprintf("rdd: fetch failure: shuffle %d map partition %d", f.shuffleID, f.mapPart)
}

// keyHash is the deterministic partitioner hash. The typed fast paths
// (all integer widths, strings) live in internal/keyhash and are
// allocation-free; only exotic key types pay the formatted fallback.
func keyHash[K comparable](k K) uint64 { return keyhash.Hash(k) }

// newShuffle registers a shuffle dependency over parent with a typed map
// task and returns the dependency.
func newShuffle(ctx *Context, parent *meta, nOut int, runMap func(tc *taskContext, part int) error) *shuffleDep {
	dep := &shuffleDep{shuffleID: ctx.nextShuf, parent: parent, nOut: nOut}
	ctx.nextShuf++
	dep.runMapTask = runMap
	ctx.shuffles[dep.shuffleID] = &shuffleState{
		id:      dep.shuffleID,
		dep:     dep,
		nOut:    nOut,
		outputs: make([]*mapOutput, parent.nparts),
	}
	return dep
}

// writeShuffle charges the map-side shuffle write (serialize + local spill)
// and registers the output.
func writeShuffle[K comparable, V any](tc *taskContext, dep *shuffleDep, part int,
	buckets [][]KV[K, V], recBytes int64) {
	ss := tc.ctx.shuffles[dep.shuffleID]
	out := &mapOutput{exec: tc.exec.id, buckets: buckets, sizes: make([]int64, len(buckets))}
	var total int64
	for i, b := range buckets {
		out.sizes[i] = tc.logicalBytes(len(b), recBytes)
		total += out.sizes[i]
	}
	// Serialization elapses when the spill write acquires the disk, so the
	// write queues at the same virtual time with one fewer kernel event.
	tc.p.Charge(tc.ctx.C.Cost.SerTime(total))
	tc.ctx.C.Node(tc.exec.node).Scratch.Write(tc.p, total)
	if tc.live() {
		ss.outputs[part] = out
	}
}

// fetchShuffle charges a reduce task's fetch of bucket `reducePart` from
// every map output and returns the typed buckets in map-partition order.
// Shuffle payloads travel over Conf.ShuffleTransport — the one path the
// RDMA plugin accelerates — under the reliable transport: frames lost or
// corrupted on the wire are retried with checksum verification, and a
// fetch that exhausts its retry ladder (sustained loss, partition) is
// reported as a fetch failure, which the scheduler repairs by
// recomputing the map output from lineage.
func fetchShuffle[K comparable, V any](tc *taskContext, shuffleID, reducePart int) ([][]KV[K, V], error) {
	ctx := tc.ctx
	if ctx.Conf.FetchWindow > 0 {
		return fetchShuffleWindowed[K, V](tc, shuffleID, reducePart)
	}
	ss := ctx.shuffles[shuffleID]
	out := make([][]KV[K, V], 0, len(ss.outputs))
	// Deserialization is a pure local CPU charge at a fixed rate, so it is
	// accumulated across map outputs and deferred to the next kernel event
	// (typically the merge's accounting window): the task's virtual
	// completion time is unchanged (DeserTime is linear in bytes) and the
	// kernel processes no dedicated deserialization event at all.
	var deserBytes int64
	for m, mo := range ss.outputs {
		if mo == nil || !ctx.executors[mo.exec].alive {
			return nil, fetchFailure{shuffleID: shuffleID, mapPart: m}
		}
		if b := mo.sizes[reducePart]; b > 0 {
			if err := ctx.fetchOutput(tc.p, ss, m, mo, tc.exec.node, b); err != nil {
				return nil, err
			}
			deserBytes += b
		}
		out = append(out, mo.buckets.([][]KV[K, V])[reducePart])
	}
	if deserBytes > 0 {
		tc.p.Charge(ctx.C.Cost.DeserTime(deserBytes))
	}
	return out, nil
}

// fetchOutput moves map output m's b > 0 bytes for one reducer to node
// dst on proc p, the step both fetch paths take per map output. A source
// node ejected as a latency outlier is treated as Spark treats
// FetchFailed: the output is deregistered so lineage recomputes the map
// task on a healthy executor, instead of letting every reducer drain it
// at gray pace. Otherwise the map-side spill is read and, for a remote
// source, the bytes cross the shuffle transport, hedged under
// Conf.HedgedFetch. A failed fetch is returned as a fetchFailure.
func (ctx *Context) fetchOutput(p *sim.Proc, ss *shuffleState, m int, mo *mapOutput, dst int, b int64) error {
	srcNode := ctx.executors[mo.exec].node
	if ctx.Conf.HedgedFetch && srcNode != dst && ctx.shuffleNet.Ejected(srcNode) {
		ss.outputs[m] = nil
		ctx.FetchFailures++
		return fetchFailure{shuffleID: ss.id, mapPart: m}
	}
	ctx.C.Node(srcNode).Scratch.Read(p, b) // map-side spill read
	if srcNode == dst {
		return nil
	}
	if ctx.Conf.HedgedFetch {
		_, hedged, won, err := ctx.shuffleNet.SendHedged(p, ctx.hedgeNet, srcNode, dst, b)
		if hedged {
			ctx.HedgesSent++
		}
		if won {
			ctx.HedgeWins++
		}
		if err != nil {
			// Both channels failed: the output is effectively unreachable —
			// deregister it so the recompute lands somewhere this reducer
			// can actually fetch from.
			ss.outputs[m] = nil
			ctx.FetchFailures++
			return fetchFailure{shuffleID: ss.id, mapPart: m}
		}
	} else if _, err := ctx.shuffleNet.Send(p, srcNode, dst, b); err != nil {
		ctx.FetchFailures++
		p.Sleep(ctx.Conf.FetchRetryWait)
		return fetchFailure{shuffleID: ss.id, mapPart: m}
	}
	ctx.ShuffleBytes += b
	return nil
}

// fetchShuffleWindowed is the credit-based fetch used when
// Conf.FetchWindow > 0: fetches of the map outputs run concurrently but
// at most FetchWindow are in flight, and (under TaskMemory accounting)
// each in-flight fetch claims its buffer on the reducer's node before
// the bytes move. The bounded window is the reduce-side backpressure —
// a pressured reducer stalls its remaining fetches instead of buffering
// the whole shuffle in RAM — and the claim turns "no room" into a
// disk-staged fetch (mitigated) or an OOM kill (unmitigated) instead of
// silent overcommit. Buckets and errors aggregate in map-partition
// order, so the merged output and the reported failure are
// deterministic regardless of fetch completion order.
func fetchShuffleWindowed[K comparable, V any](tc *taskContext, shuffleID, reducePart int) ([][]KV[K, V], error) {
	ctx := tc.ctx
	ss := ctx.shuffles[shuffleID]
	n := len(ss.outputs)
	// Snapshot the outputs up front: a concurrent reducer hitting a fetch
	// failure may deregister entries while ours are in flight.
	outs := make([]*mapOutput, n)
	for m, mo := range ss.outputs {
		if mo == nil || !ctx.executors[mo.exec].alive {
			return nil, fetchFailure{shuffleID: shuffleID, mapPart: m}
		}
		outs[m] = mo
	}
	credits := sim.NewResource(ctx.C.K, fmt.Sprintf("fetchwin.%d.%d", shuffleID, reducePart), int64(ctx.Conf.FetchWindow))
	wg := sim.NewWaitGroup(ctx.C.K)
	buckets := make([][]KV[K, V], n)
	errs := make([]error, n)
	var deserBytes int64
	node := ctx.C.Node(tc.exec.node)
	for m := 0; m < n; m++ {
		m := m
		mo := outs[m]
		b := mo.sizes[reducePart]
		if b == 0 {
			buckets[m] = mo.buckets.([][]KV[K, V])[reducePart]
			continue
		}
		wg.Add(1)
		ctx.C.SpawnOnNode(tc.exec.node, fmt.Sprintf("fetch.%d.%d.%d", shuffleID, reducePart, m), func(fp *sim.Proc) {
			defer wg.Done()
			if credits.InUse() >= credits.Capacity() {
				ctx.FetchStalls++
			}
			credits.Acquire(fp, 1)
			defer credits.Release(1)
			if ctx.Conf.TaskMemory > 0 {
				if node.AllocMem(b) {
					defer node.FreeMem(b)
				} else if ctx.Conf.OOMMitigate {
					// Stage the buffer through scratch instead
					// (fetch-to-disk), trading I/O for RAM. The staged copy
					// is read back for the merge before the credit frees.
					ctx.SpillBytes += b
					node.Scratch.Write(fp, b)
					defer node.Scratch.Read(fp, b)
				} else {
					ctx.OOMKills++
					errs[m] = oomError{exec: tc.exec.id, req: b}
					return
				}
			}
			if errs[m] = ctx.fetchOutput(fp, ss, m, mo, tc.exec.node, b); errs[m] != nil {
				return
			}
			deserBytes += b
			buckets[m] = mo.buckets.([][]KV[K, V])[reducePart]
		})
	}
	wg.Wait(tc.p)
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if deserBytes > 0 {
		tc.p.Charge(ctx.C.Cost.DeserTime(deserBytes))
	}
	return buckets, nil
}

// bucketize partitions pairs by key hash into n buckets, optionally
// combining values per key on the map side (insertion-order deterministic).
//
// Allocation-lean: two counted passes place records into exact-size
// buckets carved out of one flat backing array (two allocations total
// regardless of n), with per-record hashes and per-bucket counts held in
// pooled scratch. The combine path replaces the per-bucket map[K]int with
// a single open-addressing table of record indices, so map-side combining
// allocates nothing beyond the output itself. Buckets are never appended
// to after construction (they share backing), which writeShuffle and the
// reduce-side merges respect by treating fetched buckets as read-only.
func bucketize[K comparable, V any](pairs []KV[K, V], n int, combine func(V, V) V) [][]KV[K, V] {
	buckets := make([][]KV[K, V], n)
	if len(pairs) == 0 {
		return buckets
	}
	nb := uint64(n)
	hp := scratch.U64(len(pairs))
	hashes := *hp
	cp := scratch.I32Zero(n)
	counts := *cp

	if combine == nil {
		for i := range pairs {
			h := keyHash(pairs[i].K)
			hashes[i] = h
			counts[h%nb]++
		}
		flat := make([]KV[K, V], len(pairs))
		off := 0
		for b, c := range counts {
			buckets[b] = flat[off : off : off+int(c)]
			off += int(c)
		}
		for i := range pairs {
			b := hashes[i] % nb
			buckets[b] = append(buckets[b], pairs[i])
		}
		scratch.PutU64(hp)
		scratch.PutI32(cp)
		return buckets
	}

	// Pass 1: dedup keys via open addressing (table holds record indices;
	// first occurrence is the representative and fixes the slot within its
	// bucket, preserving the map version's insertion order).
	ts := scratch.TableSize(len(pairs))
	tp := scratch.I32Fill(ts, -1)
	table := *tp
	mask := uint64(ts - 1)
	rp := scratch.I32(len(pairs))
	reps := *rp
	pp := scratch.I32(len(pairs))
	pos := *pp
	distinct := 0
	for i := range pairs {
		h := keyHash(pairs[i].K)
		hashes[i] = h
		slot := h & mask
		for {
			r := table[slot]
			if r < 0 {
				table[slot] = int32(i)
				reps[i] = int32(i)
				b := h % nb
				pos[i] = counts[b]
				counts[b]++
				distinct++
				break
			}
			if hashes[r] == h && pairs[r].K == pairs[i].K {
				reps[i] = r
				break
			}
			slot = (slot + 1) & mask
		}
	}

	// Pass 2: place representatives, fold duplicates in encounter order
	// (combine(acc, new), exactly as the map version did).
	flat := make([]KV[K, V], distinct)
	off := 0
	for b, c := range counts {
		buckets[b] = flat[off : off+int(c)]
		off += int(c)
	}
	for i := range pairs {
		b := hashes[i] % nb
		if r := reps[i]; int(r) == i {
			buckets[b][pos[i]] = pairs[i]
		} else {
			at := pos[r]
			buckets[b][at].V = combine(buckets[b][at].V, pairs[i].V)
		}
	}
	scratch.PutU64(hp)
	scratch.PutI32(cp)
	scratch.PutI32(tp)
	scratch.PutI32(rp)
	scratch.PutI32(pp)
	return buckets
}

// totalLen sums fetched bucket lengths (the reduce-side record count n,
// known before any merge runs — it fixes the accounting window).
func totalLen[T any](buckets [][]T) int {
	n := 0
	for _, b := range buckets {
		n += len(b)
	}
	return n
}

// maxBucketLen returns the largest fetched bucket — a capacity seed for
// the merge results keyed on distinct count.
func maxBucketLen[T any](buckets [][]T) int {
	n := 0
	for _, b := range buckets {
		if len(b) > n {
			n = len(b)
		}
	}
	return n
}

// mergeCombine folds fetched buckets into one record per key (first
// occurrence fixes order, values combined in encounter order — identical
// to the map-based merge it replaces). A pooled open-addressing table
// keyed by result position replaces the map[K]int. seed, when non-nil,
// becomes the result's initial backing (a retired buffer popped
// kernel-side by the caller).
func mergeCombine[K comparable, V any](buckets [][]KV[K, V], op func(V, V) V,
	seed []KV[K, V]) []KV[K, V] {
	total := totalLen(buckets)
	if total == 0 {
		return nil
	}
	ts := scratch.TableSize(total)
	tp := scratch.I32Fill(ts, -1)
	table := *tp
	mask := uint64(ts - 1)
	hp := scratch.U64(total)
	hashOf := *hp // hash of the key at each result position
	// Within one map's combined bucket keys are unique, so the largest
	// bucket is a lower bound on the distinct count — seeding the result
	// there (and doubling past it) avoids append's repeated regrowth.
	res := seed
	if res == nil {
		res = make([]KV[K, V], 0, maxBucketLen(buckets))
	}
	for _, b := range buckets {
		for i := range b {
			h := keyHash(b[i].K)
			slot := h & mask
			for {
				pos := table[slot]
				if pos < 0 {
					table[slot] = int32(len(res))
					hashOf[len(res)] = h
					if len(res) == cap(res) {
						nr := make([]KV[K, V], len(res), max(16, 2*cap(res)))
						copy(nr, res)
						res = nr
					}
					res = append(res, b[i])
					break
				}
				if hashOf[pos] == h && res[pos].K == b[i].K {
					res[pos].V = op(res[pos].V, b[i].V)
					break
				}
				slot = (slot + 1) & mask
			}
		}
	}
	scratch.PutI32(tp)
	scratch.PutU64(hp)
	return res
}

// mergeGroup gathers all values per key across fetched buckets
// (first-occurrence key order, values in encounter order).
func mergeGroup[K comparable, V any](buckets [][]KV[K, V]) []KV[K, []V] {
	total := totalLen(buckets)
	if total == 0 {
		return nil
	}
	ts := scratch.TableSize(total)
	tp := scratch.I32Fill(ts, -1)
	table := *tp
	mask := uint64(ts - 1)
	hp := scratch.U64(total)
	hashOf := *hp
	pp := scratch.I32(total) // group of record i, in encounter order
	pos := *pp
	cp := scratch.I32Zero(total) // records per group
	cnt := *cp
	res := make([]KV[K, []V], 0, maxBucketLen(buckets))
	ri := 0
	for _, b := range buckets {
		for i := range b {
			h := keyHash(b[i].K)
			slot := h & mask
			for {
				g := table[slot]
				if g < 0 {
					g = int32(len(res))
					table[slot] = g
					hashOf[g] = h
					if len(res) == cap(res) {
						nr := make([]KV[K, []V], len(res), max(16, 2*cap(res)))
						copy(nr, res)
						res = nr
					}
					res = append(res, KV[K, []V]{K: b[i].K})
				} else if hashOf[g] != h || res[g].K != b[i].K {
					slot = (slot + 1) & mask
					continue
				}
				pos[ri] = g
				cnt[g]++
				ri++
				break
			}
		}
	}
	// One flat backing for every group's values: res[g].V is a
	// zero-length, exactly-capped subslice, so the append pass below
	// fills in place without per-group allocations.
	flat := make([]V, 0, total)
	off := 0
	for g := range res {
		c := int(cnt[g])
		res[g].V = flat[off : off : off+c]
		off += c
	}
	ri = 0
	for _, b := range buckets {
		for i := range b {
			g := pos[ri]
			res[g].V = append(res[g].V, b[i].V)
			ri++
		}
	}
	scratch.PutI32(tp)
	scratch.PutU64(hp)
	scratch.PutI32(pp)
	scratch.PutI32(cp)
	return res
}

// mergeJoin hash-joins fetched (or narrow) buckets: index the left side,
// stream the right. The left index materializes nothing — an
// open-addressing table of first-occurrence record ids plus chained
// next-pointers (all pooled scratch) keep each key's records in encounter
// order, replacing the grouped-and-copied left side this join used to
// build. The right is streamed twice — once to count matches so the
// result needs at most one allocation, once to emit. seed, when its
// capacity suffices, becomes the result's backing (a retired buffer
// popped kernel-side by the caller). Output order matches the map-based
// join this replaces: right stream order, left values in insertion order.
func mergeJoin[K comparable, V, W any](left [][]KV[K, V], right [][]KV[K, W],
	seed []KV[K, JoinPair[V, W]]) []KV[K, JoinPair[V, W]] {
	nl := totalLen(left)
	nr := totalLen(right)
	if nr == 0 || nl == 0 {
		return nil
	}
	ts := scratch.TableSize(nl)
	tp := scratch.I32Fill(ts, -1)
	table := *tp
	mask := uint64(ts - 1)
	hp := scratch.U64(nl)
	hashes := *hp
	np := scratch.I32Fill(nl, -1) // next left record with the same key
	next := *np
	lp := scratch.I32(nl) // chain tail, valid at first-occurrence ids
	tail := *lp
	cp := scratch.I32Zero(nl) // records per key, at first-occurrence ids
	cnt := *cp
	sp := scratch.I32(len(left) + 1) // flat id of each bucket's start
	starts := *sp
	bp := scratch.I32(nl) // bucket holding each flat id
	bidx := *bp
	// rec maps a flat left id back to its record.
	rec := func(j int32) *KV[K, V] {
		b := bidx[j]
		return &left[b][j-starts[b]]
	}
	j := int32(0)
	for b := range left {
		starts[b] = j
		for i := range left[b] {
			bidx[j] = int32(b)
			h := keyHash(left[b][i].K)
			hashes[j] = h
			slot := h & mask
			for {
				r := table[slot]
				if r < 0 {
					table[slot] = j
					tail[j] = j
					cnt[j] = 1
					break
				}
				if hashes[r] == h && rec(r).K == left[b][i].K {
					next[tail[r]] = j
					tail[r] = j
					cnt[r]++
					break
				}
				slot = (slot + 1) & mask
			}
			j++
		}
	}
	starts[len(left)] = j
	// Pass 1 over the right: resolve each record's first left match and
	// count output records.
	rp := scratch.I32(nr)
	posR := *rp
	nOut := 0
	k := 0
	for _, b := range right {
		for i := range b {
			h := keyHash(b[i].K)
			posR[k] = -1
			slot := h & mask
			for {
				r := table[slot]
				if r < 0 {
					break
				}
				if hashes[r] == h && rec(r).K == b[i].K {
					posR[k] = r
					nOut += int(cnt[r])
					break
				}
				slot = (slot + 1) & mask
			}
			k++
		}
	}
	// Pass 2: emit, walking each matched key's chain in encounter order.
	res := seed
	if cap(res) < nOut {
		res = make([]KV[K, JoinPair[V, W]], 0, nOut)
	}
	k = 0
	for _, b := range right {
		for i := range b {
			for r := posR[k]; r >= 0; r = next[r] {
				res = append(res, KV[K, JoinPair[V, W]]{b[i].K, JoinPair[V, W]{rec(r).V, b[i].V}})
			}
			k++
		}
	}
	scratch.PutI32(tp)
	scratch.PutU64(hp)
	scratch.PutI32(np)
	scratch.PutI32(lp)
	scratch.PutI32(cp)
	scratch.PutI32(sp)
	scratch.PutI32(bp)
	scratch.PutI32(rp)
	return res
}

// ---- wide transformations ----

// ReduceByKey shuffles pairs by key and combines values with op, with
// map-side combining (Spark's reduceByKey). nOut <= 0 uses the default
// parallelism.
func ReduceByKey[K comparable, V any](r *RDD[KV[K, V]], op func(V, V) V, nOut int) *RDD[KV[K, V]] {
	ctx := r.m.ctx
	if nOut <= 0 {
		nOut = ctx.parallelism
	}
	recBytes := r.recBytes
	var dep *shuffleDep
	dep = newShuffle(ctx, r.m, nOut, func(tc *taskContext, part int) error {
		in, err := r.part(tc, part)
		if err != nil {
			return err
		}
		buckets := offloadRecords(tc, len(in), func() [][]KV[K, V] {
			return bucketize(in, nOut, op)
		})
		// bucketize copied every record into exact-size buckets; the
		// parent partition is dead weight from here on.
		recyclePart(tc, r, in)
		writeShuffle(tc, dep, part, buckets, recBytes)
		return nil
	})

	m := newMeta(ctx, fmt.Sprintf("reduceByKey@%s", r.m.name), nOut)
	m.wide = []*shuffleDep{dep}
	m.partr = &partitioner{n: nOut}
	out := &RDD[KV[K, V]]{m: m, recBytes: recBytes, owned: true}
	out.compute = func(tc *taskContext, part int) ([]KV[K, V], error) {
		buckets, err := fetchShuffle[K, V](tc, dep.shuffleID, part)
		if err != nil {
			return nil, err
		}
		seed := takeBuf[KV[K, V]](tc.ctx, maxBucketLen(buckets))
		res := offloadRecords(tc, totalLen(buckets), func() []KV[K, V] {
			return mergeCombine(buckets, op, seed)
		})
		return res, nil
	}
	return out
}

// GroupByKey shuffles pairs and gathers all values per key (no map-side
// combining — the shuffle-heavy primitive).
func GroupByKey[K comparable, V any](r *RDD[KV[K, V]], nOut int) *RDD[KV[K, []V]] {
	ctx := r.m.ctx
	if nOut <= 0 {
		nOut = ctx.parallelism
	}
	recBytes := r.recBytes
	var dep *shuffleDep
	dep = newShuffle(ctx, r.m, nOut, func(tc *taskContext, part int) error {
		in, err := r.part(tc, part)
		if err != nil {
			return err
		}
		buckets := offloadRecords(tc, len(in), func() [][]KV[K, V] {
			return bucketize[K, V](in, nOut, nil)
		})
		recyclePart(tc, r, in)
		writeShuffle(tc, dep, part, buckets, recBytes)
		return nil
	})

	m := newMeta(ctx, fmt.Sprintf("groupByKey@%s", r.m.name), nOut)
	m.wide = []*shuffleDep{dep}
	m.partr = &partitioner{n: nOut}
	out := &RDD[KV[K, []V]]{m: m, recBytes: recBytes * 4, owned: true}
	out.compute = func(tc *taskContext, part int) ([]KV[K, []V], error) {
		buckets, err := fetchShuffle[K, V](tc, dep.shuffleID, part)
		if err != nil {
			return nil, err
		}
		res := offloadRecords(tc, totalLen(buckets), func() []KV[K, []V] {
			return mergeGroup(buckets)
		})
		return res, nil
	}
	return out
}

// PartitionBy hash-partitions a pair RDD into nOut partitions (one
// shuffle). Joining two RDDs sharing a partitioner afterwards is narrow.
func PartitionBy[K comparable, V any](r *RDD[KV[K, V]], nOut int) *RDD[KV[K, V]] {
	ctx := r.m.ctx
	if nOut <= 0 {
		nOut = ctx.parallelism
	}
	recBytes := r.recBytes
	var dep *shuffleDep
	dep = newShuffle(ctx, r.m, nOut, func(tc *taskContext, part int) error {
		in, err := r.part(tc, part)
		if err != nil {
			return err
		}
		buckets := offloadRecords(tc, len(in), func() [][]KV[K, V] {
			return bucketize[K, V](in, nOut, nil)
		})
		recyclePart(tc, r, in)
		writeShuffle(tc, dep, part, buckets, recBytes)
		return nil
	})
	m := newMeta(ctx, fmt.Sprintf("partitionBy@%s", r.m.name), nOut)
	m.wide = []*shuffleDep{dep}
	m.partr = &partitioner{n: nOut}
	out := &RDD[KV[K, V]]{m: m, recBytes: recBytes, owned: true}
	out.compute = func(tc *taskContext, part int) ([]KV[K, V], error) {
		buckets, err := fetchShuffle[K, V](tc, dep.shuffleID, part)
		if err != nil {
			return nil, err
		}
		n := totalLen(buckets)
		seed := takeBuf[KV[K, V]](tc.ctx, n)
		res := offloadRecords(tc, n, func() []KV[K, V] {
			res := seed
			if cap(res) < n {
				res = make([]KV[K, V], 0, n)
			}
			for _, b := range buckets {
				res = append(res, b...)
			}
			return res
		})
		return res, nil
	}
	return out
}

// JoinPair is one joined value pair.
type JoinPair[V, W any] struct {
	Left  V
	Right W
}

// Join performs an inner equi-join of two pair RDDs — the pattern at the
// heart of the paper's PageRank implementations (links.join(ranks),
// Fig 5). Co-partitioned inputs join narrowly with no shuffle at all;
// otherwise both sides are shuffled (cogroup + hash join). The difference
// between those two paths is precisely the BigDataBench-vs-HiBench
// distinction of Figs 6 and 7.
func Join[K comparable, V, W any](a *RDD[KV[K, V]], b *RDD[KV[K, W]], nOut int) *RDD[KV[K, JoinPair[V, W]]] {
	ctx := a.m.ctx
	if nOut <= 0 {
		nOut = ctx.parallelism
	}
	if samePartitioner(a.m.partr, b.m.partr) && a.m.nparts == b.m.nparts {
		return narrowJoin(a, b)
	}
	var depA, depB *shuffleDep
	depA = newShuffle(ctx, a.m, nOut, func(tc *taskContext, part int) error {
		in, err := a.part(tc, part)
		if err != nil {
			return err
		}
		buckets := offloadRecords(tc, len(in), func() [][]KV[K, V] {
			return bucketize[K, V](in, nOut, nil)
		})
		recyclePart(tc, a, in)
		writeShuffle(tc, depA, part, buckets, a.recBytes)
		return nil
	})
	depB = newShuffle(ctx, b.m, nOut, func(tc *taskContext, part int) error {
		in, err := b.part(tc, part)
		if err != nil {
			return err
		}
		buckets := offloadRecords(tc, len(in), func() [][]KV[K, W] {
			return bucketize[K, W](in, nOut, nil)
		})
		recyclePart(tc, b, in)
		writeShuffle(tc, depB, part, buckets, b.recBytes)
		return nil
	})

	m := newMeta(ctx, fmt.Sprintf("join(%s,%s)", a.m.name, b.m.name), nOut)
	m.wide = []*shuffleDep{depA, depB}
	m.partr = &partitioner{n: nOut}
	out := &RDD[KV[K, JoinPair[V, W]]]{m: m, recBytes: a.recBytes + b.recBytes, owned: true}
	out.compute = func(tc *taskContext, part int) ([]KV[K, JoinPair[V, W]], error) {
		left, err := fetchShuffle[K, V](tc, depA.shuffleID, part)
		if err != nil {
			return nil, err
		}
		right, err := fetchShuffle[K, W](tc, depB.shuffleID, part)
		if err != nil {
			return nil, err
		}
		// Hash the left side, stream the right (insertion order on the
		// right keeps results deterministic). The per-record work runs as a
		// payload over the fixed n-record window; the output-dependent part
		// of the charge follows the join.
		n := totalLen(left) + totalLen(right)
		seed := takeBuf[KV[K, JoinPair[V, W]]](tc.ctx, totalLen(right))
		pd := sim.OffloadStart(tc.p, func() []KV[K, JoinPair[V, W]] {
			return mergeJoin(left, right, seed)
		})
		tc.chargeRecords(n)
		res := pd.Join()
		tc.deferRecords(len(res))
		return res, nil
	}
	return out
}

// narrowJoin joins co-partitioned RDDs partition-by-partition with no
// data movement.
func narrowJoin[K comparable, V, W any](a *RDD[KV[K, V]], b *RDD[KV[K, W]]) *RDD[KV[K, JoinPair[V, W]]] {
	m := newMeta(a.m.ctx, fmt.Sprintf("narrowJoin(%s,%s)", a.m.name, b.m.name), a.m.nparts)
	m.narrow = []*meta{a.m, b.m}
	m.prefs = a.m.prefs
	m.partr = a.m.partr
	out := &RDD[KV[K, JoinPair[V, W]]]{m: m, recBytes: a.recBytes + b.recBytes, owned: true}
	out.compute = func(tc *taskContext, part int) ([]KV[K, JoinPair[V, W]], error) {
		left, err := a.part(tc, part)
		if err != nil {
			return nil, err
		}
		right, err := b.part(tc, part)
		if err != nil {
			return nil, err
		}
		seed := takeBuf[KV[K, JoinPair[V, W]]](tc.ctx, len(right))
		pd := sim.OffloadStart(tc.p, func() []KV[K, JoinPair[V, W]] {
			return mergeJoin([][]KV[K, V]{left}, [][]KV[K, W]{right}, seed)
		})
		tc.chargeRecords(len(left) + len(right))
		res := pd.Join()
		// mergeJoin copied both sides out record-by-record into res.
		recyclePart(tc, a, left)
		recyclePart(tc, b, right)
		tc.deferRecords(len(res))
		return res, nil
	}
	return out
}

// Distinct removes duplicates via a shuffle.
func Distinct[T comparable](r *RDD[T], nOut int) *RDD[T] {
	pairs := Map(r, func(v T) KV[T, struct{}] { return KV[T, struct{}]{v, struct{}{}} })
	pairs.recBytes = r.recBytes
	reduced := ReduceByKey(pairs, func(a, _ struct{}) struct{} { return a }, nOut)
	return Keys(reduced)
}
