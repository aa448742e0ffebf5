package mapred

import (
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"hpcbd/internal/cluster"
	"hpcbd/internal/sim"
)

// sliceInput serves in-memory records split into equal parts; each split
// claims to be hosted on node (split % nodes) and charges its logical
// bytes against that node's disk.
type sliceInput struct {
	c      *cluster.Cluster
	recs   []int
	splits int
	bytes  int64
}

func (si *sliceInput) Splits() []Split {
	out := make([]Split, si.splits)
	for i := range out {
		out[i] = Split{ID: i, Hosts: []int{i % si.c.Size()}, Bytes: si.bytes / int64(si.splits)}
	}
	return out
}

func (si *sliceInput) Read(p *sim.Proc, node int, s Split) []int {
	si.c.Node(node).Scratch.Read(p, s.Bytes)
	lo := s.ID * len(si.recs) / si.splits
	hi := (s.ID + 1) * len(si.recs) / si.splits
	return si.recs[lo:hi]
}

func wordCountJob(c *cluster.Cluster, recs []int, splits int, conf Config) *Job[int, int, int64] {
	return &Job[int, int, int64]{
		Cluster: c,
		Fabric:  cluster.IPoIB(),
		Name:    "wc",
		Input:   &sliceInput{c: c, recs: recs, splits: splits, bytes: 64 << 20},
		Map: func(in int, emit func(int, int64)) {
			emit(in%10, 1) // count by residue class
		},
		Reduce: func(k int, vals []int64, emit func(int, int64)) {
			var s int64
			for _, v := range vals {
				s += v
			}
			emit(k, s)
		},
		Conf: conf,
	}
}

func runJob[In any, K comparable, V any](c *cluster.Cluster, j *Job[In, K, V]) ([]Pair[K, V], Stats) {
	var out []Pair[K, V]
	var st Stats
	c.K.Spawn("client", func(p *sim.Proc) {
		out, st = j.Run(p)
	})
	c.K.Run()
	return out, st
}

func TestWordCountCorrect(t *testing.T) {
	k := sim.NewKernel(21)
	c := cluster.Comet(k, 4)
	recs := make([]int, 1000)
	for i := range recs {
		recs[i] = i
	}
	out, st := runJob(c, wordCountJob(c, recs, 8, DefaultConfig(4)))
	if len(out) != 10 {
		t.Fatalf("output keys %d, want 10", len(out))
	}
	counts := map[int]int64{}
	for _, p := range out {
		counts[p.Key] = p.Val
	}
	for k := 0; k < 10; k++ {
		if counts[k] != 100 {
			t.Errorf("key %d count %d, want 100", k, counts[k])
		}
	}
	if st.MapTasks != 8 || st.ReduceTasks != 4 {
		t.Errorf("tasks %d/%d", st.MapTasks, st.ReduceTasks)
	}
	if st.InputRecords != 1000 {
		t.Errorf("input records %d", st.InputRecords)
	}
	if st.Retries != 0 {
		t.Errorf("retries %d", st.Retries)
	}
}

func TestJobChargesHadoopOverheads(t *testing.T) {
	k := sim.NewKernel(21)
	c := cluster.Comet(k, 2)
	recs := []int{1, 2, 3}
	_, st := runJob(c, wordCountJob(c, recs, 2, DefaultConfig(2)))
	// At minimum: job overhead + a serial chain of task JVM spawns.
	min := c.Cost.HadoopJobOverhead + 2*c.Cost.HadoopTaskOverhead
	if st.Elapsed < min {
		t.Errorf("elapsed %v, want >= %v (job+task overheads)", st.Elapsed, min)
	}
}

func TestShuffleMovesOnlyRemotePartitions(t *testing.T) {
	k := sim.NewKernel(21)
	c := cluster.Comet(k, 1) // single node: nothing should cross the fabric
	recs := make([]int, 100)
	_, st := runJob(c, wordCountJob(c, recs, 4, DefaultConfig(1)))
	if st.ShuffledBytes != 0 {
		t.Errorf("single-node job shuffled %d bytes over the network", st.ShuffledBytes)
	}
	if c.BytesSent() != 0 {
		t.Errorf("fabric moved %d bytes on a single-node job", c.BytesSent())
	}
}

func TestSpillsHitDisk(t *testing.T) {
	k := sim.NewKernel(21)
	c := cluster.Comet(k, 2)
	recs := make([]int, 500)
	_, st := runJob(c, wordCountJob(c, recs, 4, DefaultConfig(2)))
	if st.SpilledBytes != 500*64 {
		t.Errorf("spilled %d, want %d (500 pairs x 64B)", st.SpilledBytes, 500*64)
	}
	var diskWrites int64
	for i := 0; i < c.Size(); i++ {
		diskWrites += c.Node(i).Scratch.BytesWritten()
	}
	if diskWrites < st.SpilledBytes {
		t.Errorf("disk writes %d < spills %d: spills not persisted", diskWrites, st.SpilledBytes)
	}
}

func TestFailedTasksAreReexecuted(t *testing.T) {
	k := sim.NewKernel(21)
	c := cluster.Comet(k, 2)
	recs := make([]int, 200)
	for i := range recs {
		recs[i] = i
	}
	conf := DefaultConfig(2)
	failed := map[string]bool{}
	conf.FailureInjector = func(task string, attempt int) bool {
		if attempt == 1 && (task == "map1" || task == "reduce0") {
			failed[task] = true
			return true
		}
		return false
	}
	out, st := runJob(c, wordCountJob(c, recs, 4, conf))
	if st.Retries != 2 {
		t.Errorf("retries %d, want 2", st.Retries)
	}
	if len(failed) != 2 {
		t.Errorf("injector hit %v", failed)
	}
	counts := map[int]int64{}
	for _, p := range out {
		counts[p.Key] += p.Val
	}
	for key := 0; key < 10; key++ {
		if counts[key] != 20 {
			t.Fatalf("after retries, key %d count %d, want 20 (exactly-once semantics)", key, counts[key])
		}
	}
}

func TestRetriesCostTime(t *testing.T) {
	elapsed := func(inject bool) sim.Time {
		k := sim.NewKernel(21)
		c := cluster.Comet(k, 2)
		recs := make([]int, 100)
		conf := DefaultConfig(2)
		if inject {
			conf.FailureInjector = func(task string, attempt int) bool {
				return attempt == 1 && task == "map0"
			}
		}
		_, st := runJob(c, wordCountJob(c, recs, 2, conf))
		return sim.Time(st.Elapsed)
	}
	clean, withFail := elapsed(false), elapsed(true)
	if withFail <= clean {
		t.Errorf("failure run (%v) not slower than clean run (%v)", withFail, clean)
	}
}

func TestReduceGroupingProperty(t *testing.T) {
	// Property: for random multisets, reduce sees each key exactly once
	// with all its values; total value mass is conserved.
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw)%200 + 1
		recs := make([]int, n)
		for i := range recs {
			recs[i] = rng.Intn(20)
		}
		k := sim.NewKernel(seed)
		c := cluster.Comet(k, 3)
		var mu sync.Mutex // reduce payloads of different partitions run on the host worker pool concurrently
		seen := map[int]int{}
		job := &Job[int, int, int64]{
			Cluster: c, Fabric: cluster.IPoIB(), Name: "p",
			Input: &sliceInput{c: c, recs: recs, splits: 3, bytes: 3 << 20},
			Map:   func(in int, emit func(int, int64)) { emit(in, 1) },
			Reduce: func(key int, vals []int64, emit func(int, int64)) {
				mu.Lock()
				seen[key]++
				mu.Unlock()
				var s int64
				for _, v := range vals {
					s += v
				}
				emit(key, s)
			},
			Conf: DefaultConfig(3),
		}
		out, _ := runJob(c, job)
		var total int64
		for _, p := range out {
			total += p.Val
		}
		if total != int64(n) {
			return false
		}
		for _, times := range seen {
			if times != 1 {
				return false
			}
		}
		// Cross-check against a serial count.
		want := map[int]int64{}
		for _, r := range recs {
			want[r]++
		}
		got := map[int]int64{}
		for _, p := range out {
			got[p.Key] = p.Val
		}
		if len(got) != len(want) {
			return false
		}
		for key, w := range want {
			if got[key] != w {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestDeterministicOutputOrder(t *testing.T) {
	runOnce := func() []Pair[int, int64] {
		k := sim.NewKernel(5)
		c := cluster.Comet(k, 4)
		recs := make([]int, 300)
		for i := range recs {
			recs[i] = (i * 7) % 13
		}
		out, _ := runJob(c, wordCountJob(c, recs, 6, DefaultConfig(4)))
		return out
	}
	a, b := runOnce(), runOnce()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("output %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestSortByKeyHashGroupsKeys(t *testing.T) {
	pairs := []Pair[string, int]{
		{"b", 1}, {"a", 1}, {"b", 2}, {"c", 1}, {"a", 2}, {"b", 3},
	}
	sortByKeyHash(pairs)
	// All equal keys must be adjacent.
	pos := map[string][]int{}
	for i, p := range pairs {
		pos[p.Key] = append(pos[p.Key], i)
	}
	for k, idxs := range pos {
		if !sort.IntsAreSorted(idxs) || idxs[len(idxs)-1]-idxs[0] != len(idxs)-1 {
			t.Errorf("key %q not contiguous: %v", k, idxs)
		}
	}
}

func TestCombinerShrinksShuffle(t *testing.T) {
	run := func(withCombiner bool) Stats {
		k := sim.NewKernel(21)
		c := cluster.Comet(k, 2)
		recs := make([]int, 1000)
		for i := range recs {
			recs[i] = i
		}
		job := wordCountJob(c, recs, 4, DefaultConfig(2))
		if withCombiner {
			job.Combine = func(_ int, vals []int64) int64 {
				var s int64
				for _, v := range vals {
					s += v
				}
				return s
			}
		}
		out, st := runJob(c, job)
		counts := map[int]int64{}
		for _, p := range out {
			counts[p.Key] += p.Val
		}
		for key := 0; key < 10; key++ {
			if counts[key] != 100 {
				t.Fatalf("combiner=%v key %d count %d, want 100", withCombiner, key, counts[key])
			}
		}
		return st
	}
	plain, combined := run(false), run(true)
	if combined.SpilledBytes >= plain.SpilledBytes {
		t.Errorf("combiner did not shrink spills: %d vs %d", combined.SpilledBytes, plain.SpilledBytes)
	}
	if combined.Elapsed >= plain.Elapsed {
		t.Errorf("combiner did not speed up the job: %v vs %v", combined.Elapsed, plain.Elapsed)
	}
}
