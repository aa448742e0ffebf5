package chaos

import (
	"reflect"
	"sort"
	"testing"
	"time"

	"hpcbd/internal/cluster"
	"hpcbd/internal/sim"
)

func TestScriptOrdersEvents(t *testing.T) {
	p := Script(
		Event{At: 3 * time.Second, Node: 1, Kind: NodeCrash},
		Event{At: time.Second, Node: 2, Kind: SlowStart, Factor: 2},
	)
	if p.Events[0].At != time.Second || p.Events[1].At != 3*time.Second {
		t.Errorf("events not sorted: %v", p.Events)
	}
}

func TestMTBFDeterministic(t *testing.T) {
	opts := CrashOpts{Spare: []int{0}, Downtime: 10 * time.Second}
	a := MTBF(42, 8, time.Minute, time.Hour, opts)
	b := MTBF(42, 8, time.Minute, time.Hour, opts)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different plans")
	}
	if len(a.Events) == 0 {
		t.Fatal("hour-long horizon at one-minute MTBF produced no events")
	}
	c := MTBF(43, 8, time.Minute, time.Hour, opts)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical plans")
	}
}

func TestMTBFMonotoneInFailureRate(t *testing.T) {
	horizon := time.Hour
	prev := -1
	for _, mtbf := range []time.Duration{8 * time.Minute, 4 * time.Minute, 2 * time.Minute, time.Minute} {
		n := MTBF(7, 8, mtbf, horizon, CrashOpts{}).CrashesWithin(horizon)
		if n < prev {
			t.Errorf("mtbf %v: %d crashes, fewer than %d at the lower rate", mtbf, n, prev)
		}
		prev = n
	}
	if prev == 0 {
		t.Fatal("highest rate produced no crashes")
	}
}

func TestMTBFSparesNodes(t *testing.T) {
	p := MTBF(11, 4, time.Minute, time.Hour, CrashOpts{Spare: []int{0, 2}})
	for _, e := range p.Events {
		if e.Node == 0 || e.Node == 2 {
			t.Fatalf("spared node crashed: %v", e)
		}
	}
}

// TestMTBFNestedIsNested asserts the structural property the §VI-D sweep
// leans on: the crash set of every lower-rate plan is a subset — same
// times, same victims — of every higher-rate plan's, so raising the
// failure rate only adds faults, never moves them.
func TestMTBFNestedIsNested(t *testing.T) {
	mtbfs := []time.Duration{4 * time.Minute, 2 * time.Minute, time.Minute}
	plans := MTBFNested(99, 8, mtbfs, time.Hour, CrashOpts{Spare: []int{0}, Downtime: time.Minute})
	if len(plans) != len(mtbfs) {
		t.Fatalf("got %d plans for %d mtbfs", len(plans), len(mtbfs))
	}
	key := func(e Event) [3]int64 { return [3]int64{int64(e.At), int64(e.Node), int64(e.Kind)} }
	for i := 0; i+1 < len(plans); i++ {
		// plans[i+1] has the shorter MTBF, so it must contain plans[i].
		super := map[[3]int64]bool{}
		for _, e := range plans[i+1].Events {
			super[key(e)] = true
		}
		for _, e := range plans[i].Events {
			if !super[key(e)] {
				t.Errorf("event %v of the %v plan missing from the %v plan", e, mtbfs[i], mtbfs[i+1])
			}
		}
		if len(plans[i].Events) > len(plans[i+1].Events) {
			t.Errorf("%v plan has more events (%d) than the %v plan (%d)",
				mtbfs[i], len(plans[i].Events), mtbfs[i+1], len(plans[i+1].Events))
		}
	}
	last := plans[len(plans)-1]
	if last.CrashesWithin(time.Hour) == 0 {
		t.Fatal("shortest-MTBF plan has no crashes")
	}
	for _, e := range last.Events {
		if e.Node == 0 {
			t.Fatalf("spared node 0 crashed: %v", e)
		}
	}
}

func TestCrashesWithin(t *testing.T) {
	p := Script(
		Event{At: time.Second, Node: 1, Kind: NodeCrash},
		Event{At: 2 * time.Second, Node: 1, Kind: NodeRecover},
		Event{At: 3 * time.Second, Node: 2, Kind: NodeCrash},
	)
	if got := p.CrashesWithin(2 * time.Second); got != 1 {
		t.Errorf("CrashesWithin(2s) = %d, want 1", got)
	}
	if got := p.CrashesWithin(time.Hour); got != 2 {
		t.Errorf("CrashesWithin(1h) = %d, want 2", got)
	}
}

func TestStragglersDistinctNonSparedVictims(t *testing.T) {
	p := Stragglers(5, 8, 3, 4.0, time.Second, time.Minute, CrashOpts{Spare: []int{0}})
	seen := map[int]bool{}
	starts := 0
	for _, e := range p.Events {
		if e.Kind != SlowStart {
			continue
		}
		starts++
		if e.Node == 0 {
			t.Fatalf("spared node slowed: %v", e)
		}
		if seen[e.Node] {
			t.Fatalf("node %d slowed twice", e.Node)
		}
		seen[e.Node] = true
		if e.Factor != 4.0 {
			t.Errorf("factor %v, want 4.0", e.Factor)
		}
	}
	if starts != 3 {
		t.Errorf("%d stragglers, want 3", starts)
	}
}

// TestEngineAppliesTransitions replays one of each fault kind and checks
// the cluster ends in the state the plan describes, with the engine
// counters matching.
func TestEngineAppliesTransitions(t *testing.T) {
	k := sim.NewKernel(1)
	c := cluster.Comet(k, 4)
	eng := Install(c, Script(
		Event{At: 1 * time.Second, Node: 1, Kind: NodeCrash},
		Event{At: 2 * time.Second, Node: 1, Kind: NodeRecover},
		Event{At: 3 * time.Second, Node: 2, Kind: SlowStart, Factor: 3},
		Event{At: 4 * time.Second, Node: 3, Kind: NICDegrade, Factor: 2},
		Event{At: 5 * time.Second, Node: 3, Kind: NICRestore},
		Event{At: 6 * time.Second, Node: 0, Kind: DiskFaults, Count: 2},
	))
	var mid struct {
		deadDuringCrash bool
		downCount       int
		diskErrs        int
	}
	k.Spawn("observer", func(p *sim.Proc) {
		p.Sleep(1500 * time.Millisecond)
		mid.deadDuringCrash = !c.NodeAlive(1)
		p.Sleep(time.Second) // t=2.5s, after recovery
		mid.downCount = c.DownCount(1)
		p.Sleep(4 * time.Second) // t=6.5s, after the disk faults armed
		for i := 0; i < 3; i++ {
			if c.Node(0).Scratch.ReadChecked(p, 1<<20, 1) != nil {
				mid.diskErrs++
			}
		}
	})
	k.Run()
	if !mid.deadDuringCrash {
		t.Error("node 1 not dead between crash and recovery")
	}
	if mid.downCount != 1 {
		t.Errorf("down count %d, want 1", mid.downCount)
	}
	if !c.NodeAlive(1) || c.Health(1) != cluster.Alive {
		t.Error("node 1 not restored")
	}
	if c.Health(2) != cluster.Degraded || c.Node(2).ComputeScale() != 3 {
		t.Errorf("node 2: health %v scale %v, want degraded x3", c.Health(2), c.Node(2).ComputeScale())
	}
	if c.Health(3) != cluster.Alive || c.Node(3).NICScale() != 1 {
		t.Errorf("node 3 NIC not restored: health %v scale %v", c.Health(3), c.Node(3).NICScale())
	}
	want := Engine{C: c, Crashes: 1, Recoveries: 1, Slowdowns: 1, NICFaults: 1, DiskErrors: 2}
	if eng.Summary() != want.Summary() {
		t.Errorf("counters %s, want %s", eng.Summary(), want.Summary())
	}
	// The armed disk faults surfaced as ErrDiskFault on exactly the next
	// two checked reads.
	if mid.diskErrs != 2 {
		t.Errorf("%d injected disk errors surfaced, want 2", mid.diskErrs)
	}
}

// TestInstallMidRun checks that a plan installed from inside a running
// process schedules relative to the current virtual time — the staging
// idiom the sweep uses so faults land on the measured region only.
func TestInstallMidRun(t *testing.T) {
	k := sim.NewKernel(3)
	c := cluster.Comet(k, 2)
	var aliveAtTen, aliveAtTwelve bool
	k.Spawn("driver", func(p *sim.Proc) {
		p.Sleep(10 * time.Second) // "staging"
		aliveAtTen = c.NodeAlive(1)
		Install(c, Script(Event{At: time.Second, Node: 1, Kind: NodeCrash}))
		p.Sleep(2 * time.Second)
		aliveAtTwelve = c.NodeAlive(1)
	})
	k.Run()
	if !aliveAtTen {
		t.Error("node 1 dead before the plan was installed")
	}
	if aliveAtTwelve {
		t.Error("crash scheduled at install+1s had not fired by install+2s")
	}
}

// GrayNodes picks `count` distinct non-spared victims, pairs every
// GrayStart with a GrayEnd when a length is given, and carries the
// factor and loss through to each event.
func TestGrayNodesDistinctNonSparedVictims(t *testing.T) {
	p := GrayNodes(5, 8, 3, 8.0, 0.15, time.Second, time.Minute, CrashOpts{Spare: []int{0}})
	seen := map[int]bool{}
	starts, ends := 0, 0
	for _, e := range p.Events {
		switch e.Kind {
		case GrayStart:
			starts++
			if e.Node == 0 {
				t.Fatalf("spared node grayed: %v", e)
			}
			if seen[e.Node] {
				t.Fatalf("node %d grayed twice", e.Node)
			}
			seen[e.Node] = true
			if e.Factor != 8.0 || e.Loss != 0.15 {
				t.Errorf("factor/loss %v/%v, want 8.0/0.15", e.Factor, e.Loss)
			}
		case GrayEnd:
			ends++
			if !seen[e.Node] {
				t.Fatalf("GrayEnd for node %d that never grayed", e.Node)
			}
			if e.At != time.Second+time.Minute {
				t.Errorf("GrayEnd at %v, want %v", e.At, time.Second+time.Minute)
			}
		default:
			t.Fatalf("unexpected event kind in a gray plan: %v", e)
		}
	}
	if starts != 3 || ends != 3 {
		t.Errorf("%d starts / %d ends, want 3/3", starts, ends)
	}
	// Zero length means gray forever: no GrayEnd events at all.
	forever := GrayNodes(5, 8, 3, 8.0, 0.15, time.Second, 0, CrashOpts{})
	for _, e := range forever.Events {
		if e.Kind == GrayEnd {
			t.Fatalf("zero-length plan has a GrayEnd: %v", e)
		}
	}
}

// For a fixed seed the victim set at a lower count is a strict prefix
// of the set at any higher count — raising the gray fraction only adds
// sick nodes, the property the tail sweep's monotonicity checks lean
// on. Stragglers shares the construction, so it inherits the property.
func TestGrayNodesVictimPrefixAndDeterminism(t *testing.T) {
	victims := func(p *Plan, k Kind) []int {
		var v []int
		for _, e := range p.Events {
			if e.Kind == k {
				v = append(v, e.Node)
			}
		}
		sort.Ints(v)
		return v
	}
	prev := map[int]bool{}
	for count := 1; count <= 4; count++ {
		a := victims(GrayNodes(11, 10, count, 8.0, 0.1, time.Second, 0, CrashOpts{Spare: []int{0}}), GrayStart)
		b := victims(GrayNodes(11, 10, count, 8.0, 0.1, time.Second, 0, CrashOpts{Spare: []int{0}}), GrayStart)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("count %d nondeterministic: %v vs %v", count, a, b)
		}
		if len(a) != count {
			t.Fatalf("count %d picked %d victims", count, len(a))
		}
		for n := range prev {
			found := false
			for _, m := range a {
				if m == n {
					found = true
				}
			}
			if !found {
				t.Fatalf("victim %d at the lower count missing at count %d (%v)", n, count, a)
			}
		}
		for _, m := range a {
			prev[m] = true
		}
		s := victims(Stragglers(11, 10, count, 4.0, time.Second, 0, CrashOpts{Spare: []int{0}}), SlowStart)
		if !reflect.DeepEqual(a, s) {
			t.Fatalf("count %d: GrayNodes victims %v differ from Stragglers victims %v (same seed)", count, a, s)
		}
	}
}

// The partition plan constructors are pointed, not stochastic: the
// sweeps need the leader cut off, not maybe cut off.
func TestPartitionPlanConstruction(t *testing.T) {
	p := SplitBrain([]int{3}, time.Second, 2*time.Second)
	if len(p.Events) != 2 {
		t.Fatalf("SplitBrain: %d events, want 2", len(p.Events))
	}
	if e := p.Events[0]; e.Kind != PartitionStart || e.At != time.Second ||
		len(e.Groups) != 1 || len(e.Groups[0]) != 1 || e.Groups[0][0] != 3 {
		t.Fatalf("bad PartitionStart: %v", e)
	}
	if e := p.Events[1]; e.Kind != PartitionHeal || e.At != 3*time.Second {
		t.Fatalf("bad PartitionHeal: %v", e)
	}

	// Zero length means a permanent cut: no heal event.
	forever := SplitBrain([]int{0, 1}, time.Second, 0)
	if len(forever.Events) != 1 || forever.Events[0].Kind != PartitionStart {
		t.Fatalf("zero-length SplitBrain should have exactly the start event: %v", forever.Events)
	}

	// SplitBrain copies the minority slice; mutating the caller's slice
	// must not rewrite the plan.
	min := []int{2, 5}
	sb := SplitBrain(min, time.Second, time.Second)
	min[0] = 9
	if sb.Events[0].Groups[0][0] != 2 {
		t.Fatalf("SplitBrain aliased the caller's minority slice")
	}
}

func TestFlappingPartitionConstruction(t *testing.T) {
	p := FlappingPartition([]int{1}, time.Second, 500*time.Millisecond, 3)
	if len(p.Events) != 6 {
		t.Fatalf("3 cycles should emit 6 events, got %d", len(p.Events))
	}
	for i := 0; i < 3; i++ {
		start := time.Second + time.Duration(2*i)*500*time.Millisecond
		if e := p.Events[2*i]; e.Kind != PartitionStart || e.At != start {
			t.Fatalf("cycle %d start: %v", i, e)
		}
		if e := p.Events[2*i+1]; e.Kind != PartitionHeal || e.At != start+500*time.Millisecond {
			t.Fatalf("cycle %d heal: %v", i, e)
		}
	}
}

// The overload constructors share the seeded prefix-nested victim
// construction with GrayNodes, and MemPressure and DiskFull at the same
// seed walk the same permutation — combined memory+disk pressure lands
// on the same machines by construction, not by luck.
func TestOverloadPlanConstruction(t *testing.T) {
	p := MemPressure(5, 8, 3, 0.9, time.Second, time.Minute, CrashOpts{Spare: []int{0}})
	seen := map[int]bool{}
	starts, ends := 0, 0
	for _, e := range p.Events {
		switch e.Kind {
		case MemHogStart:
			starts++
			if e.Node == 0 {
				t.Fatalf("spared node hogged: %v", e)
			}
			if seen[e.Node] {
				t.Fatalf("node %d hogged twice", e.Node)
			}
			seen[e.Node] = true
			if e.Factor != 0.9 {
				t.Errorf("frac %v, want 0.9", e.Factor)
			}
		case MemHogEnd:
			ends++
			if e.At != time.Second+time.Minute {
				t.Errorf("MemHogEnd at %v, want %v", e.At, time.Second+time.Minute)
			}
		default:
			t.Fatalf("unexpected event kind in a mem-pressure plan: %v", e)
		}
	}
	if starts != 3 || ends != 3 {
		t.Errorf("%d starts / %d ends, want 3/3", starts, ends)
	}
	// Zero length hogs forever: no end events at all.
	for _, e := range MemPressure(5, 8, 3, 0.9, time.Second, 0, CrashOpts{}).Events {
		if e.Kind == MemHogEnd {
			t.Fatalf("zero-length plan has a MemHogEnd: %v", e)
		}
	}
	// Nonpositive pressure is a no-op plan, not a panic.
	if n := len(MemPressure(5, 8, 3, 0, time.Second, 0, CrashOpts{}).Events); n != 0 {
		t.Errorf("zero-frac plan has %d events, want 0", n)
	}

	victims := func(p *Plan, k Kind) map[int]bool {
		v := map[int]bool{}
		for _, e := range p.Events {
			if e.Kind == k {
				v[e.Node] = true
			}
		}
		return v
	}
	mem := victims(MemPressure(11, 10, 6, 0.9, time.Second, 0, CrashOpts{}), MemHogStart)
	disk := victims(DiskFull(11, 10, 3, 1.0, time.Second, 0, CrashOpts{}), DiskFillStart)
	if len(disk) != 3 {
		t.Fatalf("DiskFull picked %d victims, want 3", len(disk))
	}
	for n := range disk {
		if !mem[n] {
			t.Fatalf("disk victim %d not among the same-seed memory victims %v", n, mem)
		}
	}
}

// JobStorm is the offered-load axis: count submissions with distinct
// job indices, spread deterministically over the window.
func TestJobStormConstruction(t *testing.T) {
	a := JobStorm(7, 12, 5*time.Millisecond, 200*time.Millisecond)
	b := JobStorm(7, 12, 5*time.Millisecond, 200*time.Millisecond)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different storms")
	}
	if len(a.Events) != 12 {
		t.Fatalf("%d events, want 12", len(a.Events))
	}
	jobs := map[int]bool{}
	for i, e := range a.Events {
		if e.Kind != JobSubmit {
			t.Fatalf("unexpected kind %v in a storm", e.Kind)
		}
		if e.At < 5*time.Millisecond || e.At >= 205*time.Millisecond {
			t.Fatalf("submission at %v outside [5ms, 205ms)", e.At)
		}
		if i > 0 && e.At < a.Events[i-1].At {
			t.Fatalf("events not sorted: %v", a.Events)
		}
		jobs[e.Count] = true
	}
	if len(jobs) != 12 {
		t.Fatalf("job indices not distinct: %v", jobs)
	}
	// Zero spread: every submission at the same instant.
	for _, e := range JobStorm(7, 3, time.Second, 0).Events {
		if e.At != time.Second {
			t.Fatalf("zero-spread submission at %v", e.At)
		}
	}
}

// The engine end of the overload kinds: hogs claim real accounted
// bytes, releases return exactly what was claimed, and JobSubmit fires
// the OnJob hook with the event's index.
func TestEngineAppliesOverload(t *testing.T) {
	k := sim.NewKernel(3)
	c := cluster.Comet(k, 2)
	c.Node(1).Scratch.SetCapacity(100 << 30)
	plan := Script(
		Event{At: time.Millisecond, Node: 1, Kind: MemHogStart, Factor: 0.5},
		Event{At: time.Millisecond, Node: 1, Kind: DiskFillStart, Factor: 1.0},
		Event{At: 2 * time.Millisecond, Kind: JobSubmit, Count: 42},
		Event{At: 3 * time.Millisecond, Node: 1, Kind: MemHogEnd},
		Event{At: 3 * time.Millisecond, Node: 1, Kind: DiskFillEnd},
	)
	eng := Install(c, plan)
	var gotJob int
	eng.OnJob = func(job int) { gotJob = job }

	memAt2, diskAt2 := int64(-1), int64(-1)
	k.After(2500*time.Microsecond, func() {
		memAt2, diskAt2 = c.Node(1).MemFree(), c.Node(1).Scratch.FreeBytes()
	})
	k.Run()

	half := c.Node(1).Spec.MemBytes / 2
	if memAt2 != c.Node(1).Spec.MemBytes-half {
		t.Errorf("mid-hog MemFree %d, want %d", memAt2, c.Node(1).Spec.MemBytes-half)
	}
	if diskAt2 != 0 {
		t.Errorf("mid-fill disk free %d, want 0 (frac 1.0 fills completely)", diskAt2)
	}
	if c.Node(1).MemFree() != c.Node(1).Spec.MemBytes {
		t.Errorf("MemHogEnd did not release: free %d", c.Node(1).MemFree())
	}
	if c.Node(1).Scratch.FreeBytes() != 100<<30 {
		t.Errorf("DiskFillEnd did not release: free %d", c.Node(1).Scratch.FreeBytes())
	}
	if gotJob != 42 {
		t.Errorf("OnJob got %d, want 42", gotJob)
	}
	if eng.MemHogs != 1 || eng.DiskFills != 1 || eng.JobsSubmitted != 1 {
		t.Errorf("counters hogs=%d fills=%d jobs=%d, want 1/1/1", eng.MemHogs, eng.DiskFills, eng.JobsSubmitted)
	}
	if eng.HoggedBytes != 0 || eng.FilledBytes != 0 {
		t.Errorf("outstanding bytes after release: mem=%d disk=%d", eng.HoggedBytes, eng.FilledBytes)
	}
}

// The overload kinds render like every other plan line: a human reads
// frac and job index straight off Plan.String().
func TestOverloadEventRendering(t *testing.T) {
	cases := []struct {
		e    Event
		want string
	}{
		{Event{At: time.Second, Node: 3, Kind: MemHogStart, Factor: 0.9}, "   1.000s node3 mem-hog frac=0.90"},
		{Event{At: time.Second, Node: 3, Kind: MemHogEnd}, "   1.000s node3 mem-hog-end"},
		{Event{At: 2 * time.Second, Node: 1, Kind: DiskFillStart, Factor: 1}, "   2.000s node1 disk-fill frac=1.00"},
		{Event{At: 2 * time.Second, Node: 1, Kind: DiskFillEnd}, "   2.000s node1 disk-fill-end"},
		{Event{At: 5 * time.Millisecond, Kind: JobSubmit, Count: 42}, "   0.005s job-submit #42"},
	}
	for _, c := range cases {
		if got := c.e.String(); got != c.want {
			t.Errorf("%v renders %q, want %q", c.e.Kind, got, c.want)
		}
	}
}
