package sim

import (
	"math/rand"
	"testing"
)

// TestEventQueuePropertyOrder drives the queue through seeded random
// operations and, after every one, checks len() and minKey() against a
// reference model; every pop must return the strict (time, seq) minimum
// of the live set. The pushes cover the shapes the kernel produces:
// long same-timestamp runs in seq order (lockstep rounds), batches whose
// seqs arrive out of order (window folds, SetShards re-bucketing, inbox
// drains), two interleaved runs at one timestamp, and far-future
// singletons among the runs.
func TestEventQueuePropertyOrder(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var q eventQueue
		var live []event // reference model
		var seq uint64
		add := func(e event) {
			q.push(e)
			live = append(live, e)
		}
		// block reserves n consecutive seqs and returns them shuffled.
		block := func(n int) []uint64 {
			s := make([]uint64, n)
			for i := range s {
				s[i] = seq + uint64(i)
			}
			seq += uint64(n)
			rng.Shuffle(n, func(i, j int) { s[i], s[j] = s[j], s[i] })
			return s
		}
		popMin := func() event {
			m := 0
			for i := range live {
				if (evKey{t: live[i].t, seq: live[i].seq}).less(evKey{t: live[m].t, seq: live[m].seq}) {
					m = i
				}
			}
			want := live[m]
			live = append(live[:m], live[m+1:]...)
			got := q.pop()
			if got.t != want.t || got.seq != want.seq {
				t.Fatalf("seed %d: pop = (t=%d seq=%d), want strict minimum (t=%d seq=%d)",
					seed, got.t, got.seq, want.t, want.seq)
			}
			return got
		}
		check := func(op string) {
			t.Helper()
			if q.len() != len(live) {
				t.Fatalf("seed %d after %s: len() = %d, model holds %d", seed, op, q.len(), len(live))
			}
			want := maxKey
			for _, e := range live {
				if k := (evKey{t: e.t, seq: e.seq}); k.less(want) {
					want = k
				}
			}
			if got := q.minKey(); got != want {
				t.Fatalf("seed %d after %s: minKey() = %v, want %v", seed, op, got, want)
			}
		}
		for op := 0; op < 600; op++ {
			tm := Time(rng.Intn(16))
			var name string
			switch r := rng.Intn(12); {
			case r < 5:
				name = "pop"
				for n := 1 + rng.Intn(24); n > 0 && len(live) > 0; n-- {
					popMin()
				}
			case r < 7:
				name = "same-time run"
				for n := 1 + rng.Intn(40); n > 0; n-- {
					add(event{t: tm, seq: seq})
					seq++
				}
			case r < 9:
				name = "out-of-order batch"
				for _, s := range block(2 + rng.Intn(12)) {
					add(event{t: Time(rng.Intn(16)), seq: s})
				}
			case r < 10:
				name = "two runs at one timestamp"
				// Even seqs first, then the odd ones between them: the
				// second half cannot join the first half's run.
				n := 2 * (1 + rng.Intn(10))
				for i := 0; i < n; i += 2 {
					add(event{t: tm, seq: seq + uint64(i)})
				}
				for i := 1; i < n; i += 2 {
					add(event{t: tm, seq: seq + uint64(i)})
				}
				seq += uint64(n)
			default:
				name = "far-future singleton"
				add(event{t: Time(1000 + rng.Intn(1_000_000)), seq: seq})
				seq++
			}
			check(name)
		}
		// Drain: the remaining pops come out fully sorted.
		prev := evKey{t: -1}
		for len(live) > 0 {
			e := popMin()
			k := evKey{t: e.t, seq: e.seq}
			if !prev.less(k) {
				t.Fatalf("seed %d: drain out of order: %v after %v", seed, k, prev)
			}
			prev = k
			check("drain pop")
		}
	}
}

// TestEventQueueSameTimestampFIFO pushes a single long run of events at
// one timestamp in random arrival order and checks pops are exactly
// seq-ascending (the FIFO tie-break the kernel's determinism rests on).
func TestEventQueueSameTimestampFIFO(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var q eventQueue
	const n = 257
	seqs := rng.Perm(n)
	for _, s := range seqs {
		q.push(event{t: 7, seq: uint64(s)})
	}
	for want := 0; want < n; want++ {
		e := q.pop()
		if e.seq != uint64(want) {
			t.Fatalf("pop %d: got seq %d", want, e.seq)
		}
	}
}

// lockstepQueue fills a queue the way a bulk-synchronous model does:
// rounds rounds of ranks events each, one timestamp per round, and
// returns the next unused seq. Each cycle then pops an event and
// re-pushes it a whole schedule later, behind the last round.
func lockstepQueue(q *eventQueue, ranks, rounds int) uint64 {
	var seq uint64
	for r := 0; r < rounds; r++ {
		for i := 0; i < ranks; i++ {
			q.push(event{t: Time(r), seq: seq})
			seq++
		}
	}
	return seq
}

// TestEventQueueSteadyStateAllocs pins that a lockstep push/pop cycle at
// ≈2 k pending events allocates nothing per event once the queue has
// grown: nodes and runs recycle through the free lists.
func TestEventQueueSteadyStateAllocs(t *testing.T) {
	const ranks, rounds = 300, 7
	var q eventQueue
	seq := lockstepQueue(&q, ranks, rounds)
	cycle := func() {
		for i := 0; i < ranks*rounds; i++ {
			e := q.pop()
			e.t += rounds
			e.seq = seq
			seq++
			q.push(e)
		}
	}
	cycle() // warm-up
	if a := testing.AllocsPerRun(20, cycle); a != 0 {
		t.Fatalf("lockstep cycle of %d events allocates %.1f times, want 0", ranks*rounds, a)
	}
	if q.len() != ranks*rounds {
		t.Fatalf("len() = %d, want %d", q.len(), ranks*rounds)
	}
}

// BenchmarkEventQueue measures one pop plus one push (one event) on the
// queue shapes the benchmark workloads produce:
//
//   - lockstep: ≈2 k pending, ≈300 per timestamp (scale_serial);
//   - mixed: ≈40 pending, ≈35 % of events tie the previous timestamp
//     (figures);
//   - distinct: 32 k pending, every timestamp different (the
//     sim.deep_heap probe).
func BenchmarkEventQueue(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	var delay [4096]Time // precomputed, so the loop times the queue only
	shapes := []struct {
		name  string
		fill  func(q *eventQueue) uint64
		delay func(i int) Time
	}{
		{"lockstep", func(q *eventQueue) uint64 { return lockstepQueue(q, 300, 7) },
			func(int) Time { return 7 }},
		{"mixed", func(q *eventQueue) uint64 {
			for i := range delay {
				if rng.Intn(100) < 32 {
					delay[i] = 0
				} else {
					delay[i] = Time(1 + rng.Intn(1000))
				}
			}
			for i := 0; i < 40; i++ {
				q.push(event{t: Time(rng.Intn(1000)), seq: uint64(i)})
			}
			return 40
		}, func(i int) Time { return delay[i%len(delay)] }},
		{"distinct", func(q *eventQueue) uint64 {
			// t mod 32768 is an event's identity, so no two pending
			// timestamps are ever equal.
			for i := range delay {
				delay[i] = Time(32768 * (1 + rng.Intn(64)))
			}
			for i := 0; i < 32768; i++ {
				q.push(event{t: Time(i), seq: uint64(i)})
			}
			return 32768
		}, func(i int) Time { return delay[i%len(delay)] }},
	}
	for _, sh := range shapes {
		b.Run(sh.name, func(b *testing.B) {
			var q eventQueue
			seq := sh.fill(&q)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e := q.pop()
				e.t += sh.delay(i)
				e.seq = seq
				seq++
				q.push(e)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/event")
		})
	}
}
