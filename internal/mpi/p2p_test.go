package mpi

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"hpcbd/internal/cluster"
	"hpcbd/internal/sim"
)

// linearRankOf is the reference rankOf: a scan of the group.
func linearRankOf(c *Comm, r *Rank) (int, bool) {
	for i, wr := range c.group {
		if wr == r.rank {
			return i, true
		}
	}
	return 0, false
}

func TestRankOfAgreesWithLinearScan(t *testing.T) {
	const np = 24
	c := testCluster(np / 4)
	ranks := make([]*Rank, np)
	splits := make([]*Comm, np)
	dups := make([]*Comm, np)
	Run(c, np, 4, func(r *Rank) {
		me := r.Rank()
		ranks[me] = r
		// Three colors; keys run against rank order and collide, so the
		// (key, old rank) tie-break orders part of every group.
		splits[me] = r.World().Split(r, me%3, (np-me)/5)
		dups[me] = splits[me].Dup(r)
	})
	for me := 0; me < np; me++ {
		for name, comm := range map[string]*Comm{"world": ranks[me].World(), "split": splits[me], "dup": dups[me]} {
			members := 0
			for _, r := range ranks {
				want, ok := linearRankOf(comm, r)
				if !ok {
					func() {
						defer func() {
							if recover() == nil {
								t.Errorf("%s of rank %d: Rank(non-member %d) did not panic", name, me, r.rank)
							}
						}()
						comm.Rank(r)
					}()
					continue
				}
				members++
				if got := comm.Rank(r); got != want {
					t.Errorf("%s of rank %d: Rank(%d) = %d, linear scan says %d", name, me, r.rank, got, want)
				}
			}
			if members != comm.Size() {
				t.Errorf("%s of rank %d: %d members found, size %d", name, me, members, comm.Size())
			}
		}
		if splits[me].Size() != np/3 {
			t.Errorf("rank %d: split size %d, want %d", me, splits[me].Size(), np/3)
		}
	}
}

// ringAllocs is the host allocation count of one 64-rank world whose ranks
// each run rounds of body.
func ringAllocs(rounds int, body func(r *Rank)) float64 {
	const np = 64
	return testing.AllocsPerRun(2, func() {
		Run(testCluster(np/8), np, 8, func(r *Rank) {
			for i := 0; i < rounds; i++ {
				body(r)
			}
		})
	})
}

// TestSteadyStateMessageAllocs pins the allocation budget of the message
// path: once a world is warm (every rank has an envelope and a request to
// recycle, its queues have grown), a Sendrecv or a Barrier round allocates
// at most one object per message. The budget is taken as a difference
// between a short and a long run of the same world, so launch and warm-up
// cancel.
func TestSteadyStateMessageAllocs(t *testing.T) {
	const np, warm, rounds = 64, 4, 16
	cases := []struct {
		name         string
		msgsPerRound int
		body         func(r *Rank)
	}{
		{"SendrecvRing", np, func(r *Rank) {
			r.World().Sendrecv(r, (r.Rank()+1)%np, 3, nil, 64, (r.Rank()+np-1)%np, 3)
		}},
		{"Barrier", np * 6, func(r *Rank) { r.World().Barrier(r) }}, // log2(64) dissemination rounds
	}
	for _, tc := range cases {
		extra := ringAllocs(warm+rounds, tc.body) - ringAllocs(warm, tc.body)
		perMsg := extra / float64(rounds*tc.msgsPerRound)
		t.Logf("%s: %.4f allocs/message", tc.name, perMsg)
		if perMsg > 1 {
			t.Errorf("%s: %.2f allocs/message in steady state, budget 1", tc.name, perMsg)
		}
	}
}

// Seeded property test of the recycled message path.

type testMsg struct {
	id, src, dst, tag int
	bytes             int64
	isend, irecv      bool
	anySrc, anyTag    bool
	sendDelay         time.Duration // before the send is issued
}

type testRound struct {
	out       [][]*testMsg    // by sender
	in        [][]*testMsg    // by receiver
	recvDelay []time.Duration // before a receiver posts anything: lets messages arrive unexpected
}

// randomRounds draws rounds of point-to-point traffic that cannot
// deadlock whatever the timing: within a round an ordered pair carries at
// most one message and tags are unique, so a receive names exactly one
// message unless every receive of that rank is fully wild (and then no
// sender blocks on it); a blocking rendezvous Send is always met by an
// Irecv, which its receiver posts before it blocks on anything.
func randomRounds(rng *rand.Rand, np, rounds int, eagerOnly bool, eagerMax int64) []testRound {
	sizes := []int64{0, 8, 64, eagerMax}
	if !eagerOnly {
		sizes = append(sizes, eagerMax+1, 4*eagerMax, 1<<20)
	}
	delay := func() time.Duration { return time.Duration(rng.Intn(4)) * 3 * time.Microsecond }
	id := 0
	out := make([]testRound, rounds)
	for ri := range out {
		rd := testRound{out: make([][]*testMsg, np), in: make([][]*testMsg, np), recvDelay: make([]time.Duration, np)}
		wild := make([]bool, np) // receivers whose every receive is (AnySource, AnyTag)
		for d := range wild {
			wild[d] = rng.Intn(4) == 0
			rd.recvDelay[d] = delay()
		}
		for s := 0; s < np; s++ {
			for d := 0; d < np; d++ {
				if rng.Intn(3) != 0 { // self-sends included
					continue
				}
				m := &testMsg{id: id, src: s, dst: d, tag: id % 1000, bytes: sizes[rng.Intn(len(sizes))], sendDelay: delay()}
				id++
				// Nothing may block on a wild receiver: which of its
				// receives takes which message is up to arrival order.
				m.isend = rng.Intn(2) == 0 || (wild[d] && m.bytes > eagerMax)
				m.irecv = rng.Intn(2) == 0 || (!m.isend && m.bytes > eagerMax)
				if wild[d] {
					m.anySrc, m.anyTag = true, true
				} else if rng.Intn(2) == 0 {
					m.anySrc = rng.Intn(2) == 0
					m.anyTag = !m.anySrc
				}
				rd.out[s] = append(rd.out[s], m)
				rd.in[d] = append(rd.in[d], m)
			}
		}
		for d := range rd.in {
			rng.Shuffle(len(rd.in[d]), func(i, j int) { rd.in[d][i], rd.in[d][j] = rd.in[d][j], rd.in[d][i] })
		}
		out[ri] = rd
	}
	return out
}

// runRounds plays the rounds on a fresh world and returns, per rank, the
// ids of the messages it received in completion order, plus the final
// virtual time. Every received message is checked against what was sent.
func runRounds(t *testing.T, plan []testRound, np, ppn, shards, workers int, eagerOnly bool) ([][]int, sim.Time) {
	k := sim.NewKernel(11)
	k.SetParallel(workers)
	c := cluster.Comet(k, np/ppn)
	c.EnableSharding(shards)
	got := make([][]int, np)
	errs := make([][]string, np) // rank-local, so confined ranks may write inside windows
	launch := Launch
	if eagerOnly {
		launch = LaunchEager
	}
	world := launch(c, np, ppn, func(r *Rank) {
		me := r.Rank()
		w := r.World()
		fence := w.Dup(r) // its own context: a wild receive must not swallow barrier traffic
		check := func(m Message) {
			sent, ok := m.Payload.(*testMsg)
			if !ok {
				errs[me] = append(errs[me], fmt.Sprintf("payload %#v is not a message of this test", m.Payload))
				return
			}
			if m.Src != sent.src || m.Tag != sent.tag || m.Bytes != sent.bytes || sent.dst != me {
				errs[me] = append(errs[me], fmt.Sprintf("received (src %d tag %d bytes %d) at %d carrying message %+v", m.Src, m.Tag, m.Bytes, me, *sent))
			}
			got[me] = append(got[me], sent.id)
		}
		recvArgs := func(m *testMsg) (int, int) {
			src, tag := m.src, m.tag
			if m.anySrc {
				src = AnySource
			}
			if m.anyTag {
				tag = AnyTag
			}
			return src, tag
		}
		for _, rd := range plan {
			var sends, recvs []*Request
			r.Proc().Sleep(rd.recvDelay[me])
			for _, m := range rd.in[me] {
				if m.irecv {
					src, tag := recvArgs(m)
					recvs = append(recvs, w.Irecv(r, src, tag))
				}
			}
			for _, m := range rd.out[me] {
				r.Proc().Sleep(m.sendDelay)
				if m.isend {
					sends = append(sends, w.Isend(r, m.dst, m.tag, m, m.bytes))
				} else {
					w.Send(r, m.dst, m.tag, m, m.bytes)
				}
			}
			for _, m := range rd.in[me] {
				if !m.irecv {
					src, tag := recvArgs(m)
					check(w.Recv(r, src, tag))
				}
			}
			for _, q := range recvs {
				check(q.Wait(r))
			}
			for _, q := range sends {
				if m := q.Wait(r); m != (Message{}) {
					errs[me] = append(errs[me], fmt.Sprintf("send request completed with %+v", m))
				}
			}
			fence.Barrier(r)
		}
	})
	end := k.Run()
	if !world.Done() {
		t.Fatalf("shards %d workers %d: world deadlocked (%d processes blocked)", shards, workers, k.Blocked())
	}
	if eagerOnly && shards > 1 && workers > 1 && k.ShardStats().WindowEvents == 0 {
		t.Errorf("shards %d workers %d: confined world ran nothing inside a parallel window", shards, workers)
	}
	for me, es := range errs {
		for _, e := range es {
			t.Errorf("shards %d workers %d rank %d: %s", shards, workers, me, e)
		}
	}
	return got, end
}

func TestMessagePathProperty(t *testing.T) {
	const np, ppn, rounds = 16, 2, 6
	eagerMax := cluster.DefaultCostModel().MPIEagerThreshold
	for _, eagerOnly := range []bool{false, true} {
		for seed := int64(1); seed <= 3; seed++ {
			plan := randomRounds(rand.New(rand.NewSource(seed)), np, rounds, eagerOnly, eagerMax)
			var want []int // every id, once per destination
			for _, rd := range plan {
				for _, ms := range rd.in {
					for _, m := range ms {
						want = append(want, m.id)
					}
				}
			}
			var ref [][]int
			var refEnd sim.Time
			for _, shards := range []int{1, 4} {
				for _, workers := range []int{1, 2} {
					got, end := runRounds(t, plan, np, ppn, shards, workers, eagerOnly)
					seen := map[int]int{}
					for _, ids := range got {
						for _, id := range ids {
							seen[id]++
						}
					}
					for _, id := range want {
						if seen[id] != 1 {
							t.Errorf("eagerOnly %v seed %d shards %d workers %d: message %d received %d times", eagerOnly, seed, shards, workers, id, seen[id])
						}
					}
					if len(seen) != len(want) {
						t.Errorf("eagerOnly %v seed %d shards %d workers %d: %d distinct messages received, %d sent", eagerOnly, seed, shards, workers, len(seen), len(want))
					}
					if ref == nil {
						ref, refEnd = got, end
					} else if end != refEnd || !reflect.DeepEqual(got, ref) {
						t.Errorf("eagerOnly %v seed %d shards %d workers %d: receive order or end time (%v) differs from shards 1 workers 1 (%v)", eagerOnly, seed, shards, workers, end, refEnd)
					}
				}
			}
		}
	}
}

// BenchmarkSendrecvRing reports the host cost of one message of a
// world-wide Sendrecv ring at three communicator sizes; a message path
// that is O(1) in the rank count keeps ns/msg flat (what remains is the
// event heap's log depth). b.N counts ring rounds, so launching the world
// amortizes away.
func BenchmarkSendrecvRing(b *testing.B) {
	for _, np := range []int{64, 2048, 8192} {
		b.Run(fmt.Sprintf("ranks=%d", np), func(b *testing.B) {
			c := testCluster(np / 8)
			b.ReportAllocs()
			b.ResetTimer()
			Run(c, np, 8, func(r *Rank) {
				w := r.World()
				next, prev := (r.Rank()+1)%np, (r.Rank()+np-1)%np
				for i := 0; i < b.N; i++ {
					w.Sendrecv(r, next, 1, nil, 64, prev, 1)
				}
			})
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*np), "ns/msg")
		})
	}
}
