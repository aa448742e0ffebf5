package mpi

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"hpcbd/internal/cluster"
	"hpcbd/internal/sim"
)

func testCluster(nodes int) *cluster.Cluster {
	return cluster.Comet(sim.NewKernel(7), nodes)
}

func TestSendRecvDeliversPayload(t *testing.T) {
	c := testCluster(2)
	var got Message
	Run(c, 2, 1, func(r *Rank) {
		w := r.World()
		if r.Rank() == 0 {
			w.Send(r, 1, 5, "hello", 1024)
		} else {
			got = w.Recv(r, 0, 5)
		}
	})
	if got.Payload != "hello" || got.Src != 0 || got.Tag != 5 || got.Bytes != 1024 {
		t.Errorf("got %+v", got)
	}
}

func TestRendezvousLargeMessage(t *testing.T) {
	c := testCluster(2)
	big := c.Cost.MPIEagerThreshold * 100
	var sendDone, recvDone sim.Time
	Run(c, 2, 1, func(r *Rank) {
		w := r.World()
		if r.Rank() == 0 {
			w.Send(r, 1, 0, nil, big)
			sendDone = r.Now()
		} else {
			// Receiver arrives late: sender must block (rendezvous).
			r.Proc().Sleep(secs(0.5))
			w.Recv(r, 0, 0)
			recvDone = r.Now()
		}
	})
	if sendDone < sim.Time(secs(0.5)) {
		t.Errorf("large send completed at %v, before the receiver matched", sendDone)
	}
	if recvDone < sendDone {
		t.Errorf("recv completed at %v before send at %v", recvDone, sendDone)
	}
}

func TestEagerSendDoesNotBlock(t *testing.T) {
	c := testCluster(2)
	var sendDone sim.Time
	Run(c, 2, 1, func(r *Rank) {
		w := r.World()
		if r.Rank() == 0 {
			w.Send(r, 1, 0, nil, 64) // tiny: eager
			sendDone = r.Now()
		} else {
			r.Proc().Sleep(secs(1))
			w.Recv(r, 0, 0)
		}
	})
	if sendDone >= sim.Time(secs(0.5)) {
		t.Errorf("eager send blocked until %v", sendDone)
	}
}

func TestMessageOrderAndTags(t *testing.T) {
	c := testCluster(2)
	var order []int
	Run(c, 2, 1, func(r *Rank) {
		w := r.World()
		if r.Rank() == 0 {
			w.Send(r, 1, 1, 100, 64)
			w.Send(r, 1, 2, 200, 64)
			w.Send(r, 1, 1, 101, 64)
		} else {
			m := w.Recv(r, 0, 2) // out of arrival order, by tag
			order = append(order, m.Payload.(int))
			m = w.Recv(r, 0, 1)
			order = append(order, m.Payload.(int))
			m = w.Recv(r, 0, 1)
			order = append(order, m.Payload.(int))
		}
	})
	want := []int{200, 100, 101}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order %v, want %v (tag matching + FIFO per tag)", order, want)
		}
	}
}

func TestAnySource(t *testing.T) {
	c := testCluster(4)
	seen := map[int]bool{}
	Run(c, 4, 1, func(r *Rank) {
		w := r.World()
		if r.Rank() == 0 {
			for i := 0; i < 3; i++ {
				m := w.Recv(r, AnySource, AnyTag)
				seen[m.Src] = true
			}
		} else {
			w.Send(r, 0, r.Rank(), nil, 64)
		}
	})
	if len(seen) != 3 {
		t.Errorf("sources seen %v, want 3 distinct", seen)
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	c := testCluster(4)
	var after []sim.Time
	Run(c, 8, 2, func(r *Rank) {
		r.Proc().Sleep(secs(float64(r.Rank()) * 0.1)) // staggered arrival
		r.World().Barrier(r)
		after = append(after, r.Now())
	})
	minT := after[0]
	for _, ts := range after {
		if ts < minT {
			minT = ts
		}
	}
	if minT < sim.Time(secs(0.7)) {
		t.Errorf("a rank left the barrier at %v, before the slowest (0.7s) arrived", minT)
	}
}

func TestBcastAllRootsAllSizes(t *testing.T) {
	for _, np := range []int{1, 2, 3, 5, 8, 13} {
		for root := 0; root < np; root += 2 {
			c := testCluster((np + 1) / 2)
			got := make([]any, np)
			Run(c, np, 2, func(r *Rank) {
				var payload any
				if r.Rank() == root {
					payload = "data"
				}
				got[r.Rank()] = r.World().Bcast(r, root, payload, 4096)
			})
			for i, g := range got {
				if g != "data" {
					t.Fatalf("np=%d root=%d rank %d got %v", np, root, i, g)
				}
			}
		}
	}
}

// TestReduceMatchesSerial checks Reduce at every root and every op
// against a serial fold, bit for bit: max and min over random floats, sum
// over integer-valued floats (exact in any order). Every rank's input must
// be untouched, and the root's result must own its memory: it aliases no
// input and survives a second Reduce of other data on the same world, one
// element shorter, which reuses the first one's buffers and must match
// its own serial fold. Lengths on both sides of pooledF64 cover both
// snapshot buffer sources, and the shared cases pass every rank the same
// input slice.
func TestReduceMatchesSerial(t *testing.T) {
	for _, n := range []int{33, 9000} {
		for _, shared := range []bool{false, true} {
			for _, op := range []ReduceOp{OpSum, OpMax, OpMin} {
				for _, np := range []int{1, 2, 3, 4, 5, 7, 8, 9} {
					checkReduce(t, n, shared, op, np)
				}
			}
		}
	}
}

// reduceInputs draws np inputs of n elements for op, all one slice if
// shared, and their serial fold.
func reduceInputs(rng *rand.Rand, np, n int, shared bool, op ReduceOp) (inputs [][]float64, want []float64) {
	inputs = make([][]float64, np)
	for rk := range inputs {
		if shared && rk > 0 {
			inputs[rk] = inputs[0]
			continue
		}
		inputs[rk] = make([]float64, n)
		for i := range inputs[rk] {
			if op == OpSum {
				inputs[rk][i] = float64(rng.Intn(2001) - 1000)
			} else {
				inputs[rk][i] = rng.NormFloat64()
			}
		}
	}
	want = append([]float64(nil), inputs[0]...)
	for _, in := range inputs[1:] {
		for i, v := range in {
			want[i] = op.Apply(want[i], v)
		}
	}
	return inputs, want
}

// copyInputs copies inputs, keeping the shared slice shared.
func copyInputs(inputs [][]float64, shared bool) [][]float64 {
	data := make([][]float64, len(inputs))
	for rk := range data {
		if shared && rk > 0 {
			data[rk] = data[0]
		} else {
			data[rk] = append([]float64(nil), inputs[rk]...)
		}
	}
	return data
}

func checkReduce(t *testing.T, n int, shared bool, op ReduceOp, np int) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(np)*10 + int64(op)))
	inputs, want := reduceInputs(rng, np, n, shared, op)
	inputs2, want2 := reduceInputs(rng, np, n-1, shared, op)
	for root := 0; root < np; root++ {
		data, data2 := copyInputs(inputs, shared), copyInputs(inputs2, shared)
		var first, kept, second []float64
		Run(testCluster(np), np, 1, func(r *Rank) {
			w := r.World()
			out := w.Reduce(r, root, data[r.Rank()], op, 8)
			if r.Rank() == root {
				first = out
				kept = append([]float64(nil), out...)
			} else if out != nil {
				t.Errorf("n=%d shared=%v op=%d np=%d root=%d: rank %d got a non-nil result", n, shared, op, np, root, r.Rank())
			}
			w.Barrier(r)
			if out := w.Reduce(r, root, data2[r.Rank()], op, 8); r.Rank() == root {
				second = out
			}
		})
		for i := range want {
			if math.Float64bits(first[i]) != math.Float64bits(want[i]) {
				t.Fatalf("n=%d shared=%v op=%d np=%d root=%d elem %d: got %v want %v", n, shared, op, np, root, i, first[i], want[i])
			}
		}
		if !slices.Equal(second, want2) {
			t.Errorf("n=%d shared=%v op=%d np=%d root=%d: second, shorter Reduce gave a wrong result", n, shared, op, np, root)
		}
		if !slices.Equal(first, kept) {
			t.Errorf("n=%d shared=%v op=%d np=%d root=%d: result changed by a second Reduce", n, shared, op, np, root)
		}
		for rk := range data {
			if !slices.Equal(data[rk], inputs[rk]) || !slices.Equal(data2[rk], inputs2[rk]) {
				t.Errorf("n=%d shared=%v op=%d np=%d root=%d: rank %d's data changed", n, shared, op, np, root, rk)
			}
			if &data[rk][0] == &first[0] {
				t.Errorf("n=%d shared=%v op=%d np=%d root=%d: result aliases rank %d's data", n, shared, op, np, root, rk)
			}
		}
	}
}

func TestAllreduceBothAlgorithms(t *testing.T) {
	// Small vector exercises recursive doubling; large exercises the ring.
	// Integer-valued inputs keep sums exact in any order.
	val := func(rank, i int) float64 { return float64((rank*7+i*13)%11 - 5) }
	for _, op := range []ReduceOp{OpSum, OpMin} {
		for _, n := range []int{16, 64 << 10 / 8 * 4} { // 16 elems; >64KB at 8B/elem
			for _, np := range []int{2, 3, 4, 6, 8} {
				c := testCluster(np)
				results := make([][]float64, np)
				Run(c, np, 1, func(r *Rank) {
					data := make([]float64, n)
					for i := range data {
						data[i] = val(r.Rank(), i)
					}
					results[r.Rank()] = r.World().Allreduce(r, data, op, 8)
				})
				for rk := 0; rk < np; rk++ {
					for i := 0; i < n; i += n/4 + 1 {
						want := val(0, i)
						for s := 1; s < np; s++ {
							want = op.Apply(want, val(s, i))
						}
						if results[rk][i] != want {
							t.Fatalf("op=%d n=%d np=%d rank %d elem %d: got %f want %f",
								op, n, np, rk, i, results[rk][i], want)
						}
					}
				}
			}
		}
	}
}

func TestAllreduceProperty(t *testing.T) {
	// Property: allreduce(max) == serial max for random vectors, any np.
	f := func(seed int64, npRaw uint8) bool {
		np := int(npRaw)%7 + 1
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(50) + 1
		inputs := make([][]float64, np)
		for r := range inputs {
			inputs[r] = make([]float64, n)
			for i := range inputs[r] {
				inputs[r][i] = rng.NormFloat64()
			}
		}
		c := testCluster(np)
		var got []float64
		Run(c, np, 1, func(r *Rank) {
			out := r.World().Allreduce(r, inputs[r.Rank()], OpMax, 8)
			if r.Rank() == 0 {
				got = out
			}
		})
		for i := 0; i < n; i++ {
			want := math.Inf(-1)
			for rk := 0; rk < np; rk++ {
				want = math.Max(want, inputs[rk][i])
			}
			if got[i] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestGatherScatter(t *testing.T) {
	np := 5
	c := testCluster(np)
	var gathered []any
	Run(c, np, 1, func(r *Rank) {
		g := r.World().Gather(r, 2, r.Rank()*10, 64)
		if r.Rank() == 2 {
			gathered = g
		}
	})
	for i, g := range gathered {
		if g != i*10 {
			t.Errorf("gathered[%d]=%v", i, g)
		}
	}
}

func TestAllgather(t *testing.T) {
	for _, np := range []int{1, 2, 3, 6} {
		c := testCluster(np)
		results := make([][]any, np)
		Run(c, np, 1, func(r *Rank) {
			results[r.Rank()] = r.World().Allgather(r, r.Rank()+100, 64)
		})
		for rk := 0; rk < np; rk++ {
			for i := 0; i < np; i++ {
				if results[rk][i] != i+100 {
					t.Fatalf("np=%d rank %d slot %d: %v", np, rk, i, results[rk][i])
				}
			}
		}
	}
}

func TestAlltoall(t *testing.T) {
	for _, np := range []int{2, 3, 4, 5, 8} {
		c := testCluster(np)
		results := make([][]any, np)
		Run(c, np, 1, func(r *Rank) {
			items := make([]any, np)
			for i := range items {
				items[i] = r.Rank()*100 + i // message from me to i
			}
			results[r.Rank()] = r.World().Alltoall(r, items, 64)
		})
		for rk := 0; rk < np; rk++ {
			for src := 0; src < np; src++ {
				if results[rk][src] != src*100+rk {
					t.Fatalf("np=%d rank %d from %d: got %v want %d",
						np, rk, src, results[rk][src], src*100+rk)
				}
			}
		}
	}
}

func TestCommSplit(t *testing.T) {
	np := 6
	c := testCluster(np)
	sizes := make([]int, np)
	ranks := make([]int, np)
	sums := make([]float64, np)
	Run(c, np, 1, func(r *Rank) {
		w := r.World()
		sub := w.Split(r, r.Rank()%2, r.Rank())
		sizes[r.Rank()] = sub.Size()
		ranks[r.Rank()] = sub.Rank(r)
		// Collectives must work within the split comm without cross-talk.
		out := sub.Allreduce(r, []float64{float64(r.Rank())}, OpSum, 8)
		sums[r.Rank()] = out[0]
	})
	for i := 0; i < np; i++ {
		if sizes[i] != 3 {
			t.Errorf("rank %d subcomm size %d, want 3", i, sizes[i])
		}
		if ranks[i] != i/2 {
			t.Errorf("rank %d subcomm rank %d, want %d", i, ranks[i], i/2)
		}
		want := 0.0 + 2 + 4
		if i%2 == 1 {
			want = 1 + 3 + 5
		}
		if sums[i] != want {
			t.Errorf("rank %d split allreduce %f, want %f", i, sums[i], want)
		}
	}
}

func TestSendrecvRingNoDeadlock(t *testing.T) {
	np := 8
	c := testCluster(4)
	ok := make([]bool, np)
	Run(c, np, 2, func(r *Rank) {
		w := r.World()
		next, prev := (r.Rank()+1)%np, (r.Rank()+np-1)%np
		m := w.Sendrecv(r, next, 9, r.Rank(), 1<<20, prev, 9) // large: rendezvous
		ok[r.Rank()] = m.Payload.(int) == prev
	})
	for i, o := range ok {
		if !o {
			t.Errorf("rank %d ring exchange failed", i)
		}
	}
}

func TestFileReadAtAllIntLimit(t *testing.T) {
	const gb80 = int64(80e9) // the paper's dataset: 80 decimal GB
	c := testCluster(8)
	var errSmallNP error
	Run(c, 8, 1, func(r *Rank) {
		w := r.World()
		f := w.FileOpenLocal(r, "input", gb80)
		off, cnt := f.EvenChunk(r)
		if err := f.ReadAtAll(r, off, cnt); err != nil && r.Rank() == 0 {
			errSmallNP = err
		}
	})
	if !errors.Is(errSmallNP, ErrCountOverflow) {
		t.Errorf("80GB/8procs: err=%v, want ErrCountOverflow (10GB chunk > C int)", errSmallNP)
	}

	// With >=40 processes the chunks fit in an int and the read succeeds
	// — the paper: "we had to use more than 40 processes to make it work".
	c2 := testCluster(5)
	var err40 error
	Run(c2, 40, 8, func(r *Rank) {
		w := r.World()
		f := w.FileOpenLocal(r, "input", gb80)
		off, cnt := f.EvenChunk(r)
		if err := f.ReadAtAll(r, off, cnt); err != nil {
			err40 = err
		}
	})
	if err40 != nil {
		t.Errorf("80GB/40procs: unexpected error %v", err40)
	}
}

func TestFileReadChargesLocalDisk(t *testing.T) {
	c := testCluster(2)
	end := Run(c, 2, 1, func(r *Rank) {
		w := r.World()
		f := w.FileOpenLocal(r, "input", 1<<30)
		off, cnt := f.EvenChunk(r)
		if err := f.ReadAtAll(r, off, cnt); err != nil {
			t.Error(err)
		}
	})
	// 512 MiB per rank at the scratch read rate; barriers/latency are noise.
	want := 512.0 * (1 << 20) / cluster.LocalSSD().ReadBW
	got := end.Seconds()
	if got < want*0.95 || got > want*1.3 {
		t.Errorf("parallel local read took %.3fs, want ~%.2fs", got, want)
	}
	if br := c.Node(0).Scratch.BytesRead(); br != 1<<29 {
		t.Errorf("node0 read %d bytes, want 512MiB", br)
	}
}

func TestIsendOverlapsCompute(t *testing.T) {
	c := testCluster(2)
	var rank0End sim.Time
	Run(c, 2, 1, func(r *Rank) {
		w := r.World()
		if r.Rank() == 0 {
			req := w.Isend(r, 1, 0, nil, 8<<20) // 8 MiB rendezvous in background
			r.Compute(1.0)                      // overlap compute
			req.Wait(r)
			rank0End = r.Now()
		} else {
			r.Proc().Sleep(secs(0.2))
			w.Recv(r, 0, 0)
		}
	})
	// Transfer (~1.4ms) + matching (0.2s) overlaps the 1s compute.
	if rank0End > sim.Time(secs(1.1)) {
		t.Errorf("isend+compute took %v; transfer did not overlap", rank0End)
	}
}

func TestReduceLatencyScalesWithMessageSize(t *testing.T) {
	// Larger arrays must take longer; MPI's tree depth keeps growth mild.
	lat := func(elems int) float64 {
		c := testCluster(4)
		var start, end sim.Time
		Run(c, 8, 2, func(r *Rank) {
			data := make([]float64, elems)
			w := r.World()
			w.Barrier(r)
			if r.Rank() == 0 {
				start = r.Now()
			}
			w.Reduce(r, 0, data, OpSum, 4)
			if r.Rank() == 0 {
				end = r.Now()
			}
		})
		return (end - start).Seconds()
	}
	small, large := lat(16), lat(16384)
	if large <= small {
		t.Errorf("reduce latency small=%g large=%g; want growth", small, large)
	}
}

func TestCheckpointRestore(t *testing.T) {
	c := testCluster(2)
	end := Run(c, 4, 2, func(r *Rank) {
		w := r.World()
		Checkpoint(r, w, 100<<20)
		Restore(r, w, 100<<20)
	})
	if end <= 0 {
		t.Error("checkpoint/restore consumed no time")
	}
	if c.Node(0).Scratch.BytesWritten() != 200<<20 {
		t.Errorf("node0 wrote %d, want 2 ranks x 100MiB", c.Node(0).Scratch.BytesWritten())
	}
}

func TestScanInclusivePrefix(t *testing.T) {
	for _, np := range []int{1, 2, 5, 8} {
		c := testCluster((np + 1) / 2)
		results := make([][]float64, np)
		Run(c, np, 2, func(r *Rank) {
			data := []float64{float64(r.Rank() + 1), 1}
			results[r.Rank()] = r.World().Scan(r, data, OpSum, 8)
		})
		for rk := 0; rk < np; rk++ {
			wantA := 0.0
			for i := 0; i <= rk; i++ {
				wantA += float64(i + 1)
			}
			if results[rk][0] != wantA || results[rk][1] != float64(rk+1) {
				t.Fatalf("np=%d rank %d scan %v, want [%f %d]", np, rk, results[rk], wantA, rk+1)
			}
		}
	}
}

func TestExscanExclusivePrefix(t *testing.T) {
	np := 6
	c := testCluster(3)
	results := make([][]float64, np)
	Run(c, np, 2, func(r *Rank) {
		data := []float64{float64(r.Rank() + 1)}
		results[r.Rank()] = r.World().Exscan(r, data, OpSum, 8)
	})
	for rk := 1; rk < np; rk++ {
		want := 0.0
		for i := 0; i < rk; i++ {
			want += float64(i + 1)
		}
		if results[rk][0] != want {
			t.Fatalf("rank %d exscan %v, want %f", rk, results[rk], want)
		}
	}
}

func TestGathervVariableSizes(t *testing.T) {
	np := 5
	c := testCluster(3)
	var got []any
	Run(c, np, 2, func(r *Rank) {
		payload := make([]int, r.Rank()+1) // variable-size payloads
		for i := range payload {
			payload[i] = r.Rank()
		}
		g := r.World().Gatherv(r, 0, payload, int64(8*(r.Rank()+1)))
		if r.Rank() == 0 {
			got = g
		}
	})
	for rk := 0; rk < np; rk++ {
		p := got[rk].([]int)
		if len(p) != rk+1 {
			t.Fatalf("rank %d payload length %d, want %d", rk, len(p), rk+1)
		}
		for _, v := range p {
			if v != rk {
				t.Fatalf("rank %d payload %v", rk, p)
			}
		}
	}
}

func TestProbeNonBlocking(t *testing.T) {
	c := testCluster(2)
	var before, after bool
	Run(c, 2, 1, func(r *Rank) {
		w := r.World()
		if r.Rank() == 0 {
			r.Proc().Sleep(secs(0.1))
			w.Send(r, 1, 3, "x", 64)
		} else {
			before = w.Probe(r, 0, 3)
			r.Proc().Sleep(secs(0.5))
			after = w.Probe(r, 0, 3)
			if after {
				w.Recv(r, 0, 3)
			}
		}
	})
	if before {
		t.Error("probe matched before the message was sent")
	}
	if !after {
		t.Error("probe missed the delivered message")
	}
}

func TestSelfSendRecv(t *testing.T) {
	c := testCluster(1)
	var got Message
	Run(c, 1, 1, func(r *Rank) {
		w := r.World()
		w.Send(r, 0, 1, "self", 64) // eager self-send buffers locally
		got = w.Recv(r, 0, 1)
	})
	if got.Payload != "self" {
		t.Errorf("self message %v", got.Payload)
	}
}

func TestZeroByteMessage(t *testing.T) {
	c := testCluster(2)
	var ok bool
	Run(c, 2, 1, func(r *Rank) {
		w := r.World()
		if r.Rank() == 0 {
			w.Send(r, 1, 9, nil, 0)
		} else {
			m := w.Recv(r, 0, 9)
			ok = m.Bytes == 0
		}
	})
	if !ok {
		t.Error("zero-byte message mishandled")
	}
}

func TestCommDup(t *testing.T) {
	np := 4
	c := testCluster(2)
	sums := make([]float64, np)
	Run(c, np, 2, func(r *Rank) {
		w := r.World()
		d := w.Dup(r)
		// Messages on the dup must not collide with world-tagged traffic.
		out := d.Allreduce(r, []float64{1}, OpSum, 8)
		sums[r.Rank()] = out[0]
	})
	for rk, s := range sums {
		if s != float64(np) {
			t.Errorf("rank %d dup allreduce %f, want %d", rk, s, np)
		}
	}
}

func TestRMAPutFence(t *testing.T) {
	np := 4
	c := testCluster(2)
	results := make([][]float64, np)
	Run(c, np, 2, func(r *Rank) {
		w := r.World()
		win := w.WinCreate(r, "ring", np)
		// Each rank puts its id+1 into slot me of its right neighbor.
		me := r.Rank()
		win.Put(r, (me+1)%np, me, []float64{float64(me + 1)})
		win.Fence(r)
		results[me] = append([]float64(nil), win.Local(r)...)
	})
	for rk := 0; rk < np; rk++ {
		left := (rk - 1 + np) % np
		if results[rk][left] != float64(left+1) {
			t.Errorf("rank %d window %v, want slot %d = %d", rk, results[rk], left, left+1)
		}
	}
}

func TestRMAAccumulateConverges(t *testing.T) {
	np := 6
	c := testCluster(3)
	var total float64
	Run(c, np, 2, func(r *Rank) {
		w := r.World()
		win := w.WinCreate(r, "acc", 1)
		for i := 0; i < 5; i++ {
			win.Accumulate(r, 0, 0, []float64{1})
		}
		win.Fence(r)
		if r.Rank() == 0 {
			total = win.Local(r)[0]
		}
	})
	if total != float64(np*5) {
		t.Errorf("accumulated %f, want %d", total, np*5)
	}
}

func TestRMAGetRoundTrip(t *testing.T) {
	c := testCluster(2)
	var got []float64
	Run(c, 2, 1, func(r *Rank) {
		w := r.World()
		win := w.WinCreate(r, "src", 4)
		if r.Rank() == 1 {
			copy(win.Local(r), []float64{10, 20, 30, 40})
		}
		win.Fence(r)
		if r.Rank() == 0 {
			got = win.Get(r, 1, 1, 2)
		}
		win.Fence(r)
	})
	if len(got) != 2 || got[0] != 20 || got[1] != 30 {
		t.Errorf("RMA get %v, want [20 30]", got)
	}
}

func TestRMAPutIsAsyncUntilFlush(t *testing.T) {
	c := testCluster(2)
	var putReturn, flushReturn sim.Time
	Run(c, 2, 1, func(r *Rank) {
		w := r.World()
		win := w.WinCreate(r, "x", 1<<20)
		if r.Rank() == 0 {
			big := make([]float64, 1<<20)
			win.Put(r, 1, 0, big)
			putReturn = r.Now()
			win.Flush(r)
			flushReturn = r.Now()
		}
		win.Fence(r)
	})
	if putReturn >= flushReturn {
		t.Errorf("put at %v, flush at %v: put should complete locally first", putReturn, flushReturn)
	}
}

func TestFileReadAtIndependentAndBounds(t *testing.T) {
	c := testCluster(1)
	var inBounds, outOfBounds, overflow error
	Run(c, 1, 1, func(r *Rank) {
		w := r.World()
		f := w.FileOpenLocal(r, "f", 1<<20)
		inBounds = f.ReadAt(r, 100, 1000)
		outOfBounds = f.ReadAt(r, 1<<20-10, 100)
		overflow = f.ReadAt(r, 0, math.MaxInt32+1)
	})
	if inBounds != nil {
		t.Errorf("in-bounds independent read: %v", inBounds)
	}
	if outOfBounds == nil {
		t.Error("out-of-bounds read succeeded")
	}
	if !errors.Is(overflow, ErrCountOverflow) {
		t.Errorf("overflow read: %v", overflow)
	}
}

func TestEvenChunkTilesFile(t *testing.T) {
	for _, np := range []int{1, 3, 7, 64} {
		c := testCluster((np + 7) / 8)
		size := int64(1e9 + 37) // deliberately not divisible
		covered := make([]int64, np)
		offs := make([]int64, np)
		Run(c, np, 8, func(r *Rank) {
			f := r.World().FileOpenLocal(r, "f", size)
			off, cnt := f.EvenChunk(r)
			offs[r.Rank()] = off
			covered[r.Rank()] = cnt
		})
		var total int64
		for i := 0; i < np; i++ {
			total += covered[i]
			if i > 0 && offs[i] != offs[i-1]+covered[i-1] {
				t.Fatalf("np=%d rank %d chunk not contiguous", np, i)
			}
		}
		if total != size {
			t.Fatalf("np=%d chunks cover %d of %d bytes", np, total, size)
		}
	}
}
