package rda

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"hpcbd/internal/cluster"
	"hpcbd/internal/dfs"
	"hpcbd/internal/mpi"
	"hpcbd/internal/sim"
	"hpcbd/internal/workload"
)

// run executes an SPMD body over np ranks and returns the final time.
func run(np, ppn int, n int, body func(j *Job)) sim.Time {
	c := cluster.Comet(sim.NewKernel(31), (np+ppn-1)/ppn)
	return mpi.Run(c, np, ppn, func(r *mpi.Rank) {
		body(NewJob(r, r.World(), n))
	})
}

func TestGenerateMapReduce(t *testing.T) {
	n := 1024
	var got float64
	run(4, 2, n, func(j *Job) {
		a := j.Generate("iota", func(i int) float64 { return float64(i) })
		b := a.Map(func(v float64) float64 { return v * 2 })
		s := b.Reduce(mpi.OpSum)
		if j.comm.Rank(j.r) == 0 {
			got = s
		}
	})
	want := float64(n-1) * float64(n) // 2 * sum(0..n-1)
	if got != want {
		t.Errorf("reduce got %f, want %f", got, want)
	}
}

func TestZipWith(t *testing.T) {
	n := 512
	var got float64
	run(4, 2, n, func(j *Job) {
		a := j.Generate("a", func(i int) float64 { return float64(i) })
		b := j.Generate("b", func(i int) float64 { return float64(2 * i) })
		c := a.ZipWith(b, func(x, y float64) float64 { return y - x })
		got = c.Reduce(mpi.OpSum) // sum(i) over 0..n-1
	})
	want := float64(n*(n-1)) / 2
	if got != want {
		t.Errorf("zip reduce %f, want %f", got, want)
	}
}

func TestShiftMatchesSerial(t *testing.T) {
	n := 256
	for _, k := range []int{1, -1, 5, -7, 31} {
		locals := make(map[int][]float64)
		var lows []int
		run(8, 2, n, func(j *Job) {
			a := j.Generate("iota", func(i int) float64 { return float64(i * i % 97) })
			s := a.Shift(k)
			me := j.comm.Rank(j.r)
			locals[me] = append([]float64(nil), s.Local()...)
			lows = append(lows, j.lo)
		})
		// Serial reference with clamped boundaries.
		ref := make([]float64, n)
		src := func(i int) float64 { return float64(i * i % 97) }
		for i := range ref {
			g := i + k
			if g < 0 {
				g = 0
			}
			if g >= n {
				g = n - 1
			}
			ref[i] = src(g)
		}
		for me := 0; me < 8; me++ {
			lo := me * n / 8
			for i, v := range locals[me] {
				if v != ref[lo+i] {
					t.Fatalf("k=%d rank %d elem %d: got %f want %f", k, me, i, v, ref[lo+i])
				}
			}
		}
	}
}

func TestLazyUntilAccess(t *testing.T) {
	run(2, 1, 64, func(j *Job) {
		a := j.Generate("a", func(i int) float64 { return 1 })
		b := a.Map(func(v float64) float64 { return v + 1 })
		if a.valid || b.valid {
			t.Error("arrays materialized before access")
		}
		b.Materialize()
		if !a.valid || !b.valid {
			t.Error("materialize did not run the lineage")
		}
	})
}

func TestLineageRecoveryAfterDrop(t *testing.T) {
	n := 512
	var before, after float64
	recomputed := 0
	run(4, 2, n, func(j *Job) {
		a := j.Generate("a", func(i int) float64 { return float64(i) })
		b := a.Map(func(v float64) float64 { return v * 3 })
		before = b.Reduce(mpi.OpSum)
		// Lose both arrays' partitions on every rank (collective drop).
		a.Drop()
		b.Drop()
		after = b.Reduce(mpi.OpSum) // must rebuild from the generator
		if j.comm.Rank(j.r) == 0 {
			recomputed = j.Recomputed
		}
	})
	if before != after {
		t.Errorf("recovered result %f differs from original %f", after, before)
	}
	if recomputed == 0 {
		t.Error("no partitions recorded as recomputed")
	}
}

func TestShiftRecoveryNeedsCommunication(t *testing.T) {
	// Dropping a shifted array and re-reducing must re-exchange halos and
	// still match.
	n := 240
	var first, second float64
	run(6, 2, n, func(j *Job) {
		a := j.Generate("a", func(i int) float64 { return float64(i%13) + 1 })
		s := a.Shift(3)
		first = s.Reduce(mpi.OpSum)
		s.Drop()
		a.Drop()
		second = s.Reduce(mpi.OpSum)
	})
	if first != second {
		t.Errorf("shift recovery mismatch: %f vs %f", first, second)
	}
}

func TestCheckpointRestoreFasterThanDeepLineage(t *testing.T) {
	// Build a deep lineage chain; recovery via checkpoint must beat
	// recovery via full replay for compute-heavy chains.
	n := 1 << 15
	depth := 60
	elapsed := func(useCkpt bool) sim.Time {
		var recoverTime sim.Time
		run(2, 1, n, func(j *Job) {
			chain := []*Array{j.Generate("a", func(i int) float64 { return float64(i) })}
			for d := 0; d < depth; d++ {
				chain = append(chain, chain[len(chain)-1].Map(func(v float64) float64 { return v + 1 }))
			}
			last := chain[len(chain)-1]
			last.Materialize()
			if useCkpt {
				last.Checkpoint()
			}
			start := j.r.Now()
			for _, a := range chain { // a node failure loses the whole chain
				a.Drop()
			}
			last.Materialize()
			if j.comm.Rank(j.r) == 0 {
				recoverTime = j.r.Now() - start
			}
		})
		return recoverTime
	}
	replay, ckpt := elapsed(false), elapsed(true)
	if ckpt >= replay {
		t.Errorf("checkpoint restore (%v) not faster than lineage replay (%v) on deep chain", ckpt, replay)
	}
}

func TestLineageCheaperThanCheckpointForShallowChains(t *testing.T) {
	// The Spark-style tradeoff: for cheap-to-recompute data, skipping
	// checkpoints wins overall (checkpoint I/O costs more than replay).
	n := 1 << 15
	elapsed := func(useCkpt bool) sim.Time {
		c := cluster.Comet(sim.NewKernel(31), 2)
		return mpi.Run(c, 2, 1, func(r *mpi.Rank) {
			j := NewJob(r, r.World(), n)
			a := j.Generate("a", func(i int) float64 { return float64(i) }).Map(func(v float64) float64 { return v * 2 })
			a.Materialize()
			if useCkpt {
				a.Checkpoint()
			}
			a.Drop()
			a.Materialize()
		})
	}
	replayTotal, ckptTotal := elapsed(false), elapsed(true)
	if replayTotal >= ckptTotal {
		t.Errorf("shallow chain: lineage total (%v) not cheaper than checkpoint total (%v)", replayTotal, ckptTotal)
	}
}

func TestReduceProperty(t *testing.T) {
	f := func(seed int64, npRaw uint8) bool {
		np := int(npRaw)%6 + 1
		rng := rand.New(rand.NewSource(seed))
		n := (rng.Intn(40) + 1) * np
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = rng.NormFloat64()
		}
		var got float64
		run(np, 2, n, func(j *Job) {
			a := j.Generate("v", func(i int) float64 { return vals[i] })
			got = a.Reduce(mpi.OpMax)
		})
		want := math.Inf(-1)
		for _, v := range vals {
			want = math.Max(want, v)
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestReduceEmptyPartitions reduces fewer elements than ranks, so some
// partitions are empty; an empty rank must contribute the op's identity,
// not 0.
func TestReduceEmptyPartitions(t *testing.T) {
	for _, tc := range []struct {
		name string
		op   mpi.ReduceOp
		vals []float64
		want float64
	}{
		{"max", mpi.OpMax, []float64{-1, -2, -3}, -1},
		{"min", mpi.OpMin, []float64{1, 2, 3}, 1},
		{"sum", mpi.OpSum, []float64{-1, -2, -3}, -6},
	} {
		got := make([]float64, 4)
		run(4, 2, len(tc.vals), func(j *Job) {
			a := j.Generate("v", func(i int) float64 { return tc.vals[i] })
			got[j.comm.Rank(j.r)] = a.Reduce(tc.op)
		})
		for rk, g := range got {
			if g != tc.want {
				t.Errorf("%s over %v: rank %d got %v, want %v", tc.name, tc.vals, rk, g, tc.want)
			}
		}
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	n := 256
	c := cluster.Comet(sim.NewKernel(31), 2)
	fs := dfs.New(c, cluster.IPoIB(), dfs.DefaultConfig())
	var sum1, sum2 float64
	mpi.Run(c, 4, 2, func(r *mpi.Rank) {
		j := NewJob(r, r.World(), n)
		a := j.Generate("a", func(i int) float64 { return float64(i*i%31) + 1 })
		sum1 = a.Reduce(mpi.OpSum)
		if err := a.Save(fs, "/rda/a"); err != nil {
			t.Error(err)
			return
		}
		b, err := LoadArray(j, fs, "/rda/a")
		if err != nil {
			t.Error(err)
			return
		}
		// Drop the loaded array after use: recovery re-reads the DFS.
		sum2 = b.Reduce(mpi.OpSum)
		b.Drop()
		if again := b.Reduce(mpi.OpSum); again != sum2 {
			t.Errorf("recovered-from-DFS sum %f, want %f", again, sum2)
		}
	})
	if sum1 != sum2 {
		t.Errorf("round trip sum %f, want %f", sum2, sum1)
	}
	if files := fs.List("/rda/"); len(files) != 4 {
		t.Errorf("part files %v, want 4", files)
	}
}

func TestLoadMissingFails(t *testing.T) {
	c := cluster.Comet(sim.NewKernel(31), 1)
	fs := dfs.New(c, cluster.IPoIB(), dfs.DefaultConfig())
	mpi.Run(c, 1, 1, func(r *mpi.Rank) {
		j := NewJob(r, r.World(), 16)
		if _, err := LoadArray(j, fs, "/missing"); err == nil {
			t.Error("loading a missing directory succeeded")
		}
	})
}

func TestMapIndexed(t *testing.T) {
	n := 128
	var got float64
	run(4, 2, n, func(j *Job) {
		a := j.Generate("ones", func(i int) float64 { return 1 })
		b := a.MapIndexed(func(i int, v float64) float64 { return v * float64(i) })
		got = b.Reduce(mpi.OpSum)
	})
	if want := float64(n*(n-1)) / 2; got != want {
		t.Errorf("indexed map sum %f, want %f", got, want)
	}
}

func TestScatterAddMatchesSerial(t *testing.T) {
	n := 240
	targets := func(i int) []int32 {
		return []int32{int32((i + 1) % n), int32((i * 7) % n)}
	}
	// Serial reference.
	ref := make([]float64, n)
	src := func(i int) float64 { return float64(i%13) + 1 }
	for i := 0; i < n; i++ {
		for _, t := range targets(i) {
			ref[t] += src(i)
		}
	}
	for _, np := range []int{1, 3, 6} {
		locals := map[int][]float64{}
		run(np, 2, n, func(j *Job) {
			a := j.Generate("a", src)
			s := a.ScatterAdd(targets)
			locals[j.comm.Rank(j.r)] = append([]float64(nil), s.Local()...)
		})
		for me := 0; me < np; me++ {
			lo := me * n / np
			for i, v := range locals[me] {
				if diff := v - ref[lo+i]; diff > 1e-9 || diff < -1e-9 {
					t.Fatalf("np=%d rank %d elem %d: got %f want %f", np, me, i, v, ref[lo+i])
				}
			}
		}
	}
}

func TestScatterAddRecovery(t *testing.T) {
	n := 200
	var first, second float64
	run(4, 2, n, func(j *Job) {
		a := j.Generate("a", func(i int) float64 { return float64(i) })
		s := a.ScatterAdd(func(i int) []int32 { return []int32{int32((i + 3) % n)} })
		first = s.Reduce(mpi.OpSum)
		s.Drop()
		a.Drop()
		second = s.Reduce(mpi.OpSum)
	})
	if first != second {
		t.Errorf("scatter recovery mismatch: %f vs %f", first, second)
	}
}

// TestConvergedPageRank runs PageRank written entirely against the RDA
// convergence prototype and checks it against the serial oracle — the
// paper's §VIII endpoint: an HPC-runtime program with Spark-style data
// abstractions and resilience.
func TestConvergedPageRank(t *testing.T) {
	g := workload.NewGraph(9, 600, 600, 6)
	iters := 5
	want := g.SerialPageRank(iters)
	n := g.NumVertices
	results := map[int][]float64{}
	run(4, 2, n, func(j *Job) {
		ranks := j.Generate("ranks0", func(int) float64 { return 1.0 })
		for it := 0; it < iters; it++ {
			shares := ranks.MapIndexed(func(i int, v float64) float64 {
				return v / float64(g.OutDegree(i))
			})
			sums := shares.ScatterAdd(func(i int) []int32 { return g.OutEdges(i) })
			ranks = sums.Map(func(s float64) float64 {
				return (1 - workload.Damping) + workload.Damping*s
			})
		}
		results[j.comm.Rank(j.r)] = append([]float64(nil), ranks.Local()...)
	})
	for me := 0; me < 4; me++ {
		lo := me * n / 4
		for i, v := range results[me] {
			if diff := v - want[lo+i]; diff > 1e-9 || diff < -1e-9 {
				t.Fatalf("rank %d vertex %d: got %.9f want %.9f", me, lo+i, v, want[lo+i])
			}
		}
	}
}
