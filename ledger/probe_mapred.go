package main

import (
	"time"

	"hpcbd/internal/cluster"
	"hpcbd/internal/mapred"
	"hpcbd/internal/sim"
)

// sliceInput serves in-memory records in equal splits; split i is hosted
// on node i mod nodes and its logical bytes are charged to that node's
// scratch disk.
type sliceInput struct {
	c      *cluster.Cluster
	recs   []int
	splits int
	bytes  int64
}

func (si *sliceInput) Splits() []mapred.Split {
	out := make([]mapred.Split, si.splits)
	for i := range out {
		out[i] = mapred.Split{ID: i, Hosts: []int{i % si.c.Size()}, Bytes: si.bytes / int64(si.splits)}
	}
	return out
}

func (si *sliceInput) Read(p *sim.Proc, node int, s mapred.Split) []int {
	si.c.Node(node).Scratch.Read(p, s.Bytes)
	lo := s.ID * len(si.recs) / si.splits
	hi := (s.ID + 1) * len(si.recs) / si.splits
	return si.recs[lo:hi]
}

func (p *prober) probeMapRed() {
	// One word-count-shaped job on 4 nodes: map, sorted spill, shuffle,
	// merge, reduce.
	n := p.n(200000)
	recs := make([]int, n)
	for i := range recs {
		recs[i] = i
	}
	job := func() (dt time.Duration) {
		k := sim.NewKernel(p.seed)
		c := cluster.Comet(k, 4)
		j := &mapred.Job[int, int, int64]{
			Cluster: c,
			Fabric:  cluster.IPoIB(),
			Name:    "probe",
			Input:   &sliceInput{c: c, recs: recs, splits: 16, bytes: 1 << 30},
			Map:     func(in int, emit func(int, int64)) { emit(in%1024, 1) },
			Reduce: func(key int, vals []int64, emit func(int, int64)) {
				var sum int64
				for _, v := range vals {
					sum += v
				}
				emit(key, sum)
			},
			Conf: mapred.DefaultConfig(4),
		}
		k.Spawn("client", func(q *sim.Proc) {
			t0 := time.Now()
			j.Run(q)
			dt = time.Since(t0)
		})
		k.Run()
		k.Shutdown()
		return dt
	}
	p.out["mapred.job_ns_per_record"] = p.nsPer(n, job)
	p.out["mapred.allocs_per_record"] = mallocsDuring(func() { job() }) / float64(n)
}
