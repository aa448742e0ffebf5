package main

import (
	"fmt"
	"time"

	"hpcbd/internal/cluster"
	"hpcbd/internal/dfs"
	"hpcbd/internal/sim"
)

func (p *prober) probeDFS() {
	// One client creates files of 64 blocks; then 8 clients, one per
	// node, each read every file. Host time is read inside the driver
	// process, which is the only thing running while it waits.
	const blocks = 64
	files := p.n(32)
	var created, read time.Duration
	var readEvents int64
	var local, remote int64
	run := func() {
		k := sim.NewKernel(p.seed)
		c := cluster.Comet(k, 8)
		cfg := dfs.DefaultConfig()
		fs := dfs.New(c, cluster.IPoIB(), cfg)
		size := blocks * cfg.BlockSize
		k.Spawn("driver", func(q *sim.Proc) {
			t0 := time.Now()
			for f := 0; f < files; f++ {
				if err := fs.Create(q, f%8, fmt.Sprintf("/probe-%d", f), size); err != nil {
					panic(err)
				}
			}
			created = time.Since(t0)

			ev0 := k.Events()
			t0 = time.Now()
			wg := sim.NewWaitGroup(k)
			wg.Add(8)
			for node := 0; node < 8; node++ {
				c.SpawnOnNode(node, "reader", func(r *sim.Proc) {
					defer wg.Done()
					for f := 0; f < files; f++ {
						if err := fs.Read(r, node, fmt.Sprintf("/probe-%d", f), 0, size); err != nil {
							panic(err)
						}
					}
				})
			}
			wg.Wait(q)
			read = time.Since(t0)
			readEvents = k.Events() - ev0
		})
		k.Run()
		local, remote = fs.LocalReads(), fs.RemoteReads()
		k.Shutdown()
	}
	written, readBlocks := float64(files*blocks), float64(8*files*blocks)
	p.out["dfs.create_ns_per_block"] = p.nsPer(int(written), func() time.Duration { run(); return created })
	p.out["dfs.read_ns_per_block"] = p.nsPer(int(readBlocks), func() time.Duration { run(); return read })
	p.out["dfs.events_per_block_read"] = float64(readEvents) / readBlocks
	p.out["dfs.remote_read_frac"] = float64(remote) / float64(local+remote)
}
