package hpcbd

// BenchmarkArtifacts renders every entry of core.Artifacts() as a
// sub-benchmark, at paper scale (core.Full) or, under -short, at test
// scale (core.Quick), and fails a sub-benchmark on any shape violation.
// A Pair entry runs twice, as hpcbd runs it, so its determinism is
// checked too. It prints nothing and reports no custom metric: it is an
// entry point for ad-hoc profiling of one artifact,
//
//	go test -run '^$' -bench 'Artifacts/fig4$' -benchtime 1x -benchmem -cpuprofile cpu.out .
//
// while the tracked host-cost numbers come from the ledger (BENCHMARK.json).

import (
	"testing"

	"hpcbd/internal/core"
)

func BenchmarkArtifacts(b *testing.B) {
	o := core.Full()
	if testing.Short() {
		o = core.Quick()
	}
	for _, a := range core.Artifacts() {
		b.Run(a.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := a.Run(o)
				if a.Check == nil {
					continue
				}
				var second any
				if a.Pair {
					second = a.Run(o)
				}
				for _, v := range a.Check(r, second) {
					b.Error(v)
				}
			}
		})
	}
}
