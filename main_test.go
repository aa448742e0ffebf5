package hpcbd

import (
	"fmt"
	"os"
	"strconv"
	"testing"

	"hpcbd/internal/gctune"
)

// TestMain applies the figure-regeneration GC tuning (see
// internal/gctune) to the whole test binary, so `go test -bench .`
// measures the same configuration the cmd/ CLIs run with. Setting GOGC
// in the environment overrides it.
//
// HPCBD_SHARDS=<n> runs the entire binary — golden digests included —
// on n event shards, and HPCBD_WORKERS=<n> adds parallel window
// dispatch on top, so the committed digests prove byte-identical output
// at any shard and worker count:
//
//	HPCBD_SHARDS=4 HPCBD_WORKERS=2 go test -run TestGolden .
func TestMain(m *testing.M) {
	gctune.Apply()
	for _, e := range []struct {
		name string
		set  func(int)
	}{{"HPCBD_SHARDS", SetShards}, {"HPCBD_WORKERS", SetWorkers}} {
		if v := os.Getenv(e.name); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 {
				fmt.Fprintf(os.Stderr, "bad %s %q\n", e.name, v)
				os.Exit(2)
			}
			e.set(n)
		}
	}
	os.Exit(m.Run())
}
