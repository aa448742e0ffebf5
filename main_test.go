package hpcbd

import (
	"os"
	"testing"

	"hpcbd/internal/gctune"
)

// TestMain applies the figure-regeneration GC tuning (see
// internal/gctune) to the whole test binary, so BenchmarkArtifacts
// measures the same configuration hpcbd runs with. Setting GOGC in the
// environment overrides it.
func TestMain(m *testing.M) {
	gctune.Apply()
	os.Exit(m.Run())
}
