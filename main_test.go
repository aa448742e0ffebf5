package hpcbd

import (
	"os"
	"testing"

	"hpcbd/internal/gctune"
)

// TestMain applies the figure-regeneration GC tuning (see
// internal/gctune) to the whole test binary, so `go test -bench .`
// measures the same configuration the cmd/ CLIs run with. Setting GOGC
// in the environment overrides it.
func TestMain(m *testing.M) {
	gctune.Apply()
	os.Exit(m.Run())
}
