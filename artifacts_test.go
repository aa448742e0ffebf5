package hpcbd

// TestArtifacts drives every entry of core.Artifacts() once, one subtest
// per entry (`go test -run TestArtifacts/fig4 .`):
//
//   - a pinned table or figure renders once at its golden scale (Full);
//     its renderings must match testdata/golden.sum and the same result
//     must pass its shape check;
//   - a sweep renders once at Quick on the serial host, as the serial
//     reference its Test*SweepPoolInvariance cell reuses; that run is
//     digested and shape-checked here, and the cell's pool 8 run checks
//     determinism and pool invariance against it;
//   - an unpinned entry (table1, fig3-shmem, persist, scale, the stack
//     ablations) is skipped: internal/core's tests and cmd/hpcbd's
//     cover it at test scale.
//
// Under -short only the chaos, transport, master and partition sweeps
// run. Off amd64 only the digest comparison is skipped: Go may fuse
// multiply-adds there, so floats printed at %#v can differ. Deliberate
// re-baselines rewrite the digests of the entries run:
//
//	go test -run TestArtifacts . -update

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"hpcbd/internal/core"
)

var update = flag.Bool("update", false, "rewrite testdata/golden.sum from this tree's output")

const goldenSum = "testdata/golden.sum"

func TestArtifacts(t *testing.T) {
	digests := runtime.GOARCH == "amd64"
	want, order := readGoldenSum(t)
	got := map[string]string{}
	pinned, rendered := 0, 0
	for _, a := range core.Artifacts() {
		if a.Scale != nil {
			pinned++
		}
		t.Run(a.Name, func(t *testing.T) {
			switch {
			case a.Scale == nil:
				t.Skip("not pinned in golden.sum")
			case testing.Short() && (!a.Pair || a.Slow):
				t.Skip("slow; run without -short")
			}
			o := a.Scale()
			var first, second any
			if a.Pair {
				if !reflect.DeepEqual(o, core.Quick()) {
					t.Fatal("a sweep is pinned at Quick, the scale of its serial reference")
				}
				first = reference(a)
				second = first
			} else {
				first = a.Run(o)
			}
			rendered++
			if a.Check != nil {
				for _, v := range a.Check(first, second) {
					t.Error(v)
				}
			}
			if !digests {
				return
			}
			for name, text := range a.Golden(first) {
				got[name] = fmt.Sprintf("%x", sha256.Sum256([]byte(text)))
				if *update {
					continue
				}
				if w, ok := want[name]; !ok {
					t.Errorf("%s: no digest in %s (rerun with -update)", name, goldenSum)
				} else if w != got[name] {
					t.Errorf("%s: output changed: digest %s, %s has %s", name, got[name], goldenSum, w)
				}
			}
		})
	}
	switch complete := rendered == pinned; {
	case !digests:
		t.Logf("digests not compared: they pin float results printed at %%#v, which are reproducible only on amd64, and Go may fuse multiply-adds on %s", runtime.GOARCH)
	case *update:
		writeGoldenSum(t, want, order, got, complete)
	case complete:
		for _, name := range order {
			if _, ok := got[name]; !ok {
				t.Errorf("%s: in %s but no longer produced", name, goldenSum)
			}
		}
	}
}

// readGoldenSum returns the digests in golden.sum by name, and the names
// in file order.
func readGoldenSum(t *testing.T) (map[string]string, []string) {
	raw, err := os.ReadFile(goldenSum)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	var order []string
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		if f := strings.Fields(line); len(f) == 2 {
			want[f[1]] = f[0]
			order = append(order, f[1])
		}
	}
	return want, order
}

// writeGoldenSum rewrites golden.sum in its own order with the digests
// this run produced. A partial run (a -run filter, -short) keeps the
// lines it did not reach; a complete one drops the lines no entry
// produced. New names go last, sorted.
func writeGoldenSum(t *testing.T, want map[string]string, order []string, got map[string]string, complete bool) {
	var b strings.Builder
	for _, name := range order {
		if d, ok := got[name]; ok {
			fmt.Fprintf(&b, "%s  %s\n", d, name)
		} else if !complete {
			fmt.Fprintf(&b, "%s  %s\n", want[name], name)
		}
	}
	var added []string
	for name := range got {
		if _, ok := want[name]; !ok {
			added = append(added, name)
		}
	}
	slices.Sort(added)
	for _, name := range added {
		fmt.Fprintf(&b, "%s  %s\n", got[name], name)
	}
	if err := os.WriteFile(goldenSum, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}
