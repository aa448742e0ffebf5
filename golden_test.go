package hpcbd_test

// Golden digests: every paper artifact at paper scale and the quick
// fault-injection sweeps, rendered with %#v and pinned as one SHA-256
// per artifact in testdata/golden.sum. A change that moves any simulated
// output — a virtual time, a counter, a rank — fails here and names the
// artifact. Deliberate re-baselines rewrite the file:
//
//	go test -run TestGolden . -update

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"

	"hpcbd"
)

var update = flag.Bool("update", false, "rewrite testdata/golden.sum from this tree's output")

const goldenSum = "testdata/golden.sum"

// goldenArtifact is one pinned output: its name in golden.sum and its
// rendering.
type goldenArtifact struct{ name, text string }

func goldenArtifacts() []goldenArtifact {
	q := hpcbd.QuickOptions()
	f := hpcbd.FullOptions()
	fig4, res4 := hpcbd.Fig4(f)
	fig6, ranks6 := hpcbd.Fig6(f)
	fig7, ranks7 := hpcbd.Fig7(f)
	return []goldenArtifact{
		{"fig3", fmt.Sprintf("%#v", hpcbd.Fig3(f))},
		{"table2", fmt.Sprintf("%#v", hpcbd.Table2Values(f))},
		{"fig4", fmt.Sprintf("%#v", fig4)},
		{"fig4res", fmt.Sprintf("%#v", res4)},
		{"fig6", fmt.Sprintf("%#v", fig6)},
		{"fig6ranks", fmt.Sprintf("%v", ranks6)},
		{"fig7", fmt.Sprintf("%#v", fig7)},
		{"fig7ranks", fmt.Sprintf("%v", ranks7)},
		{"chaos-quick", fmt.Sprintf("%#v", hpcbd.ChaosSweep(q))},
		{"transport-quick", fmt.Sprintf("%#v", hpcbd.TransportSweep(q))},
		{"partition-quick", fmt.Sprintf("%#v", hpcbd.PartitionSweep(q))},
	}
}

func TestGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates every paper artifact at paper scale; run without -short")
	}
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden digests pin float results printed at %%#v, which are reproducible only on amd64: Go may fuse multiply-adds on %s", runtime.GOARCH)
	}
	var sum strings.Builder
	got := map[string]string{}
	arts := goldenArtifacts()
	for _, a := range arts {
		got[a.name] = fmt.Sprintf("%x", sha256.Sum256([]byte(a.text)))
		fmt.Fprintf(&sum, "%s  %s\n", got[a.name], a.name)
	}
	if *update {
		if err := os.WriteFile(goldenSum, []byte(sum.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(goldenSum)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		if f := strings.Fields(line); len(f) == 2 {
			want[f[1]] = f[0]
		}
	}
	for _, a := range arts {
		if w, ok := want[a.name]; !ok {
			t.Errorf("%s: no digest in %s (rerun with -update)", a.name, goldenSum)
		} else if w != got[a.name] {
			t.Errorf("%s: output changed: digest %s, %s has %s", a.name, got[a.name], goldenSum, w)
		}
		delete(want, a.name)
	}
	for name := range want {
		t.Errorf("%s: in %s but no longer produced", name, goldenSum)
	}
}
