package main

import (
	"strings"
	"testing"
)

func TestRunQuickArtifacts(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run([]string{"-quick", "table1", "fig3", "table3"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, want 0; stderr:\n%s", code, stderr.String())
	}
	for _, title := range []string{
		"TABLE1 — Comet node characteristics",
		"FIG3 — Reduce microbenchmark",
		"TABLE3 — Maintainability",
	} {
		if !strings.Contains(stdout.String(), title) {
			t.Errorf("stdout lacks %q:\n%s", title, stdout.String())
		}
	}
	if !strings.Contains(stderr.String(), "fig3: shape check: OK") {
		t.Errorf("stderr lacks fig3's shape check:\n%s", stderr.String())
	}
}

func TestRunUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-quick", "bogus"},
		{"interconnect", "filesytem"},
		{"-quick"},
		{"-csv", "-json", "fig3"},
	} {
		var stdout, stderr strings.Builder
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("%q: exit %d, want 2", args, code)
		}
		if stdout.Len() > 0 {
			t.Errorf("%q: printed to stdout:\n%s", args, stdout.String())
		}
	}
}
