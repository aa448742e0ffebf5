package main

import (
	"encoding/json"
	"maps"
	"slices"
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

func TestRunOutputFormats(t *testing.T) {
	for _, tc := range []struct {
		args  []string
		check func(t *testing.T, stdout string)
	}{
		{[]string{"-quick", "-json", "table2"}, func(t *testing.T, stdout string) {
			dec := json.NewDecoder(strings.NewReader(stdout))
			var obj map[string]json.RawMessage
			if err := dec.Decode(&obj); err != nil {
				t.Fatalf("stdout is not one JSON object: %v\n%s", err, stdout)
			}
			if len(obj) != 1 || obj["table2"] == nil {
				t.Errorf("JSON keys %v, want only table2", slices.Collect(maps.Keys(obj)))
			}
			if dec.More() {
				t.Errorf("stdout continues after the JSON object:\n%s", stdout)
			}
		}},
		{[]string{"-quick", "-csv", "fig3"}, func(t *testing.T, stdout string) {
			if !strings.HasPrefix(stdout, "msg bytes,MPI,Spark,Spark-RDMA\n") {
				t.Errorf("stdout does not open with the CSV header row:\n%s", stdout)
			}
			if strings.Contains(stdout, "\n---") {
				t.Errorf("CSV output has an aligned-text rule line:\n%s", stdout)
			}
		}},
	} {
		t.Run(strings.Join(tc.args, " "), func(t *testing.T) {
			var stdout, stderr strings.Builder
			if code := run(tc.args, &stdout, &stderr); code != 0 {
				t.Fatalf("exit %d, want 0; stderr:\n%s", code, stderr.String())
			}
			tc.check(t, stdout.String())
		})
	}
}
