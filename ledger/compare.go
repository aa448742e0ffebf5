package main

import (
	"fmt"
	"io"
	"strings"
)

// compareFiles sets two set files side by side: A is the reference
// (the parent commit, or the first of two sets of the same code), B the
// candidate. For every workload both measured it gives, per end-to-end
// metric, how much worse B's median is than A's against the metric's
// bound; sim_events and the core.sim_* model readings must be exactly
// equal; no operation may have failed.
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	a, err := readSet(pathA)
	if err != nil {
		fmt.Fprintln(stderr, "ledger:", err)
		return 2
	}
	b, err := readSet(pathB)
	if err != nil {
		fmt.Fprintln(stderr, "ledger:", err)
		return 2
	}
	if !a.Env.comparable(b.Env) {
		fmt.Fprintf(stderr, "ledger: not comparable: %s is nproc %d, seed %d, %g s, smoke %v; %s is nproc %d, seed %d, %g s, smoke %v\n",
			pathA, a.Env.NProc, a.Env.Seed, a.Env.Seconds, a.Env.Smoke, pathB, b.Env.NProc, b.Env.Seed, b.Env.Seconds, b.Env.Smoke)
		return 2
	}
	breaches, compared := compareSets(a, b, stdout)
	switch {
	case compared == 0:
		fmt.Fprintln(stderr, "ledger: the two files share no workload")
		return 2
	case breaches > 0:
		fmt.Fprintf(stdout, "%d breach(es)\n", breaches)
		return 1
	}
	fmt.Fprintln(stdout, "no breach")
	return 0
}

// worseBy is how much worse b is than a as a share of a: positive is
// worse, in the metric's own direction.
func worseBy(m metricInfo, a, b float64) float64 {
	if m.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

func compareSets(a, b *setFile, w io.Writer) (breaches, compared int) {
	for _, wl := range workloadCatalog {
		ra, rb := a.Runs[wl.Name], b.Runs[wl.Name]
		if ra == nil || rb == nil {
			continue
		}
		if ra.Untraced != nil && rb.Untraced != nil {
			compared++
			breaches += compareUntraced(wl.Name, ra.Untraced, rb.Untraced, w)
		}
		if ra.Traced != nil && rb.Traced != nil {
			compared++
			breaches += compareModel(wl.Name, ra.Traced, rb.Traced, w)
		}
	}
	return breaches, compared
}

func compareUntraced(name string, a, b *record, w io.Writer) (breaches int) {
	fmt.Fprintf(w, "%s: passes %d / %d, ops failed %d of %d / %d of %d, pass IQR %.1f%% / %.1f%%\n", name,
		a.Passes, b.Passes, a.OpsFailed, a.Ops, b.OpsFailed, b.Ops, a.PassWall.iqrPct(), b.PassWall.iqrPct())
	if a.OpsFailed > 0 || b.OpsFailed > 0 {
		fmt.Fprintln(w, "  BREACH operations failed")
		breaches++
	}
	noise := a.PassWall.iqrPct()
	if n := b.PassWall.iqrPct(); n > noise {
		noise = n
	}
	for _, m := range endToEnd {
		va, vb := a.Metrics[m.Name].Value, b.Metrics[m.Name].Value
		worse := worseBy(m, va, vb)
		verdict := "ok"
		timed := m.Unit == "s" || strings.HasSuffix(m.Unit, "/s")
		switch {
		case m.Name == "sim_events" && va != vb:
			// Same seed, same code: the kernel must commit the same events.
			verdict = "BREACH (must be equal)"
		case worse > m.Bound:
			verdict = "BREACH"
		case timed && m.Name != "setup_s" && noise > 100*m.Bound:
			// The runs' own spread is wider than the bound: the
			// pairing says nothing either way.
			verdict = "unresolved"
		}
		if strings.HasPrefix(verdict, "BREACH") {
			breaches++
		}
		fmt.Fprintf(w, "  %-24s %14.6g %14.6g %-13s %+7.2f%% worse (bound %g%%)  %s\n",
			m.Name, va, vb, m.Unit, 100*worse, 100*m.Bound, verdict)
	}
	return breaches
}

// compareModel checks the exact virtual-time readings of two traced
// runs: a change that moves one changed the model.
func compareModel(name string, a, b *record, w io.Writer) (breaches int) {
	for _, m := range perLayer {
		if !strings.HasPrefix(m.Name, "core.sim_") || m.Name == "core.sim_digest_changed" {
			continue
		}
		va, vb := a.Metrics[m.Name].Value, b.Metrics[m.Name].Value
		if va != vb {
			fmt.Fprintf(w, "  BREACH %s %s: %.12g / %.12g (must be equal)\n", name, m.Name, va, vb)
			breaches++
		}
	}
	if a.Digest != b.Digest {
		fmt.Fprintf(w, "  BREACH %s output digest: %.16s / %.16s (must be equal)\n", name, a.Digest, b.Digest)
		breaches++
	}
	return breaches
}
