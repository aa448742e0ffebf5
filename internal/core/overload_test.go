package core

import "testing"

// TestOverloadSweep runs the resource-exhaustion sweep twice at test
// scale and validates every documented shape: determinism across runs,
// off-arm honesty, the collapse of the unmitigated arm at the top
// pressure, the >= 2x goodput hold from the mitigations, the machinery
// demonstrably engaged, and statically allocated MPI failing whole at
// the first refused reservation. Negative controls then break each
// documented condition in a copy of the result and require
// CheckOverloadSweep to report it.
func TestOverloadSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("overload sweep is slow; run without -short")
	}
	o := Quick()
	a := OverloadSweep(o)
	b := OverloadSweep(o)
	for _, msg := range CheckOverloadSweep(a, b) {
		t.Error(msg)
	}
	for _, tab := range OverloadTables(a) {
		t.Log("\n" + tab.String())
	}

	type R = OverloadSweepResult
	nP := len(a.Pressures)
	topP := nP - 1         // the first load at the top pressure
	head := len(a.Off) - 1 // the top load at the top pressure
	controls := []control[R]{
		{"overload: series incomplete", func(r *R) { r.On = r.On[:head] }},
		{"overload: series incomplete", func(r *R) { r.MPI = r.MPI[:nP-1] }},
		{"overload: load *lost jobs", func(r *R) { r.Off[1].Completed = false }},
		{"overload: load *lost jobs", func(r *R) { r.On[1].Completed = false }},
		{"overload: clean point at load *OOM-killed", func(r *R) { r.Off[0].OOMKills = 1 }},
		{"overload: clean point at load *OOM-killed", func(r *R) { r.On[0].OOMKills = 1 }},
		{"overload: clean off arm finished", func(r *R) { r.Off[0].JobsDone-- }},
		{"overload: clean on arm at load *failed jobs", func(r *R) { r.On[0].JobsFailed = 1 }},
		{"overload: clean on arm at load *failed jobs", func(r *R) { r.On[0].JobsDone-- }},
		{"overload: top pressure did not bite the off arm", func(r *R) { r.Off[topP].OOMKills = 0 }},
		{"overload: top pressure did not bite the off arm", func(r *R) { r.Off[topP].JobsFailed = 0 }},
		{"overload: load *need strictly more", func(r *R) { r.On[head].JobsDone = r.Off[head].JobsDone }},
		{"overload: load *need >= 2.0x", func(r *R) { r.Off[head].GoodputJPM = r.On[head].GoodputJPM }},
		{"overload: load *neither arm completed a job", func(r *R) { r.Off[head].GoodputJPM, r.On[head].GoodputJPM = 0, 0 }},
		{"overload: load *chaos armed", func(r *R) { r.On[head].MemHogs-- }},
		{"overload: load *chaos armed", func(r *R) { r.On[head].DiskFills-- }},
		{"overload: pressure-free plain MPI did not complete", func(r *R) { r.MPI[0].Completed = false }},
		{"overload: pressure-free plain MPI did not complete", func(r *R) { r.MPI[0].FailedAtAlloc = true }},
		{"overload: plain MPI at *survived static allocation", func(r *R) { r.MPI[1].FailedAtAlloc = false }},
		{"overload: plain MPI at *survived static allocation", func(r *R) { r.MPI[1].Completed = true }},
	}
	for _, off := range []func(*OverloadPoint){
		func(p *OverloadPoint) { p.TaskSpills = 1 }, func(p *OverloadPoint) { p.OOMRetries = 1 },
		func(p *OverloadPoint) { p.FetchStalls = 1 }, func(p *OverloadPoint) { p.Redirects = 1 },
		func(p *OverloadPoint) { p.JobsShed = 1 }, func(p *OverloadPoint) { p.Waited = 1 },
	} {
		controls = append(controls, control[R]{"overload: mitigations-off arm at *engaged machinery",
			func(r *R) { off(&r.Off[1]) }})
	}
	for _, idle := range []func(*OverloadPoint){
		func(p *OverloadPoint) { p.TaskSpills = 0 }, func(p *OverloadPoint) { p.OOMRetries = 0 },
		func(p *OverloadPoint) { p.FetchStalls = 0 }, func(p *OverloadPoint) { p.Redirects = 0 },
		func(p *OverloadPoint) { p.JobsShed = 0 },
	} {
		controls = append(controls, control[R]{"overload: load *mitigation machinery idle",
			func(r *R) { idle(&r.On[head]) }})
	}
	requireViolations(t, CheckOverloadSweep, a, func(r *R) { r.On[head].SpillBytes++ }, controls)
}
