// Command chaos-bench runs the fault-injection sweeps. The §VI-D
// fault-tolerance sweep replays the Fig 4 AnswersCount and Fig 6 PageRank
// jobs under seeded chaos plans at increasing node-failure rates
// (MTBF = T, T/2, T/4 of the clean job duration), comparing Spark's
// lineage recovery with MPI checkpoint/restart, plus a
// checkpoint-interval study. The lossy-network & integrity sweep re-runs
// the workloads over a fabric that drops, corrupts or partitions
// messages, contrasting the reliable-transport Big Data stacks with
// transport-fragile plain MPI and resilient MPI. The control-plane
// failover sweep kills the master's node (namenode, Spark driver,
// MapReduce job tracker — all journaled to standbys) at fixed fractions
// of each workload's clean duration and requires byte-identical output
// across leader generations, with plain MPI deadlocking under the same
// kill. The split-brain sweep (-mode partition, also part of the fault
// group) CUTS the master off instead of killing it: fenced arms must
// force the isolated leader to step down and finish byte-identical with
// zero acknowledged-then-lost journal entries, the unfenced arm must
// measurably lose acknowledged writes, and plain MPI deadlocks even
// though the cut heals. The tail-latency sweep (-mode tail) runs a sustained read +
// shuffle workload at increasing gray-node fractions, mitigations off vs
// on, with plain MPI pacing at the slowest rank as the contrast. The
// overload sweep (-mode overload) submits a seeded job storm against a
// cluster whose RAM and scratch disks are squeezed by external hogs,
// comparing an arm with spill, OOM escalation, fetch credits, write
// redirect and admission control against the same stack with all of it
// off, plus statically allocated MPI that fails whole at the first
// refused reservation. Each sweep runs twice so the determinism claim —
// identical seed, identical virtual timings and recovery counters — is
// checked, not asserted.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"hpcbd"
)

func main() {
	quick := flag.Bool("quick", false, "run the scaled-down test configuration")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned text")
	jsonOut := flag.Bool("json", false, "emit the raw sweep results as JSON (suppresses tables)")
	mode := flag.String("mode", "all", "which sweeps to run: all, fault (chaos+transport+master+partition), partition, tail or overload")
	shards := flag.Int("shards", 1, "event-queue shards per kernel; results are identical for every count")
	workers := flag.Int("workers", 0, "parallel dispatch workers per kernel (0 = serial; needs -shards > 1 to engage); results are identical for every count")
	flag.Parse()
	hpcbd.SetShards(*shards)
	hpcbd.SetWorkers(*workers)

	o := hpcbd.FullOptions()
	if *quick {
		o = hpcbd.QuickOptions()
	}
	runFault := *mode == "all" || *mode == "fault"
	runPart := runFault || *mode == "partition"
	runTail := *mode == "all" || *mode == "tail"
	runOver := *mode == "all" || *mode == "overload"
	if !runFault && !runPart && !runTail && !runOver {
		fmt.Fprintf(os.Stderr, "unknown -mode %q (want all, fault, partition, tail or overload)\n", *mode)
		os.Exit(2)
	}

	var bad []string
	var tabs []hpcbd.Table
	out := struct {
		Chaos     *hpcbd.ChaosSweepResult     `json:"chaos,omitempty"`
		Transport *hpcbd.TransportSweepResult `json:"transport,omitempty"`
		Master    *hpcbd.MasterSweepResult    `json:"master,omitempty"`
		Partition *hpcbd.PartitionSweepResult `json:"partition,omitempty"`
		Tail      *hpcbd.TailSweepResult      `json:"tail,omitempty"`
		Overload  *hpcbd.OverloadSweepResult  `json:"overload,omitempty"`
	}{}
	okMsg := ""

	if runFault {
		a := hpcbd.ChaosSweep(o)
		b := hpcbd.ChaosSweep(o) // second run, same seed: must match a exactly
		ta := hpcbd.TransportSweep(o)
		tb := hpcbd.TransportSweep(o)
		ma := hpcbd.MasterSweep(o)
		mb := hpcbd.MasterSweep(o)
		out.Chaos, out.Transport, out.Master = &a, &ta, &ma
		tabs = append(tabs, hpcbd.ChaosTables(a)...)
		tabs = append(tabs, hpcbd.TransportTables(ta)...)
		tabs = append(tabs, hpcbd.MasterTables(ma)...)
		bad = append(bad, hpcbd.CheckChaosSweep(a, b)...)
		bad = append(bad, hpcbd.CheckTransportSweep(ta, tb)...)
		bad = append(bad, hpcbd.CheckMasterSweep(ma, mb)...)
		okMsg = "deterministic; Spark and Hadoop complete under chaos, loss, corruption and partitions with oracle-correct results; no corrupt byte served; plain MPI deadlocks on loss; resilient MPI retransmits and rolls back; overhead monotone in fault rate; journaled masters fail over with byte-identical output while plain MPI deadlocks on a master kill"
	}
	if runPart {
		pa := hpcbd.PartitionSweep(o)
		pb := hpcbd.PartitionSweep(o) // second run, same seed: must match pa exactly
		out.Partition = &pa
		tabs = append(tabs, hpcbd.PartitionTables(pa)...)
		bad = append(bad, hpcbd.CheckPartitionSweep(pa, pb)...)
		if okMsg != "" {
			okMsg += "; "
		}
		okMsg += "fenced leaders isolated by a partition step down and fail over with byte-identical output and zero acknowledged-then-lost journal entries, the unfenced contrast measurably loses acknowledged writes, and plain MPI deadlocks under the same healing cut"
	}
	if runTail {
		la := hpcbd.TailSweep(o)
		lb := hpcbd.TailSweep(o) // second run, same seed: must match la exactly
		out.Tail = &la
		tabs = append(tabs, hpcbd.TailTables(la)...)
		bad = append(bad, hpcbd.CheckTailSweep(la, lb)...)
		if okMsg != "" {
			okMsg += "; "
		}
		okMsg += "adaptive timeouts + ejection + hedging + retry budget cut gray-node p99 tails >= 2x at no material clean-run cost while plain MPI runs at the slowest rank's pace"
	}
	if runOver {
		va := hpcbd.OverloadSweep(o)
		vb := hpcbd.OverloadSweep(o) // second run, same seed: must match va exactly
		out.Overload = &va
		tabs = append(tabs, hpcbd.OverloadTables(va)...)
		bad = append(bad, hpcbd.CheckOverloadSweep(va, vb)...)
		if okMsg != "" {
			okMsg += "; "
		}
		okMsg += "under memory and disk exhaustion the spill + escalation + fetch-credit + redirect + admission stack keeps completing jobs at >= 2x the unmitigated goodput while the off arm collapses into an OOM retry spiral and statically allocated MPI fails whole at its first refused reservation"
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(os.Stderr, "json encode:", err)
			os.Exit(1)
		}
	} else {
		for _, tab := range tabs {
			if *csv {
				fmt.Print(tab.CSV())
			} else {
				fmt.Println(tab)
			}
		}
	}

	if len(bad) > 0 {
		fmt.Fprintln(os.Stderr, "shape violations:")
		for _, m := range bad {
			fmt.Fprintln(os.Stderr, "  "+m)
		}
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "shape check: OK ("+okMsg+")")
}
