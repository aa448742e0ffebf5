package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"

	"hpcbd/internal/exec"
)

// fingerprint records where and how a set of numbers was taken, so that
// -compare can refuse to diff runs that are not comparable.
type fingerprint struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	QuotaCPUs  int     `json:"cgroup_quota_cpus"`
	GoVersion  string  `json:"go_version"`
	CPUModel   string  `json:"cpu_model"`
	GOGC       int     `json:"gogc"`
	Commit     string  `json:"git_commit"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Smoke      bool    `json:"smoke"`
}

func takeFingerprint(seed int64, seconds float64, smoke bool) fingerprint {
	gogc := debug.SetGCPercent(100)
	debug.SetGCPercent(gogc)
	commit := os.Getenv("LEDGER_COMMIT") // set by run.sh; the ledger starts no git itself
	if commit == "" {
		commit = "unknown"
	}
	return fingerprint{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		QuotaCPUs:  exec.QuotaCPUs(),
		GoVersion:  runtime.Version(),
		CPUModel:   procField("/proc/cpuinfo", "model name"),
		GOGC:       gogc,
		Commit:     commit,
		Seed:       seed,
		Seconds:    seconds,
		Smoke:      smoke,
	}
}

// procField returns the value of the first "key : value" line of a
// /proc text file, or "" if the file or the key is missing.
func procField(path, key string) string {
	f, err := os.Open(path)
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == key {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	kb, err := strconv.ParseFloat(strings.TrimSuffix(procField("/proc/self/status", "VmHWM"), " kB"), 64)
	if err != nil {
		return 0
	}
	return kb / 1024
}
