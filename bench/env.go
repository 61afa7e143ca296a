package main

import (
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// Env is the environment block of every result file — what a number
// needs beside it to be compared with another.
type Env struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	Kernel     string `json:"kernel"`
	GitCommit  string `json:"git_commit"`
	Seed       int64  `json:"seed"`
	PoolSeed   int64  `json:"pool_seed"`
}

func environment(seed int64) Env {
	return Env{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		Kernel:     readTrimmed("/proc/sys/kernel/osrelease"),
		GitCommit:  gitCommit(),
		Seed:       seed,
		PoolSeed:   poolSeed,
	}
}

func readTrimmed(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return "unknown"
}

// gitCommit is the checked-out commit, or "unknown" outside a git
// work tree (the driver's checkout is not one).
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
