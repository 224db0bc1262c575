package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
)

// host identifies the machine and build a result came from. Two results
// are comparable only when every field but Seed and Commit agrees.
type host struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOARCH     string `json:"goarch"`
	CPUModel   string `json:"cpu_model"`
	Kernel     string `json:"kernel"`
	Seed       int64  `json:"seed"`
	Commit     string `json:"commit"`
}

func stampHost(seed int64) host {
	return host{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOARCH:     runtime.GOARCH,
		CPUModel:   cpuModel(),
		Kernel:     kernel(),
		Seed:       seed,
		Commit:     commit(),
	}
}

// sameMachine reports whether two stamps describe the same host and
// toolchain, ignoring the seed and the commit measured.
func (h host) sameMachine(o host) bool {
	h.Seed, o.Seed = 0, 0
	h.Commit, o.Commit = "", ""
	return h == o
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func kernel() string {
	b, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

// commit is the VCS revision the benchmark was built from, as the Go
// toolchain stamped it; a build outside a repository has none.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}
