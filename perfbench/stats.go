package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"
)

// quantile is the nearest-rank q-quantile of vals (0 when empty).
func quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := slices.Clone(vals)
	slices.Sort(s)
	i := int(math.Ceil(q * float64(len(s))))
	return s[min(max(i, 1), len(s))-1]
}

func median(vals []float64) float64 { return quantile(vals, 0.5) }

// host identifies the machine and the code a result was measured on.
type host struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
	Source     string `json:"source_sha256"`
}

func hostInfo() host {
	h := host{
		CPU:        cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Commit:     "unknown",
		Source:     sourceDigest(),
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	return h
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// sourceDigest hashes the Go sources and module file of the program
// under test, so results from a checkout without version control still
// name the code they measured.
func sourceDigest() string {
	h := sha256.New()
	add := func(path string) {
		if b, err := os.ReadFile(path); err == nil {
			h.Write([]byte(path))
			h.Write(b)
		}
	}
	add("go.mod")
	filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(path, ".go") {
			add(path)
		}
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
