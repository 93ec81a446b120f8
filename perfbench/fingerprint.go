package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// fingerprint identifies the environment and inputs a result came from.
type fingerprint struct {
	CPU          string `json:"cpu"`
	NumCPU       int    `json:"nproc"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	GoVersion    string `json:"goVersion"`
	GitRevision  string `json:"gitRevision"`
	GitDirty     string `json:"gitDirty"`
	SourceDigest string `json:"sourceDigest"`
	PlanSeed     uint64 `json:"planSeed"`
	TrafficSeed  uint64 `json:"trafficSeed"`
	Parallel     int    `json:"parallel"`
	Workers      int    `json:"workers"`
}

func takeFingerprint(e *env, p *passResult) fingerprint {
	rev, dirty := gitState(e.root)
	return fingerprint{
		CPU:          cpuModel(),
		NumCPU:       runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		GoVersion:    runtime.Version(),
		GitRevision:  rev,
		GitDirty:     dirty,
		SourceDigest: sourceDigest(e.root),
		PlanSeed:     planSeed,
		TrafficSeed:  e.seed,
		Parallel:     p.parallel,
		Workers:      p.workers,
	}
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

// gitState returns the checkout's revision and whether tracked files
// differ from it; outside a git checkout both are "none".
func gitState(root string) (rev, dirty string) {
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "none", "none"
	}
	rev = strings.TrimSpace(string(out))
	st, err := exec.Command("git", "-C", root, "status", "--porcelain", "--untracked-files=no").Output()
	switch {
	case err != nil:
		dirty = "unknown"
	case len(strings.TrimSpace(string(st))) > 0:
		dirty = "true"
	default:
		dirty = "false"
	}
	return rev, dirty
}

// sourceDigest hashes the program's Go sources, module file and served
// corpus, so results from a checkout without git history still name the
// code they measured.
func sourceDigest(root string) string {
	h := sha256.New()
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		rel, _ := filepath.Rel(root, path)
		if d.IsDir() {
			if rel != "." && (strings.HasPrefix(d.Name(), ".") || rel == "perfbench") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(rel, ".go") && rel != "go.mod" && rel != "runs-standard.json" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return nil
		}
		h.Write([]byte(rel))
		h.Write([]byte{0})
		h.Write(b)
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))[:16]
}
