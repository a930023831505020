package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// fingerprint identifies the machine, the code and the inputs a result
// came from. It is printed on the line before the result object.
type fingerprint struct {
	Workload    string `json:"workload"`
	Seed        int64  `json:"seed"`
	FixtureSeed int64  `json:"fixture_seed"`
	Holdout     bool   `json:"holdout"`
	Trace       bool   `json:"trace"`
	CPU         string `json:"cpu"`
	NumCPU      int    `json:"nproc"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	GoVersion   string `json:"go_version"`
	// Commit is the git commit when the checkout is a repository;
	// Source hashes the Go sources outside the benchmark either way, so
	// two checkouts of one commit print the same value.
	Commit string `json:"commit,omitempty"`
	Source string `json:"source_sha256"`
	// Fixture sizes as built (after deduplication).
	Nodes uint32 `json:"fixture_nodes"`
	Edges int64  `json:"fixture_edges"`
	Pool  int    `json:"edge_pool"`
	// Server flags beyond the fixture path, for serving workloads.
	Flags []string `json:"server_flags,omitempty"`
}

func newFingerprint(workload string, seed, fixtureSeed int64, holdout, trace bool) *fingerprint {
	fp := &fingerprint{
		Workload:    workload,
		Seed:        seed,
		FixtureSeed: fixtureSeed,
		Holdout:     holdout,
		Trace:       trace,
		CPU:         cpuModel(),
		NumCPU:      runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		GoVersion:   runtime.Version(),
		Source:      sourceHash("."),
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		fp.Commit = strings.TrimSpace(string(out))
	}
	return fp
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

// sourceHash digests go.mod and every .go file under root, skipping the
// benchmark's own directory and hidden and build directories.
func sourceHash(root string) string {
	var files []string
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error { //nolint:errcheck // best effort
		if err != nil {
			return nil
		}
		name := d.Name()
		if d.IsDir() {
			if p != root && (strings.HasPrefix(name, ".") || name == "perfbench") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(name, ".go") || name == "go.mod" {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		io.WriteString(h, p+"\x00") //nolint:errcheck // hash writes do not fail
		io.Copy(h, f)               //nolint:errcheck // best effort
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
