// Command perfbench is the repository's benchmark: one command that runs
// a workload against the system built from this checkout, checks the
// answers against an in-memory oracle, and prints every metric by name
// with its unit. The last line of standard output is the result object
// {"correct", "attempted", "failed", "metrics"}.
//
//	bash perfbench/run.sh --workload read-mix --seed 3 --seconds 15 --trace 0
//	bash perfbench/run.sh compare parent.jsonl change.jsonl
//
// Workloads (the reason for each is in workloads.go):
//
//	decompose      SemiCore* through kcore.Decompose in a child process, then
//	               kcore.Maintainer batches and reads of the maintained snapshot
//	read-mix       kcored, mem backend, open-loop reads with a 1% ?wait=1 update trickle
//	write-durable  kcored with -data-dir, a closed-loop writer beside a reader
//	write-disk     kcored on the disk backend with a cache of 1/4 the adjacency
//
// With --trace 0 the serving workloads start the real kcored as a child
// process and drive it over loopback HTTP with at most two connections;
// the result carries the end-to-end metrics. With --trace 1 the same
// traffic runs against a stack assembled in this process from the
// packages' public constructors, with a timing wrapper at every seam,
// and the result carries the per-layer metrics (trace.go).
//
// Every run generates its fixture from --seed and starts every server on
// a fresh copy of it. --holdout derives the fixture from a seed space the
// plain seeds never reach, so a claimed gain can be re-checked on inputs
// nobody tuned against.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
)

// metric is one named value of the result object.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// detail holds figures printed for reading but not gated: tail
	// latencies, sample counts, the per-rung ladder.
	detail map[string]any
}

func newResult() *result {
	return &result{Metrics: map[string]metric{}, detail: map[string]any{}}
}

// runCtx is what every workload receives.
type runCtx struct {
	workload string
	seed     int64 // the fixture seed, holdout-derived when asked
	seconds  float64
	trace    bool
	binDir   string // holds the kcored and perfbench executables
	dir      string // private scratch directory of this run
	fp       *fingerprint
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == childDecomposeArg {
		if err := childDecompose(os.Args[2:]); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench child: %v\n", err)
			os.Exit(1)
		}
		return
	}
	var (
		workload = flag.String("workload", "", "workload to run: "+workloadNames())
		seed     = flag.Int64("seed", 1, "workload seed; the fixture and the traffic derive from it")
		seconds  = flag.Float64("seconds", 12, "measured seconds per run")
		trace    = flag.Int("trace", 0, "1 runs the traced in-process stack and reports per-layer metrics")
		holdout  = flag.Bool("holdout", false, "derive the fixture from the hold-out seed space")
		binDir   = flag.String("bin", "", "directory holding the kcored and perfbench executables (run.sh sets it)")
	)
	flag.Parse()
	// The client's own collections pause its requests; it has memory to
	// spare, so it collects less often.
	debug.SetGCPercent(400)
	if flag.NArg() > 0 && flag.Arg(0) == "compare" {
		if err := compareMain(flag.Args()[1:]); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench compare: %v\n", err)
			os.Exit(1)
		}
		return
	}
	w, ok := workloads[*workload]
	if !ok || *binDir == "" || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: want -bin, --workload (%s), --seconds > 0 and --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	fixtureSeed := *seed
	if *holdout {
		fixtureSeed = holdoutSeed(*seed)
	}
	dir, err := os.MkdirTemp(*binDir, "run-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	rc := &runCtx{
		workload: *workload,
		seed:     fixtureSeed,
		seconds:  *seconds,
		trace:    *trace == 1,
		binDir:   *binDir,
		dir:      dir,
		fp:       newFingerprint(*workload, *seed, fixtureSeed, *holdout, *trace == 1),
	}
	res, err := w.run(rc)
	os.RemoveAll(dir) //nolint:errcheck // scratch; a leftover is harmless
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	if len(res.detail) > 0 {
		line, err := json.Marshal(map[string]any{"detail": res.detail})
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(string(line))
	}
	fpLine, _ := json.Marshal(map[string]any{"fingerprint": rc.fp})
	fmt.Println(string(fpLine))
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// holdoutSeed maps a seed into a range that small plain seeds never
// reach, so inputs used to check a claim were never used to write it.
func holdoutSeed(seed int64) int64 {
	x := uint64(seed) ^ 0x9e3779b97f4a7c15
	x ^= x >> 31
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 29
	return int64(x>>2) | 1<<60
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return fmt.Sprint(names)
}

// logf prints a progress or detail line to standard error, which the
// result parser never reads.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

// runFile names a file inside the run's scratch directory.
func (rc *runCtx) runFile(name string) string { return filepath.Join(rc.dir, name) }
