package main

import (
	"os"
	"path/filepath"
	"strconv"
)

// workload is one benchmark input set and traffic mix.
type workload struct {
	run func(rc *runCtx) (*result, error)
}

// The four workloads and why each exists:
//
//   - decompose: the paper path with no server. SemiCore* through the
//     root API kcore.Decompose on a web-class graph, then 128-edge batches
//     through kcore.Maintainer and reads of the maintained snapshot.
//     semicore, maintain, dyngraph and storage do all the work; serve,
//     engine, httpapi, wal and diskengine do none.
//   - read-mix: kcored on the mem backend with no data dir, open-loop
//     reads at fixed rates and a 1% trickle of 16-edge ?wait=1 update
//     batches. httpapi, engine lookup and serve's epoch and memo do most
//     of the work; the trickle advances epochs so memo repair runs while
//     maintenance stays small.
//   - write-durable: the same fixture with -data-dir and -fsync interval
//     (an fsync on every acknowledged ?wait=1 batch plus a background
//     one every 100ms; the same on both sides of any comparison). A closed-loop writer beside a reader: maintain,
//     dyngraph, the serve writer and the WAL do most of the work, and the
//     reader shows what write load costs reads.
//   - write-disk: the same traffic on -backend disk with the block cache
//     at a quarter of the adjacency and no data dir: the only workload
//     larger than the program's own cache, so diskengine overlay merges
//     and the storage block cache work here and nowhere else.
//
// Every end-to-end metric is reported on every workload, so each is
// defined per workload:
//
//	setup_s                median set-up: five kcored launches from exec until
//	                       /healthz and a first /degeneracy answer; on decompose,
//	                       three kcore.Build runs of the generated edge list
//	peak_rss_mb            VmHWM of the kcored that took the traffic; rusage
//	                       max RSS of the decompose child
//	decompose_block_reads  block reads (B=4096) of the SemiCore* decomposition:
//	                       kcored's /stats io at readiness, a Decompose pass
//	decompose_edges_per_cpu_s  fixture edges per CPU second of the
//	                       decomposition: kcored's CPU time at readiness, or a
//	                       Decompose pass (median); CPU time, because on a
//	                       shared machine steal inflates wall time run to run
//	read_max_rps           achieved rate of the highest ladder rung whose
//	                       windowed read p99 met the limit with every request
//	                       sent on time
//	cpu_us_per_op          system CPU time per read at the first rung on
//	                       read-mix; per acknowledged update on the others
//
// The detail line before the result carries what is printed but not
// gated: read p50/p99 at the first rung, and the ?wait=1 round trip
// (update_visible_p50_ms/p99_ms) and acknowledged updates per second
// (updates_per_s) at the first rung — the writer's batches, the read-mix
// trickle below saturation, the Maintainer batches on decompose. On a
// shared 2-CPU machine their run-to-run spread (measured up to 0.3 for
// the writer's figures, 0.25 to 2.8 for read latency) is wider than any
// bound a gate may hold; CPU time per operation is the cost figure that
// steal inflates least. Failed, refused or wrong answers, the
// correctness gate included, are the result's failed count out of
// attempted.
var workloads = map[string]workload{
	"decompose": {run: func(rc *runCtx) (*result, error) {
		if rc.trace {
			return traceDecompose(rc)
		}
		return runDecompose(rc)
	}},
	"read-mix":      servingWorkload(readMix),
	"write-durable": servingWorkload(writeDurable),
	"write-disk":    servingWorkload(writeDisk),
}

func servingWorkload(spec servingSpec) workload {
	return workload{run: func(rc *runCtx) (*result, error) {
		if rc.trace {
			return traceServing(rc, spec)
		}
		return runServing(rc, spec)
	}}
}

var (
	readMix = servingSpec{
		name:    "read-mix",
		flags:   func(string, *fixture) []string { return nil },
		rates:   []float64{1000, 2000, 16000},
		limitMs: 100,
	}
	writeDurable = servingSpec{
		name: "write-durable",
		flags: func(dir string, _ *fixture) []string {
			return []string{"-data-dir", filepath.Join(dir, "data"), "-fsync", "interval"}
		},
		writer:  true,
		rates:   []float64{250, 1000, 16000},
		limitMs: 100,
	}
	writeDisk = servingSpec{
		name: "write-disk",
		flags: func(_ string, fx *fixture) []string {
			return []string{"-backend", "disk", "-cache-blocks", strconv.Itoa(diskCacheBlocks(fx))}
		},
		writer:  true,
		rates:   []float64{250, 1000, 16000},
		limitMs: 100,
	}
)

// diskCacheBlocks sizes the disk backend's cache at a quarter of the
// adjacency file in 4 KiB blocks.
func diskCacheBlocks(fx *fixture) int {
	st, err := os.Stat(fx.base + ".et")
	if err != nil {
		return 256
	}
	return int(st.Size() / 4096 / 4)
}
