package main

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sync/atomic"
	"syscall"
	"time"

	"kcore"
	"kcore/internal/gen"
)

// Decompose fixture: gen.WebGraph(18, 16, 200, 300) — an RMAT core of
// 2^18 nodes plus 200 chains of 300 nodes, about 322K nodes and 3.9M
// edges. The chains drive SemiCore* to about 300 iterations, the slow
// convergence of the paper's web crawls.
const (
	webScale, webFactor, webChains, webChainLen = 18, 16, 200, 300
	// buildReps is how many times setup builds the fixture; setup_s is
	// the median.
	buildReps = 3
)

// decomposeRates is the ladder of in-process snapshot reads. The top
// rung is out of any reader's reach, so read_max_rps is the middle rung
// whenever the reads meet the limit.
var decomposeRates = []float64{1000, 2000, 1e6}

const childDecomposeArg = "child-decompose"

// childReport is what the decompose child prints for the parent.
type childReport struct {
	Passes    []passInfo `json:"passes"`
	BatchMs   []float64  `json:"batch_ms"`
	Acked     int64      `json:"acked"`
	MaintSecs float64    `json:"maint_seconds"`
	MaintCPU  float64    `json:"maint_cpu_us"` // process CPU during maintenance
	Rungs     []rung     `json:"rungs"`
	PoolPos   int        `json:"pool_pos"`
	Deleting  bool       `json:"deleting"`
	Attempted int64      `json:"attempted"`
	Failed    int64      `json:"failed"`
}

type passInfo struct {
	Seconds    float64 `json:"seconds"`
	CPU        float64 `json:"cpu_seconds"`
	Reads      int64   `json:"reads"`
	Iterations int     `json:"iterations"`
	NodeComps  int64   `json:"node_computations"`
	Kmax       uint32  `json:"kmax"`
}

// runDecompose builds the web fixture buildReps times, then runs the
// paper path in a child process on a fresh copy and gates its cores.
func runDecompose(rc *runCtx) (*result, error) {
	fx, p, builds, err := makeDecomposeFixture(rc)
	if err != nil {
		return nil, err
	}
	g := rc.runFile("child")
	if err := fx.copyTo(g); err != nil {
		return nil, err
	}
	poolFile := rc.runFile("pool.bin")
	if err := writeEdges(poolFile, p.edges); err != nil {
		return nil, err
	}
	cmd := exec.Command(filepath.Join(rc.binDir, "perfbench"), childDecomposeArg,
		"-graph", g, "-pool", poolFile, "-seconds", fmt.Sprint(rc.seconds),
		"-seed", fmt.Sprint(rc.seed), "-out", rc.dir)
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("decompose child: %w", err)
	}
	var rep childReport
	if err := json.Unmarshal(out, &rep); err != nil {
		return nil, fmt.Errorf("decompose child report: %w", err)
	}
	ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return nil, errors.New("no rusage for the decompose child")
	}

	// Gate: the first pass and the maintained end state against IMCore.
	attempted, failed := rep.Attempted+2, rep.Failed
	gateErr := checkCoreFile(filepath.Join(rc.dir, "cores-decomposed.bin"), fx, nil)
	if gateErr == nil {
		p.pos, p.deleting = rep.PoolPos, rep.Deleting
		gateErr = checkCoreFile(filepath.Join(rc.dir, "cores-maintained.bin"), fx, p.deleted())
	}
	if gateErr != nil {
		failed++
		logf("gate: %v", gateErr)
	}

	var secs, cpus, reads []float64
	for _, ps := range rep.Passes {
		secs = append(secs, ps.Seconds)
		cpus = append(cpus, ps.CPU)
		reads = append(reads, float64(ps.Reads))
	}
	logf("passes: %d, %.3fs median, %d iterations, %.0f block reads", len(secs), median(secs), rep.Passes[0].Iterations, median(reads))
	res := newResult()
	res.Correct, res.Attempted, res.Failed = gateErr == nil && failed == 0, attempted, failed
	res.Metrics["setup_s"] = metric{median(builds), "s"}
	res.Metrics["peak_rss_mb"] = metric{float64(ru.Maxrss) / 1024, "MiB"}
	res.Metrics["decompose_block_reads"] = metric{median(reads), "count"}
	res.Metrics["decompose_edges_per_cpu_s"] = metric{float64(fx.csr.NumEdges()) / median(cpus), "1/s"}
	res.Metrics["cpu_us_per_op"] = metric{rep.MaintCPU / float64(rep.Acked), "us"}
	res.detail["updates_per_s"] = float64(rep.Acked) / rep.MaintSecs
	res.detail["update_visible_p50_ms"] = percentile(rep.BatchMs, 0.50)
	res.detail["update_visible_p99_ms"] = percentile(rep.BatchMs, 0.99)
	res.detail["update_samples"] = len(rep.BatchMs)
	res.detail["passes"] = rep.Passes
	res.detail["builds_s"] = builds
	addReadMetrics(res, rep.Rungs)
	return res, nil
}

// decomposeLimitMs is the p99 limit of the in-process reads.
const decomposeLimitMs = 100

func makeDecomposeFixture(rc *runCtx) (*fixture, *pool, []float64, error) {
	edges := gen.WebGraph(webScale, webFactor, webChains, webChainLen, rc.seed)
	fx, builds, err := buildFixture(edges, rc.runFile("fixture"), buildReps)
	if err != nil {
		return nil, nil, nil, err
	}
	p := newPool(fx.csr, poolSize, rc.seed)
	rc.fp.Nodes, rc.fp.Edges, rc.fp.Pool = fx.csr.NumNodes(), fx.csr.NumEdges(), len(p.edges)
	logf("fixture: %d nodes, %d edges; builds %v s", rc.fp.Nodes, rc.fp.Edges, builds)
	return fx, p, builds, nil
}

func checkCoreFile(path string, fx *fixture, deleted []kcore.Edge) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	core := make([]uint32, len(b)/4)
	for i := range core {
		core[i] = binary.LittleEndian.Uint32(b[4*i:])
	}
	o, err := newOracle(fx.csr, deleted)
	if err != nil {
		return err
	}
	if err := o.checkCores(core); err != nil {
		return fmt.Errorf("%s: %w", filepath.Base(path), err)
	}
	return nil
}

func writeUint32s(path string, xs []uint32) error {
	b := make([]byte, 4*len(xs))
	for i, x := range xs {
		binary.LittleEndian.PutUint32(b[4*i:], x)
	}
	return os.WriteFile(path, b, 0o644)
}

func writeEdges(path string, es []kcore.Edge) error {
	xs := make([]uint32, 0, 2*len(es))
	for _, e := range es {
		xs = append(xs, e.U, e.V)
	}
	return writeUint32s(path, xs)
}

func readEdges(path string) ([]kcore.Edge, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	es := make([]kcore.Edge, len(b)/8)
	for i := range es {
		es[i] = kcore.Edge{U: binary.LittleEndian.Uint32(b[8*i:]), V: binary.LittleEndian.Uint32(b[8*i+4:])}
	}
	return es, nil
}

// childDecompose is the system process of the decompose workload: the
// root API only, as coredecomp and coremaint use it. For the first half
// of the run it repeats kcore.Decompose; for a quarter it applies the
// pool's delete and insert passes in 128-edge batches through
// kcore.Maintainer, publishing a snapshot after each; for the last
// quarter a reader queries the maintained snapshot at fixed rates.
func childDecompose(args []string) error {
	fs := flag.NewFlagSet(childDecomposeArg, flag.ContinueOnError)
	var (
		graph    = fs.String("graph", "", "graph path prefix")
		poolPath = fs.String("pool", "", "pool edge file")
		seconds  = fs.Float64("seconds", 12, "measured seconds")
		seed     = fs.Int64("seed", 1, "read-mix seed")
		outDir   = fs.String("out", "", "directory for the core files")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	poolEdges, err := readEdges(*poolPath)
	if err != nil {
		return err
	}
	g, err := kcore.Open(*graph, nil)
	if err != nil {
		return err
	}
	defer g.Close()

	var rep childReport
	var res *kcore.Result
	half := time.Duration(*seconds / 2 * float64(time.Second))
	for start := time.Now(); len(rep.Passes) < 2 || time.Since(start) < half; {
		t, cpu := time.Now(), processCPUUs()
		r, err := kcore.Decompose(g, nil)
		if err != nil {
			return err
		}
		rep.Passes = append(rep.Passes, passInfo{time.Since(t).Seconds(), (processCPUUs() - cpu) / 1e6,
			r.Info.IO.Reads, r.Info.Iterations, r.Info.NodeComputations, r.Kmax})
		if res != nil && r.Kmax != res.Kmax {
			return fmt.Errorf("pass %d kmax %d, first pass %d", len(rep.Passes), r.Kmax, res.Kmax)
		}
		res = r
	}
	if err := writeUint32s(filepath.Join(*outDir, "cores-decomposed.bin"), res.Core); err != nil {
		return err
	}

	m, err := kcore.NewMaintainer(g, &kcore.MaintainerOptions{FromResult: res})
	if err != nil {
		return err
	}
	var cur atomic.Pointer[kcore.CoreSnapshot]
	cur.Store(m.Snapshot())
	p := &pool{edges: poolEdges, deleting: true}
	quarter := half / 2
	start, cpu0 := time.Now(), processCPUUs()
	for stop := start.Add(quarter); time.Now().Before(stop); {
		ups := p.next(writeBatch)
		batch := make([]kcore.Edge, len(ups))
		for i, u := range ups {
			batch[i] = kcore.Edge{U: u.u, V: u.v}
		}
		t := time.Now()
		var info kcore.RunInfo
		if ups[0].del {
			info, err = m.DeleteEdges(batch)
		} else {
			info, err = m.InsertEdges(batch)
		}
		rep.Attempted++
		if err != nil {
			return fmt.Errorf("maintain batch: %w", err)
		}
		snap, _ := m.SnapshotDelta(cur.Load(), info.Dirty)
		cur.Store(snap)
		rep.BatchMs = append(rep.BatchMs, ms(time.Since(t)))
		rep.Acked += int64(len(batch))
	}
	rep.MaintSecs = time.Since(start).Seconds()
	rep.MaintCPU = processCPUUs() - cpu0

	// Reads of the maintained snapshot, alone: beside the maintainer on
	// two CPUs a reader goroutine stalls for whole seconds behind the
	// collector, which would measure the runtime instead of the queries.
	mx := mix{seed: *seed, nodes: g.NumNodes(), kmax: max(res.Kmax, 1)}
	var a, f int64
	readers := []target{snapTarget{&cur}, snapTarget{&cur}} // two, like the serving workloads' connections
	rep.Rungs, a, f = ladder(readers, decomposeRates, quarter, mx, nil, decomposeLimitMs, nil)
	rep.Attempted += a
	rep.Failed += f
	rep.PoolPos, rep.Deleting = p.pos, p.deleting
	if err := writeUint32s(filepath.Join(*outDir, "cores-maintained.bin"), m.Cores()); err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(&rep)
}

// processCPUUs is this process's user plus system CPU time.
func processCPUUs() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e3
}

// snapTarget reads the latest published snapshot in process: point
// lookups, k-core listings and the size profile, as the root API
// serves them.
type snapTarget struct {
	cur *atomic.Pointer[kcore.CoreSnapshot]
}

func (t snapTarget) read(kind opKind, arg uint32) error {
	s := t.cur.Load()
	switch kind {
	case opCore:
		_, err := s.CoreOf(arg)
		return err
	case opKCore:
		if nodes := s.KCore(arg); len(nodes) > 0 && nodes[0] >= s.NumNodes() {
			return fmt.Errorf("k-core lists node %d", nodes[0])
		}
	default:
		if sizes := s.Sizes(); len(sizes) == 0 || sizes[0] != int64(s.NumNodes()) {
			return errors.New("size profile does not cover every node")
		}
	}
	return nil
}

func (snapTarget) update([]update, bool) error { return errors.New("snapshot reader takes no updates") }
