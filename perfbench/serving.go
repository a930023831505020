package main

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"

	"kcore/internal/gen"
)

// Serving fixture: RMAT scale 18, edge factor 8 (about 262K nodes and
// 1.97M edges). The pool of 262,144 edges is eight dyngraph compaction
// thresholds (32,768 net edges each). A writer deletes at 7K-13K edges/s
// on a 2-CPU machine, so a 15s run spans several compaction cycles and
// stays inside the first (delete) pass: on these fixtures a SemiInsert*
// batch of 128 edges takes seconds (about 34ms per edge, heavy-tailed),
// so a run that reached the insert pass would measure a different mix
// from one that did not. Metrics come from the first half of the run
// either way.
const (
	rmatScale  = 18
	rmatFactor = 8
	poolSize   = 8 * 32768
	writeBatch = 128
	// setupLaunches is how many times a run starts the server; setup_s
	// is their median and the last one takes the traffic.
	setupLaunches = 5
	// gateSamples is how many seeded /core answers the gate compares.
	gateSamples = 512
)

// servingSpec is what distinguishes the serving workloads.
type servingSpec struct {
	name string
	// flags returns kcored's flags beyond -graph/-addr for a launch whose
	// private directory is dir.
	flags func(dir string, fx *fixture) []string
	// writer runs a closed-loop ?wait=1 writer on the first connection
	// and leaves one connection to the reader; otherwise both
	// connections read and carry the update trickle.
	writer bool
	// rates is the reader's ladder of fixed open-loop rates (req/s);
	// read latency is reported at the first one.
	rates []float64
	// limitMs is the read p99 limit a rung must meet.
	limitMs float64
}

func makeServingFixture(rc *runCtx) (*fixture, *pool, error) {
	t := time.Now()
	edges := gen.RMAT(rmatScale, rmatFactor, 0.57, 0.19, 0.19, rc.seed)
	fx, _, err := buildFixture(edges, rc.runFile("fixture"), 1)
	if err != nil {
		return nil, nil, err
	}
	p := newPool(fx.csr, poolSize, rc.seed)
	rc.fp.Nodes, rc.fp.Edges, rc.fp.Pool = fx.csr.NumNodes(), fx.csr.NumEdges(), len(p.edges)
	logf("fixture: %d nodes, %d edges, pool %d (%.1fs)", rc.fp.Nodes, rc.fp.Edges, rc.fp.Pool, time.Since(t).Seconds())
	return fx, p, nil
}

// runServing starts kcored setupLaunches times on fresh fixture copies,
// drives the last one, and gates its final state against the oracle.
func runServing(rc *runCtx, spec servingSpec) (*result, error) {
	fx, p, err := makeServingFixture(rc)
	if err != nil {
		return nil, err
	}
	var setups, cpus, reads []float64
	var srv *server
	for i := 0; i < setupLaunches; i++ {
		dir := rc.runFile("launch" + strconv.Itoa(i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		g := filepath.Join(dir, "g")
		if err := fx.copyTo(g); err != nil {
			return nil, err
		}
		flags := spec.flags(dir, fx)
		rc.fp.Flags = flags
		s, err := startServer(rc.binDir, g, flags)
		if err != nil {
			return nil, err
		}
		setups = append(setups, s.setup)
		cpus = append(cpus, s.startCPU)
		reads = append(reads, float64(s.startReads))
		if i < setupLaunches-1 {
			s.stop()
			os.RemoveAll(dir) //nolint:errcheck // scratch
			continue
		}
		srv = s
	}
	defer srv.stop()
	logf("setup: %v s", setups)

	tr, err := driveTargets(srv.url, func() *httpTarget { return newHTTPTarget(srv.url) }, fx, p, spec, rc, srv.cpuUs)
	if err != nil {
		return nil, err
	}
	tr.gateErr = gate(srv.url, fx, p, rc.seed)
	tr.attempted++
	if tr.gateErr != nil {
		tr.failed++
		logf("gate: %v", tr.gateErr)
	}
	rss, err := srv.peakRSSMiB()
	if err != nil {
		return nil, err
	}
	res := tr.result(spec)
	res.Metrics["setup_s"] = metric{median(setups), "s"}
	res.Metrics["peak_rss_mb"] = metric{rss, "MiB"}
	res.Metrics["decompose_block_reads"] = metric{median(reads), "count"}
	res.Metrics["decompose_edges_per_cpu_s"] = metric{float64(fx.csr.NumEdges()) / median(cpus), "1/s"}
	res.detail["setup_launches_s"] = setups
	return res, nil
}

// traffic is what one drive measured.
type traffic struct {
	rungs             []rung
	writeLat          []float64   // ms per acknowledged ?wait=1 batch
	ackAt             []time.Time // when each writer batch was acknowledged
	seconds           float64
	attempted, failed int64
	gateErr           error
}

// driveTargets runs the workload's traffic against url for rc.seconds
// over two connections made by mk.
func driveTargets(url string, mk func() *httpTarget, fx *fixture, p *pool, spec servingSpec, rc *runCtx, cpu func() float64) (*traffic, error) {
	c := &http.Client{Timeout: 60 * time.Second}
	var deg struct {
		Degeneracy uint32 `json:"degeneracy"`
	}
	if err := getJSON(c, url+"/degeneracy", &deg); err != nil {
		return nil, err
	}
	var mu sync.Mutex
	updates := func(n int) []update {
		mu.Lock()
		defer mu.Unlock()
		return p.next(n)
	}
	m := mix{seed: rc.seed, nodes: fx.csr.NumNodes(), kmax: max(deg.Degeneracy, 1), trickle: !spec.writer}
	conns := []*httpTarget{mk(), mk()}
	defer func() {
		for _, c := range conns {
			c.close()
		}
	}()
	readers := []target{conns[0], conns[1]}
	var writer *httpTarget
	if spec.writer {
		writer, readers = conns[0], readers[1:]
	}
	tr := &traffic{}
	runtime.GC()
	total := time.Duration(rc.seconds * float64(time.Second))
	start := time.Now()
	var wg sync.WaitGroup
	if writer != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var a, f int64
			tr.writeLat, tr.ackAt, a, f = writerLoop(writer, p, writeBatch, start.Add(total))
			mu.Lock()
			tr.attempted += a
			tr.failed += f
			mu.Unlock()
		}()
	}
	// A second at the first rate warms connections, caches and the
	// epoch memo; it is not measured.
	openLoop(readers, spec.rates[0], time.Second, m, -1<<40, updates, spec.limitMs)
	rungs, a, f := ladder(readers, spec.rates, total, m, updates, spec.limitMs, cpu)
	mu.Lock()
	tr.rungs = rungs
	tr.attempted += a
	tr.failed += f
	mu.Unlock()
	wg.Wait()
	tr.seconds = time.Since(start).Seconds()
	return tr, nil
}

// gate compares the served state after the last acknowledged update
// with the oracle: /degeneracy (edges, degeneracy, core_sizes), a
// seeded sample of /core answers, and /stats (no update rejected or
// annihilated).
func gate(url string, fx *fixture, p *pool, seed int64) error {
	o, err := newOracle(fx.csr, p.deleted())
	if err != nil {
		return err
	}
	c := &http.Client{Timeout: 60 * time.Second}
	var deg struct {
		Degeneracy uint32  `json:"degeneracy"`
		Edges      int64   `json:"edges"`
		Sizes      []int64 `json:"core_sizes"`
	}
	if err := getJSON(c, url+"/degeneracy", &deg); err != nil {
		return err
	}
	if err := o.checkProfile(deg.Degeneracy, deg.Edges, deg.Sizes); err != nil {
		return fmt.Errorf("/degeneracy: %w", err)
	}
	for i := 0; i < gateSamples; i++ {
		v := uint32(splitmix(uint64(seed)+uint64(i)) % uint64(len(o.core)))
		var ans struct {
			Core uint32 `json:"core"`
		}
		if err := getJSON(c, url+"/core?v="+strconv.FormatUint(uint64(v), 10), &ans); err != nil {
			return err
		}
		if ans.Core != o.core[v] {
			return fmt.Errorf("/core?v=%d = %d, oracle %d", v, ans.Core, o.core[v])
		}
	}
	st, err := getStats(c, url)
	if err != nil {
		return err
	}
	if st.Serve.Rejected != 0 || st.Serve.Annihilated != 0 {
		return fmt.Errorf("/stats: %d updates rejected, %d annihilated", st.Serve.Rejected, st.Serve.Annihilated)
	}
	return nil
}

// result turns the traffic into the end-to-end metrics every serving
// workload reports, all taken at the first rung, the reference rate:
// the top rung saturates the server on purpose, and the writer beside
// it would measure how much CPU the flood left over. The read-mix
// trickle also counts the second rung, for samples.
func (tr *traffic) result(spec servingSpec) *result {
	res := newResult()
	res.Correct = tr.gateErr == nil && tr.failed == 0
	res.Attempted, res.Failed = tr.attempted, tr.failed
	ref := tr.rungs[0]
	var lat []float64
	var updates, ops float64
	secs := ref.end.Sub(ref.start).Seconds()
	if spec.writer {
		for i, t := range tr.ackAt {
			if !t.Before(ref.start) && t.Before(ref.end) {
				lat = append(lat, tr.writeLat[i])
			}
		}
		updates = float64(len(lat) * writeBatch)
		ops = updates
	} else {
		// The trickle is ?wait=1, so its last acknowledged batch is
		// already the barrier the gate needs.
		lat = append(append([]float64(nil), ref.upd...), tr.rungs[1].upd...)
		updates = float64(len(lat) * trickleBatch)
		secs = tr.rungs[1].end.Sub(ref.start).Seconds()
		ops = float64(len(ref.lat))
	}
	res.Metrics["cpu_us_per_op"] = metric{ref.CPUUs / ops, "us"}
	res.detail["updates_per_s"] = updates / secs
	res.detail["update_visible_p50_ms"] = percentile(lat, 0.50)
	res.detail["update_visible_p99_ms"] = percentile(lat, 0.99)
	res.detail["update_samples"] = len(lat)
	addReadMetrics(res, tr.rungs)
	return res
}
