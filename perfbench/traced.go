package main

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"kcore"
	"kcore/internal/diskengine"
	"kcore/internal/dyngraph"
	"kcore/internal/engine"
	"kcore/internal/httpapi"
	"kcore/internal/maintain"
	"kcore/internal/semicore"
	"kcore/internal/serve"
	"kcore/internal/stats"
	"kcore/internal/wal"
)

// perLayer lists every per-layer metric with its unit and the
// end-to-end metric and workload it is expected to move. A traced run
// prints all of them; a layer its workload does not exercise, or that
// its stack does not expose at a public seam, reads 0.
var perLayer = []struct{ name, unit, moves string }{
	{"httpapi.core_us", "us", "read_max_rps, cpu_us_per_op on read-mix"},
	{"httpapi.kcore_us", "us", "read_max_rps, cpu_us_per_op on read-mix"},
	{"httpapi.update_us", "us", "update_visible_p50_ms on write-*"},
	{"httpapi.transport_us", "us", "read_max_rps on read-mix"},
	{"engine.snapshot_ns", "ns", "read_max_rps, cpu_us_per_op on read-mix"},
	{"engine.enqueue_us", "us", "update_visible_p50_ms on write-*"},
	{"engine.apply_us", "us", "update_visible_p50_ms on write-*"},
	{"serve.kcoreat_cold_us", "us", "cpu_us_per_op, read_max_rps on read-mix"},
	{"serve.kcoreat_warm_ns", "ns", "cpu_us_per_op, read_max_rps on read-mix"},
	{"serve.memo_hit_ratio", "ratio", "cpu_us_per_op on read-mix"},
	{"serve.publish_us", "us", "update_visible_p50_ms on write-*"},
	{"serve.validate_us", "us", "update_visible_p50_ms on write-*"},
	{"serve.flushes_per_s", "1/s", "update_visible_p50_ms on write-*"},
	{"maintain.insert_us", "us", "updates_per_s on write-durable, write-disk and decompose"},
	{"maintain.delete_us", "us", "updates_per_s on write-durable, write-disk and decompose"},
	{"maintain.node_computations_per_update", "count", "updates_per_s, cpu_us_per_op on write-durable and write-disk"},
	{"maintain.dirty_per_update", "count", "updates_per_s, cpu_us_per_op on write-durable and write-disk"},
	{"dyngraph.read_us_per_update", "us", "updates_per_s on write-durable and decompose; none on write-disk"},
	{"dyngraph.mutate_s", "s", "updates_per_s on write-durable and decompose; none on write-disk"},
	{"dyngraph.compactions", "count", "updates_per_s on write-durable and decompose; none on write-disk"},
	{"dyngraph.block_reads_per_update", "count", "updates_per_s on write-durable and decompose; none on write-disk"},
	{"diskengine.scan_us_per_update", "us", "updates_per_s, cpu_us_per_op on write-disk only"},
	{"diskengine.merge_s", "s", "updates_per_s on write-disk only"},
	{"diskengine.merges", "count", "updates_per_s on write-disk only"},
	{"storage.cache_hit_ratio", "ratio", "updates_per_s on write-disk only"},
	{"storage.block_reads_per_update", "count", "updates_per_s on write-disk only"},
	{"wal.appends_per_s", "1/s", "update_visible_p50_ms on write-durable only"},
	{"wal.fsyncs_per_s", "1/s", "update_visible_p50_ms on write-durable only"},
	{"wal.bytes_per_update", "B", "update_visible_p50_ms on write-durable only"},
	{"semicore.iterations", "count", "decompose_edges_per_cpu_s and decompose_block_reads everywhere; setup_s on serving"},
	{"semicore.node_computations", "count", "decompose_edges_per_cpu_s everywhere; setup_s on serving"},
	{"semicore.source_read_s", "s", "decompose_edges_per_cpu_s everywhere; setup_s on serving"},
	{"semicore.compute_s", "s", "decompose_edges_per_cpu_s everywhere; setup_s on serving"},
	{"storage.read_mb", "MB", "decompose_block_reads everywhere; setup_s on serving"},
	{"trace.blocking_path_us", "us", "sum of the mean self times on the primary operation's blocking path"},
	{"trace.e2e_us", "us", "traced mean of the primary operation (a /core read, a ?wait=1 batch, a pass)"},
	{"trace.coverage", "ratio", "blocking path over end to end; within ~10% of 1 when the layers add up"},
	{"trace.overhead_us", "us", "traced minus untraced median of the primary operation as its end-to-end metric times it"},
}

// layerResult fills the result object with every per-layer metric.
func layerResult(vals map[string]float64, correct bool, attempted, failed int64) *result {
	res := newResult()
	res.Correct, res.Attempted, res.Failed = correct, attempted, failed
	tags := map[string]string{}
	for _, l := range perLayer {
		res.Metrics[l.name] = metric{vals[l.name], l.unit}
		tags[l.name] = l.moves
	}
	for name := range vals {
		if _, ok := res.Metrics[name]; !ok {
			panic("perfbench: undeclared per-layer metric " + name)
		}
	}
	printLayerTable(res, tags)
	return res
}

// printLayerTable writes the per-layer metrics with their tags to
// standard error, one per line.
func printLayerTable(res *result, tags map[string]string) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(os.Stderr, "  %-40s %14.3f %-6s moves %s\n", n, m.Value, m.Unit, tags[n])
	}
}

// stack is a serving stack assembled in process from public
// constructors, with the tracer's wrappers at its seams.
type stack struct {
	reg     *engine.Registry // served by httpapi
	eng     engine.Engine    // the engine under the tracing wrapper
	closers []func() error
	lc      *layerCounts
	gc      *graphCounts
	// startup holds the semicore.* and storage.read_mb figures of the
	// initial decomposition, where the stack exposes them.
	startup map[string]float64
	// compactions counts dyngraph compactions so far, when visible.
	compactions func() int64
	cache       func() (hits, misses int64)
	diskMerges  func() int64
	walStats    func() stats.WalSnapshot
}

func (s *stack) close() {
	for i := len(s.closers) - 1; i >= 0; i-- {
		s.closers[i]() //nolint:errcheck // teardown of a finished run
	}
}

// decomposeTraced runs the startup SemiCore* over the traced graph the
// way maintain.NewSession does, keeping the run's statistics.
func decomposeTraced(tg *tracedGraph, io *stats.IOCounter) (*maintain.Session, map[string]float64, error) {
	before := io.Snapshot()
	res, err := semicore.SemiCoreStar(tg, &semicore.Options{Mem: stats.NewMemModel()})
	if err != nil {
		return nil, nil, err
	}
	st, err := semicore.StateFrom(res.Core, res.Cnt)
	if err != nil {
		return nil, nil, err
	}
	startup := map[string]float64{
		"semicore.iterations":        float64(res.Stats.Iterations),
		"semicore.node_computations": float64(res.Stats.NodeComputations),
		"semicore.source_read_s":     float64(tg.gc.readNs.Load()) / 1e9,
		"semicore.compute_s":         float64(tg.gc.computeNs.Load()) / 1e9,
		"storage.read_mb":            float64(io.Snapshot().ReadBytes-before.ReadBytes) / 1e6,
	}
	return maintain.SessionFrom(tg, st), startup, nil
}

// assembleSession builds serve.NewBackend over the traced backend and
// registers the traced engine — the mem path (dyngraph) or the disk
// path (diskengine Store), as kcored assembles them minus the wrappers.
func assembleSession(t *tracer, g maintain.Graph, io *stats.IOCounter, overlay func() int) (*stack, error) {
	gc := &graphCounts{}
	tg := &tracedGraph{t: t, g: g, gc: gc, overlay: overlay}
	sess, startup, err := decomposeTraced(tg, io)
	if err != nil {
		return nil, err
	}
	lc := &layerCounts{}
	b := &tracedBackend{t: t, sess: sess, g: tg, io: io, lc: lc}
	cs, err := serve.NewBackend(b, &serve.Options{OnPublish: b.onPublish})
	if err != nil {
		return nil, err
	}
	reg := engine.NewRegistry(nil)
	if err := reg.Register("default", tracedEngine{cs, t}); err != nil {
		cs.Close() //nolint:errcheck // register error wins
		return nil, err
	}
	return &stack{reg: reg, eng: cs, closers: []func() error{reg.Close}, lc: lc, gc: gc, startup: startup}, nil
}

func assembleMem(t *tracer, g string) (*stack, error) {
	io := stats.NewIOCounter(4096)
	dg, err := dyngraph.Open(g, io, dyngraph.Options{})
	if err != nil {
		return nil, err
	}
	s, err := assembleSession(t, dg, io, nil)
	if err != nil {
		dg.Close() //nolint:errcheck // assembly error wins
		return nil, err
	}
	s.closers = append([]func() error{dg.Close}, s.closers...)
	s.compactions = func() int64 { return int64(dg.Compactions) }
	return s, nil
}

func assembleDisk(t *tracer, g string, cacheBlocks int) (*stack, error) {
	dir := g + ".parts"
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	io := stats.NewIOCounter(4096)
	st, err := diskengine.BuildStore(g, diskengine.StoreOptions{Dir: dir, CacheBlocks: cacheBlocks, IO: io})
	if err != nil {
		return nil, err
	}
	s, err := assembleSession(t, st, io, st.OverlayArcs)
	if err != nil {
		st.Close() //nolint:errcheck // assembly error wins
		return nil, err
	}
	s.closers = append([]func() error{st.Close}, s.closers...)
	s.cache = func() (int64, int64) { cs := st.Cache().Stats(); return cs.Hits, cs.Misses }
	s.diskMerges = func() int64 { return st.DiskStats().Merges }
	return s, nil
}

// assembleDurable opens the graph through Registry.OpenBackend in
// data-dir mode — the durable shell builds its inner engine itself, so
// the layers under it are read through counters — and serves it from a
// second registry through the traced engine.
func assembleDurable(t *tracer, g, dataDir string) (*stack, error) {
	policy, err := wal.ParseSyncPolicy("interval")
	if err != nil {
		return nil, err
	}
	lc := &layerCounts{}
	var eng engine.Engine
	var compactions, lastWrites int64
	var mu sync.Mutex
	back := engine.NewRegistry(&engine.Options{
		Serve: serve.Options{OnPublish: func(*serve.Epoch) {
			lc.flushes.Add(1)
			mu.Lock()
			defer mu.Unlock()
			if eng == nil {
				return
			}
			// A compaction rewrites the edge table: the graph's write
			// count moves only then.
			if w := eng.IOStats().Writes; w > lastWrites {
				compactions++
				lastWrites = w
			}
		}},
		Durability: &engine.DurabilityOptions{Dir: dataDir, Policy: policy, CheckpointEvery: 5 * time.Minute},
	})
	e, err := back.OpenBackend("default", g, engine.BackendConfig{})
	if err != nil {
		back.Close() //nolint:errcheck // open error wins
		return nil, err
	}
	mu.Lock()
	eng, lastWrites = e, e.IOStats().Writes
	mu.Unlock()
	front := engine.NewRegistry(nil)
	if err := front.Register("default", tracedEngine{e, t}); err != nil {
		back.Close() //nolint:errcheck // register error wins
		return nil, err
	}
	ds, ok := engine.AsDurabilityStatser(e)
	if !ok {
		back.Close() //nolint:errcheck
		return nil, errors.New("durable engine exposes no WAL counters")
	}
	return &stack{
		reg: front, eng: e, closers: []func() error{back.Close, front.Close}, lc: lc, gc: &graphCounts{},
		startup:     map[string]float64{"storage.read_mb": float64(e.IOStats().ReadBytes) / 1e6},
		compactions: func() int64 { mu.Lock(); defer mu.Unlock(); return compactions },
		walStats:    ds.DurabilityStats,
	}, nil
}

// traceServing assembles the workload's stack in process, serves it over
// loopback HTTP, drives the same traffic twice — untraced, then traced —
// and reports the per-layer metrics of the traced phase.
func traceServing(rc *runCtx, spec servingSpec) (*result, error) {
	fx, p, err := makeServingFixture(rc)
	if err != nil {
		return nil, err
	}
	dir := rc.runFile("traced")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	g := filepath.Join(dir, "g")
	if err := fx.copyTo(g); err != nil {
		return nil, err
	}
	t := newTracer()
	var st *stack
	switch spec.name {
	case "read-mix":
		st, err = assembleMem(t, g)
	case "write-disk":
		st, err = assembleDisk(t, g, diskCacheBlocks(fx))
	case "write-durable":
		st, err = assembleDurable(t, g, filepath.Join(dir, "data"))
	default:
		err = fmt.Errorf("no traced stack for %s", spec.name)
	}
	if err != nil {
		return nil, err
	}
	defer st.close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: tracedHandler{t: t, next: httpapi.New(st.reg, "default"), ctr: st.eng.Counters}}
	go srv.Serve(ln) //nolint:errcheck // ends with Close below
	defer srv.Close()
	url := "http://" + ln.Addr().String()

	// Each phase runs half the run, so the two consume the edge pool as
	// one untraced run does.
	half := *rc
	half.seconds /= 2
	untraced, err := driveTargets(url, func() *httpTarget { return newHTTPTarget(url) }, fx, p, spec, &half, nil)
	if err != nil {
		return nil, err
	}
	// Counters restart with the traced phase.
	st.lc.reset()
	st.gc.reset()
	before := snapshotCounters(st)
	var clientMu sync.Mutex
	client := map[uint64]int64{}
	mk := func() *httpTarget {
		h := newHTTPTarget(url)
		h.reqID = &t.reqSeq
		h.onDone = func(id uint64, d time.Duration) {
			clientMu.Lock()
			client[id] = int64(d)
			clientMu.Unlock()
		}
		return h
	}
	t.on.Store(true)
	traced, err := driveTargets(url, mk, fx, p, spec, &half, nil)
	t.on.Store(false)
	if err != nil {
		return nil, err
	}
	after := snapshotCounters(st)
	gateErr := gate(url, fx, p, rc.seed)
	if gateErr != nil {
		logf("gate: %v", gateErr)
	}
	vals := servingLayers(t, st, spec, traced, untraced, client, before, after)
	attempted := untraced.attempted + traced.attempted + 1
	failed := untraced.failed + traced.failed
	if gateErr != nil {
		failed++
	}
	return layerResult(vals, failed == 0, attempted, failed), nil
}

// counters is a point-in-time copy of the stack's cumulative counters.
type counters struct {
	at                   time.Time
	io                   kcore.IOStats
	hits, misses         int64 // epoch memo
	cacheHits, cacheMiss int64 // storage block cache
	compactions, merges  int64
	wal                  stats.WalSnapshot
}

func snapshotCounters(st *stack) counters {
	c := counters{at: time.Now(), io: st.eng.IOStats()}
	ss := st.eng.Stats()
	c.hits, c.misses = ss.CacheHits, ss.CacheMisses
	if st.cache != nil {
		c.cacheHits, c.cacheMiss = st.cache()
	}
	if st.compactions != nil {
		c.compactions = st.compactions()
	}
	if st.diskMerges != nil {
		c.merges = st.diskMerges()
	}
	if st.walStats != nil {
		c.wal = st.walStats()
	}
	return c
}

// spanStats are the mean self time (ns) and count per span name.
type spanStats map[string]struct {
	n    int
	self float64
}

func (ss spanStats) mean(name string) float64 {
	s := ss[name]
	if s.n == 0 {
		return 0
	}
	return s.self / float64(s.n)
}

func servingLayers(t *tracer, st *stack, spec servingSpec, traced, untraced *traffic, client map[uint64]int64, before, after counters) map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	self := t.selfNs()
	ss := spanStats{}
	var coldNs, warmNs float64
	var cold, warm int
	var transportNs, clientNs, writeNs float64
	var transportN int
	primary := "httpapi/core"
	if spec.writer {
		primary = "httpapi/update"
	}
	for i, s := range t.spans {
		if s.end == 0 {
			continue
		}
		e := ss[s.name]
		e.n++
		e.self += float64(self[i])
		ss[s.name] = e
		switch s.name {
		case "engine.Apply", "engine.Enqueue", "engine.Sync", "maintain.insert", "maintain.delete":
			writeNs += float64(self[i] + s.aggNs)
		}
		if s.name == "httpapi/kcore" {
			if s.missed {
				coldNs += float64(self[i])
				cold++
			} else {
				warmNs += float64(self[i])
				warm++
			}
		}
		if s.name == primary && s.req != 0 {
			if c, ok := client[s.req]; ok {
				transportNs += float64(c - (s.end - s.start))
				clientNs += float64(c)
				transportN++
			}
		}
	}
	secs := after.at.Sub(before.at).Seconds()
	applied := float64(st.lc.applied.Load())
	if st.walStats != nil {
		applied = float64(len(traced.writeLat) * writeBatch)
	}
	per := func(x float64) float64 {
		if applied == 0 {
			return 0
		}
		return x / applied
	}
	flushes := float64(st.lc.flushes.Load())
	perFlush := func(ns int64) float64 {
		if flushes == 0 {
			return 0
		}
		return float64(ns) / flushes / 1e3
	}
	v := map[string]float64{
		"httpapi.core_us":                       ss.mean("httpapi/core") / 1e3,
		"httpapi.kcore_us":                      ss.mean("httpapi/kcore") / 1e3,
		"httpapi.update_us":                     ss.mean("httpapi/update") / 1e3,
		"engine.snapshot_ns":                    ss.mean("engine.Snapshot"),
		"engine.enqueue_us":                     ss.mean("engine.Enqueue") / 1e3,
		"serve.memo_hit_ratio":                  ratio(after.hits-before.hits, after.misses-before.misses),
		"serve.publish_us":                      perFlush(st.lc.publishNs.Load()),
		"serve.validate_us":                     perFlush(st.lc.validateNs.Load()),
		"serve.flushes_per_s":                   flushes / secs,
		"maintain.insert_us":                    ss.mean("maintain.insert") / 1e3,
		"maintain.delete_us":                    ss.mean("maintain.delete") / 1e3,
		"maintain.node_computations_per_update": per(float64(st.lc.nodeComps.Load())),
		"maintain.dirty_per_update":             per(float64(st.lc.dirty.Load())),
	}
	if transportN > 0 {
		v["httpapi.transport_us"] = transportNs / float64(transportN) / 1e3
	}
	if cold > 0 {
		v["serve.kcoreat_cold_us"] = coldNs / float64(cold) / 1e3
	}
	if warm > 0 {
		v["serve.kcoreat_warm_ns"] = warmNs / float64(warm)
	}
	// engine.apply_us is the Apply caller's wait beyond the writer's own
	// work: the Sync span less the validate and publish stages.
	v["engine.apply_us"] = max(ss.mean("engine.Sync")/1e3-v["serve.validate_us"]-v["serve.publish_us"], 0)
	graphRead := float64(st.gc.readNs.Load()) / 1e3
	if st.cache != nil {
		v["diskengine.scan_us_per_update"] = per(graphRead)
		v["diskengine.merge_s"] = float64(st.gc.mergeNs.Load()) / 1e9
		v["diskengine.merges"] = float64(after.merges - before.merges)
		v["storage.cache_hit_ratio"] = ratio(after.cacheHits-before.cacheHits, after.cacheMiss-before.cacheMiss)
		v["storage.block_reads_per_update"] = per(float64(after.io.Reads - before.io.Reads))
	} else {
		if st.walStats == nil {
			v["dyngraph.read_us_per_update"] = per(graphRead)
			v["dyngraph.mutate_s"] = float64(st.gc.mutateNs.Load()) / 1e9
		}
		v["dyngraph.compactions"] = float64(after.compactions - before.compactions)
		v["dyngraph.block_reads_per_update"] = per(float64(after.io.Reads - before.io.Reads))
	}
	if st.walStats != nil {
		v["wal.appends_per_s"] = float64(after.wal.Appends-before.wal.Appends) / secs
		v["wal.fsyncs_per_s"] = float64(after.wal.Fsyncs-before.wal.Fsyncs) / secs
		v["wal.bytes_per_update"] = per(float64(after.wal.Bytes - before.wal.Bytes))
	}
	for k, x := range st.startup {
		v[k] = x
	}
	// The blocking path of the primary operation, as mean self times per
	// request: transport and the HTTP handler, then for reads the epoch
	// load, for writes every engine and maintenance span with the graph
	// time under it. Means add up where medians do not, so the sum is
	// set against the traced mean of the same requests.
	path := v["httpapi.transport_us"]
	if spec.writer {
		path += v["httpapi.update_us"]
		if transportN > 0 {
			path += writeNs / float64(transportN) / 1e3
		}
	} else {
		path += v["httpapi.core_us"] + v["engine.snapshot_ns"]/1e3
	}
	v["trace.blocking_path_us"] = path
	if transportN > 0 {
		v["trace.e2e_us"] = clientNs / float64(transportN) / 1e3
		v["trace.coverage"] = path / v["trace.e2e_us"]
	}
	v["trace.overhead_us"] = primaryP50Us(traced, spec) - primaryP50Us(untraced, spec)
	logf("traced %s: blocking path %.1fus of %.1fus mean end to end (coverage %.2f), tracing overhead %.1fus",
		spec.name, path, v["trace.e2e_us"], v["trace.coverage"], v["trace.overhead_us"])
	return v
}

// primaryP50Us is the median latency of the workload's primary
// operation as its end-to-end metric times it: the writer's ?wait=1
// round trips, or reads at the first rung from their due time.
func primaryP50Us(tr *traffic, spec servingSpec) float64 {
	xs := tr.rungs[0].lat
	if spec.writer {
		xs = tr.writeLat
	}
	return percentile(append([]float64(nil), xs...), 0.5) * 1e3
}

func ratio(hits, misses int64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// insertSamples batches of insertBatch re-inserted edges give the traced
// decompose run its SemiInsert* figures in about a second.
const insertSamples, insertBatch = 8, 4

// traceDecompose runs the paper path in process with the graph.Source
// wrapper under SemiCore* and the maintain.Graph wrapper under the
// maintenance session: two untraced passes over the bare dyngraph, then
// traced passes and traced maintenance batches.
func traceDecompose(rc *runCtx) (*result, error) {
	fx, p, _, err := makeDecomposeFixture(rc)
	if err != nil {
		return nil, err
	}
	g := rc.runFile("traced")
	if err := fx.copyTo(g); err != nil {
		return nil, err
	}
	io := stats.NewIOCounter(4096)
	dg, err := dyngraph.Open(g, io, dyngraph.Options{})
	if err != nil {
		return nil, err
	}
	defer dg.Close()
	var untracedSecs []float64
	for i := 0; i < 2; i++ {
		t := time.Now()
		if _, err := semicore.SemiCoreStar(dg, &semicore.Options{Mem: stats.NewMemModel()}); err != nil {
			return nil, err
		}
		untracedSecs = append(untracedSecs, time.Since(t).Seconds())
	}
	t := newTracer()
	t.on.Store(true)
	gc := &graphCounts{}
	tg := &tracedGraph{t: t, g: dg, gc: gc}
	half := time.Duration(rc.seconds / 2 * float64(time.Second))
	var res *semicore.Result
	var secs []float64
	var readNs, computeNs, readBytes int64
	for start := time.Now(); len(secs) < 2 || time.Since(start) < half; {
		r0, c0, b0 := gc.readNs.Load(), gc.computeNs.Load(), io.Snapshot().ReadBytes
		id := t.begin("semicore.SemiCoreStar", 0, 0)
		st := time.Now()
		r, err := semicore.SemiCoreStar(tg, &semicore.Options{Mem: stats.NewMemModel()})
		if err != nil {
			return nil, err
		}
		secs = append(secs, time.Since(st).Seconds())
		t.end(id, t.aggNs.Load())
		readNs, computeNs, readBytes = gc.readNs.Load()-r0, gc.computeNs.Load()-c0, io.Snapshot().ReadBytes-b0
		res = r
	}
	o, err := newOracle(fx.csr, nil)
	if err != nil {
		return nil, err
	}
	gateErr := o.checkCores(res.Core)

	state, err := semicore.StateFrom(res.Core, res.Cnt)
	if err != nil {
		return nil, err
	}
	gc.reset()
	lc := &layerCounts{}
	b := &tracedBackend{t: t, sess: maintain.SessionFrom(tg, state), g: tg, io: io, lc: lc}
	ioBefore, compBefore := io.Snapshot(), dg.Compactions
	var attempted int64
	for stop := time.Now().Add(half); time.Now().Before(stop); {
		ups := p.next(writeBatch)
		batch := make([]kcore.Edge, len(ups))
		for i, u := range ups {
			batch[i] = kcore.Edge{U: u.u, V: u.v}
		}
		if ups[0].del {
			_, err = b.DeleteEdges(batch)
		} else {
			_, err = b.InsertEdges(batch)
		}
		attempted++
		if err != nil {
			return nil, fmt.Errorf("maintain batch: %w", err)
		}
	}
	// No run reaches the pool's insert pass (see poolSize), so the
	// SemiInsert* path gets a fixed sample of its own: the last deleted
	// edges re-inserted in small batches, stepping the pass back.
	for i := 0; i < insertSamples && p.deleting && p.pos >= insertBatch; i++ {
		p.pos -= insertBatch
		if _, err := b.InsertEdges(p.edges[p.pos : p.pos+insertBatch]); err != nil {
			return nil, fmt.Errorf("maintain insert batch: %w", err)
		}
		attempted++
	}
	t.on.Store(false)
	if gateErr == nil {
		o, err := newOracle(fx.csr, p.deleted())
		if err != nil {
			return nil, err
		}
		gateErr = o.checkCores(b.sess.Core())
	}
	if gateErr != nil {
		logf("gate: %v", gateErr)
	}

	t.mu.Lock()
	self := t.selfNs()
	ss := spanStats{}
	for i, s := range t.spans {
		e := ss[s.name]
		e.n++
		e.self += float64(self[i])
		ss[s.name] = e
	}
	t.mu.Unlock()
	applied := float64(lc.applied.Load())
	passUs := median(secs) * 1e6
	v := map[string]float64{
		"semicore.iterations":                   float64(res.Stats.Iterations),
		"semicore.node_computations":            float64(res.Stats.NodeComputations),
		"semicore.source_read_s":                float64(readNs) / 1e9,
		"semicore.compute_s":                    float64(computeNs) / 1e9,
		"storage.read_mb":                       float64(readBytes) / 1e6,
		"maintain.insert_us":                    ss.mean("maintain.insert") / 1e3,
		"maintain.delete_us":                    ss.mean("maintain.delete") / 1e3,
		"maintain.node_computations_per_update": float64(lc.nodeComps.Load()) / applied,
		"maintain.dirty_per_update":             float64(lc.dirty.Load()) / applied,
		"dyngraph.read_us_per_update":           float64(gc.readNs.Load()) / 1e3 / applied,
		"dyngraph.mutate_s":                     float64(gc.mutateNs.Load()) / 1e9,
		"dyngraph.compactions":                  float64(dg.Compactions - compBefore),
		"dyngraph.block_reads_per_update":       float64(io.Snapshot().Reads-ioBefore.Reads) / applied,
		"trace.blocking_path_us":                float64(readNs+computeNs) / 1e3,
		"trace.e2e_us":                          secs[len(secs)-1] * 1e6, // the pass the read/compute split is of
		"trace.overhead_us":                     passUs - median(untracedSecs)*1e6,
	}
	v["trace.coverage"] = v["trace.blocking_path_us"] / v["trace.e2e_us"]
	logf("traced decompose: pass %.0fus, source read %.0fus + compute %.0fus (coverage %.2f), overhead %.0fus",
		v["trace.e2e_us"], float64(readNs)/1e3, float64(computeNs)/1e3, v["trace.coverage"], v["trace.overhead_us"])
	failed := int64(0)
	if gateErr != nil {
		failed = 1
	}
	return layerResult(v, gateErr == nil, attempted+int64(len(secs))+2, failed), nil
}
