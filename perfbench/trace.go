package main

import (
	"bytes"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"kcore"
	"kcore/internal/engine"
	"kcore/internal/graph"
	"kcore/internal/maintain"
	"kcore/internal/serve"
	"kcore/internal/stats"
)

// The traced run records spans in memory from the benchmark's own
// wrappers around each layer's public seam, and aggregates the calls too
// frequent for a span each (graph scans and edge mutations) into
// per-span child time and counters.

// reqIDHeader carries the client's request number to the traced server.
const reqIDHeader = "X-Bench-Req"

// span is one recorded call: name, start, end (ns since the tracer's
// epoch), the span that caused it (0 for none), the client request it
// serves (0 for none), and the time its aggregated graph calls took.
type span struct {
	name       string
	start, end int64
	parent     int
	req        uint64
	gid        uint64
	aggNs      int64
	missed     bool // a /kcore request that missed the epoch memo
}

// tracer holds the spans of one traced phase. Recording is off until
// enable, so the same assembled stack also gives the untraced baseline
// for the overhead figure.
type tracer struct {
	t0 time.Time
	on atomic.Bool

	mu    sync.Mutex
	spans []span // index+1 is the span id
	// active maps a goroutine to its innermost open span, for parenting
	// calls made on the same goroutine.
	active map[uint64]int
	// applying is the open engine.Apply/Enqueue span the writer
	// goroutine is working for: backend spans on the writer goroutine
	// take it as parent.
	applying atomic.Int64
	// reqSeq numbers the traced client's requests.
	reqSeq atomic.Uint64

	// Aggregated graph-layer time, added by the graph wrappers on the
	// writer goroutine and charged to the open backend span.
	aggNs atomic.Int64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), active: map[uint64]int{}}
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// goid parses the current goroutine's id from its stack header. It costs
// about a microsecond, paid only while recording.
func goid() uint64 {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	if i := bytes.IndexByte(b, ' '); i > 0 {
		id, _ := strconv.ParseUint(string(b[:i]), 10, 64)
		return id
	}
	return 0
}

// begin opens a span on the calling goroutine; parent < 0 selects the
// goroutine's innermost open span.
func (t *tracer) begin(name string, parent int, req uint64) int {
	if !t.on.Load() {
		return 0
	}
	g := goid()
	t.mu.Lock()
	defer t.mu.Unlock()
	if parent < 0 {
		parent = t.active[g]
	}
	t.spans = append(t.spans, span{name: name, start: t.now(), parent: parent, req: req, gid: g})
	id := len(t.spans)
	t.active[g] = id
	return id
}

// end closes span id, charging it the aggregated graph time since
// aggStart.
func (t *tracer) end(id int, aggStart int64) {
	if id == 0 {
		return
	}
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.end = now
	s.aggNs = t.aggNs.Load() - aggStart
	if t.active[s.gid] == id {
		t.active[s.gid] = s.parent
	}
}

// selfNs is a span's duration minus its child spans and aggregated graph
// time.
func (t *tracer) selfNs() []int64 {
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.end - s.start - s.aggNs
		if s.parent > 0 {
			self[s.parent-1] -= s.end - s.start
		}
	}
	return self
}

// ---- http.Handler seam ----

type tracedHandler struct {
	t    *tracer
	next http.Handler
	ctr  func() *stats.ServeCounters
}

func (h tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !h.t.on.Load() {
		h.next.ServeHTTP(w, r)
		return
	}
	req, _ := strconv.ParseUint(r.Header.Get(reqIDHeader), 10, 64)
	kcoreReq := r.URL.Path == "/kcore"
	var misses int64
	if kcoreReq {
		misses = h.ctr().Snapshot(time.Now()).CacheMisses
	}
	id := h.t.begin("httpapi"+r.URL.Path, 0, req)
	h.next.ServeHTTP(w, r)
	h.t.end(id, h.t.aggNs.Load())
	if id > 0 && kcoreReq && h.ctr().Snapshot(time.Now()).CacheMisses > misses {
		h.t.mu.Lock()
		h.t.spans[id-1].missed = true
		h.t.mu.Unlock()
	}
}

// ---- engine.Engine seam (registered through Registry.Register) ----

type tracedEngine struct {
	engine.Engine
	t *tracer
}

// Unwrap lets /stats find the wrapped engine's optional extensions.
func (e tracedEngine) Unwrap() engine.Engine { return e.Engine }

func (e tracedEngine) Snapshot() *serve.Epoch {
	id := e.t.begin("engine.Snapshot", -1, 0)
	s := e.Engine.Snapshot()
	e.t.end(id, e.t.aggNs.Load())
	return s
}

func (e tracedEngine) Enqueue(ups ...serve.Update) error {
	id := e.t.begin("engine.Enqueue", -1, 0)
	err := e.Engine.Enqueue(ups...)
	e.t.end(id, e.t.aggNs.Load())
	return err
}

// Apply is Enqueue then Sync, which is what every engine's Apply does;
// traced, the two halves get spans of their own, and the writer's
// backend spans become children of the Sync they complete.
func (e tracedEngine) Apply(ups ...serve.Update) error {
	if !e.t.on.Load() {
		return e.Engine.Apply(ups...)
	}
	id := e.t.begin("engine.Apply", -1, 0)
	defer func() { e.t.end(id, e.t.aggNs.Load()) }()
	if err := e.Enqueue(ups...); err != nil {
		return err
	}
	sid := e.t.begin("engine.Sync", -1, 0)
	prev := e.t.applying.Swap(int64(sid))
	err := e.Engine.Sync()
	e.t.applying.Store(prev)
	e.t.end(sid, e.t.aggNs.Load())
	return err
}

// ---- serve.Backend seam (passed to serve.NewBackend) ----

// layerCounts are the work counts the backend wrapper sees.
type layerCounts struct {
	applied, nodeComps, dirty atomic.Int64
	validateNs, flushes       atomic.Int64
	publishNs                 atomic.Int64
	snapStart                 atomic.Int64
}

func (c *layerCounts) reset() {
	for _, a := range []*atomic.Int64{&c.applied, &c.nodeComps, &c.dirty, &c.validateNs, &c.flushes, &c.publishNs} {
		a.Store(0)
	}
}

// tracedBackend is serve.Backend over a maintenance session: the
// in-memory pair kcore.Maintainer builds (a dyngraph), or a diskengine
// Store, each behind the graph wrapper.
type tracedBackend struct {
	t    *tracer
	sess *maintain.Session
	g    maintain.Graph
	io   *stats.IOCounter
	lc   *layerCounts
}

func (b *tracedBackend) NumNodes() uint32 { return b.g.NumNodes() }
func (b *tracedBackend) NumEdges() int64  { return b.g.NumEdges() }
func (b *tracedBackend) Cores() []uint32  { return b.sess.Core() }

func (b *tracedBackend) IOStats() kcore.IOStats {
	s := b.io.Snapshot()
	return kcore.IOStats{BlockSize: s.BlockSize, Reads: s.Reads, Writes: s.Writes, ReadBytes: s.ReadBytes, WriteBytes: s.WriteBytes}
}

func (b *tracedBackend) HasEdge(u, v uint32) (bool, error) {
	start := time.Now()
	ok, err := b.g.HasEdge(u, v)
	b.lc.validateNs.Add(int64(time.Since(start)))
	return ok, err
}

func (b *tracedBackend) apply(name string, f func() (stats.RunStats, error), n int) (kcore.RunInfo, error) {
	id := b.t.begin(name, int(b.t.applying.Load()), 0)
	agg := b.t.aggNs.Load()
	rs, err := f()
	b.t.end(id, agg)
	b.lc.applied.Add(int64(n))
	b.lc.nodeComps.Add(rs.NodeComputations)
	b.lc.dirty.Add(int64(len(rs.Dirty)))
	return kcore.RunInfo{Algorithm: rs.Algorithm, Iterations: rs.Iterations, NodeComputations: rs.NodeComputations,
		Dirty: rs.Dirty, Duration: rs.Duration}, err
}

func (b *tracedBackend) InsertEdges(edges []kcore.Edge) (kcore.RunInfo, error) {
	return b.apply("maintain.insert", func() (stats.RunStats, error) { return b.sess.BatchInsert(edges) }, len(edges))
}

func (b *tracedBackend) DeleteEdges(edges []kcore.Edge) (kcore.RunInfo, error) {
	return b.apply("maintain.delete", func() (stats.RunStats, error) { return b.sess.BatchDelete(edges) }, len(edges))
}

func (b *tracedBackend) Snapshot() *kcore.CoreSnapshot {
	b.lc.snapStart.Store(b.t.now())
	return kcore.SnapshotFromCores(b.sess.Core(), b.g.NumEdges())
}

func (b *tracedBackend) SnapshotDelta(prev *kcore.CoreSnapshot, dirty []uint32) (*kcore.CoreSnapshot, int) {
	b.lc.snapStart.Store(b.t.now())
	return prev.WithUpdates(b.sess.Core(), dirty, b.g.NumEdges())
}

// onPublish is the session's OnPublish hook: it closes the publish
// stage that began with the snapshot build and counts the flush.
func (b *tracedBackend) onPublish(*serve.Epoch) {
	if s := b.lc.snapStart.Load(); s > 0 {
		b.lc.publishNs.Add(b.t.now() - s)
	}
	b.lc.flushes.Add(1)
}

// ---- maintain.Graph / graph.Source seam ----

// graphCounts are the graph wrapper's aggregates.
type graphCounts struct {
	readNs, mutateNs, mergeNs, computeNs atomic.Int64
	merges                               atomic.Int64
}

func (c *graphCounts) reset() {
	for _, a := range []*atomic.Int64{&c.readNs, &c.mutateNs, &c.mergeNs, &c.computeNs, &c.merges} {
		a.Store(0)
	}
}

// tracedGraph times the graph layer under the algorithms: scans and
// presence checks are reads (less the time spent in the algorithm's
// callbacks, which is compute), edge inserts and deletes are mutations
// (including any compaction or overlay merge they trigger).
type tracedGraph struct {
	t  *tracer
	g  maintain.Graph
	gc *graphCounts
	// overlay, when set, reports the disk store's buffered arcs, which
	// drop to zero when a mutation merges the overlay.
	overlay func() int
}

var _ graph.Source = (*tracedGraph)(nil)

func (g *tracedGraph) NumNodes() uint32 { return g.g.NumNodes() }
func (g *tracedGraph) NumEdges() int64  { return g.g.NumEdges() }

func (g *tracedGraph) read(f func() error) error {
	start := time.Now()
	compute := g.gc.computeNs.Load()
	err := f()
	d := int64(time.Since(start)) - (g.gc.computeNs.Load() - compute)
	g.gc.readNs.Add(d)
	g.t.aggNs.Add(d)
	return err
}

func (g *tracedGraph) timed(fn func(v uint32, nbrs []uint32) error) func(v uint32, nbrs []uint32) error {
	return func(v uint32, nbrs []uint32) error {
		start := time.Now()
		err := fn(v, nbrs)
		g.gc.computeNs.Add(int64(time.Since(start)))
		return err
	}
}

func (g *tracedGraph) ScanDegrees(fn func(v uint32, deg uint32) error) error {
	return g.read(func() error { return g.g.ScanDegrees(fn) })
}

func (g *tracedGraph) Scan(vmin, vmax uint32, want func(v uint32) bool, fn func(v uint32, nbrs []uint32) error) error {
	return g.read(func() error { return g.g.Scan(vmin, vmax, want, g.timed(fn)) })
}

func (g *tracedGraph) ScanDynamic(vmin uint32, vmaxFn func() uint32, want func(v uint32) bool, fn func(v uint32, nbrs []uint32) error) error {
	return g.read(func() error { return g.g.ScanDynamic(vmin, vmaxFn, want, g.timed(fn)) })
}

func (g *tracedGraph) HasEdge(u, v uint32) (ok bool, err error) {
	err = g.read(func() error { ok, err = g.g.HasEdge(u, v); return err })
	return ok, err
}

func (g *tracedGraph) mutate(f func() error) error {
	before := 0
	if g.overlay != nil {
		before = g.overlay()
	}
	start := time.Now()
	err := f()
	d := int64(time.Since(start))
	g.gc.mutateNs.Add(d)
	g.t.aggNs.Add(d)
	if g.overlay != nil && g.overlay() < before-2 {
		g.gc.merges.Add(1)
		g.gc.mergeNs.Add(d)
	}
	return err
}

func (g *tracedGraph) InsertEdge(u, v uint32) error {
	return g.mutate(func() error { return g.g.InsertEdge(u, v) })
}

func (g *tracedGraph) DeleteEdge(u, v uint32) error {
	return g.mutate(func() error { return g.g.DeleteEdge(u, v) })
}
