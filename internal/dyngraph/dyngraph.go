// Package dyngraph provides the dynamic graph the maintenance algorithms
// run on: an immutable on-disk graph plus an in-memory buffer of recently
// inserted and deleted edges, exactly the "Graph Maintenance" scheme of
// Section V — "we allow a memory buffer to maintain the latest inserted /
// deleted edges ... when the buffer is full, we update the graph on disk
// and clear the buffer. Each time we load nbr(v) ... we also obtain the
// inserted / deleted edges for v from the memory buffer".
package dyngraph

import (
	"fmt"
	"os"
	"sort"

	"kcore/internal/graph"
	"kcore/internal/stats"
	"kcore/internal/storage"
)

// Options tunes a dynamic graph.
type Options struct {
	// BufferArcs is the buffered-arc capacity that triggers automatic
	// compaction (each logical edge buffers two arcs); non-positive
	// selects 1<<16.
	BufferArcs int
	// Mem, when non-nil, receives the buffer's model allocation.
	Mem *stats.MemModel
}

// Graph is a disk graph with a write buffer overlay.
type Graph struct {
	disk    *storage.Graph
	base    string
	ctr     *stats.IOCounter
	ins     map[uint32][]uint32 // sorted inserted neighbours
	del     map[uint32][]uint32 // sorted deleted neighbours
	bufArcs int
	limit   int
	arcs    int64 // current logical arc count
	mem     *stats.MemModel
	scratch []uint32
	// mergeBuf is the merged-list buffer scans hand their callbacks;
	// scanning marks it lent out, so a scan started from inside a
	// callback merges into a fresh buffer instead.
	mergeBuf []uint32
	scanning bool
	// Compactions counts buffer flushes to disk.
	Compactions int
}

// Open attaches a dynamic view to the graph stored at base. All I/O —
// reads through the overlay and compaction writes — is charged to ctr.
func Open(base string, ctr *stats.IOCounter, opts Options) (*Graph, error) {
	if ctr == nil {
		ctr = stats.NewIOCounter(0)
	}
	dg, err := storage.Open(base, ctr)
	if err != nil {
		return nil, err
	}
	limit := opts.BufferArcs
	if limit <= 0 {
		limit = 1 << 16
	}
	return &Graph{
		disk:  dg,
		base:  base,
		ctr:   ctr,
		ins:   make(map[uint32][]uint32),
		del:   make(map[uint32][]uint32),
		limit: limit,
		arcs:  dg.NumArcs(),
		mem:   opts.Mem,
	}, nil
}

// Close releases the disk files. If the session never compacted, pending
// buffered edits are discarded and the on-disk graph is exactly as
// opened; but if a compaction already rewrote the files mid-session,
// discarding the remaining buffer would leave a torn state (early edits
// applied, late ones lost), so Close flushes the buffer first in that
// case.
func (g *Graph) Close() error {
	if g.Compactions > 0 && g.bufArcs > 0 {
		if err := g.Compact(); err != nil {
			g.disk.Close()
			return err
		}
	}
	return g.disk.Close()
}

// NumNodes reports n. The node set is fixed at open time (the
// semi-external model keeps per-node state in memory, so node arrivals
// are a re-build, not a buffered update).
func (g *Graph) NumNodes() uint32 { return g.disk.NumNodes() }

// NumArcs reports the current logical arc count (disk plus buffer).
func (g *Graph) NumArcs() int64 { return g.arcs }

// NumEdges reports the current logical undirected edge count.
func (g *Graph) NumEdges() int64 { return g.arcs / 2 }

// BufferedArcs reports the arcs currently in the buffer.
func (g *Graph) BufferedArcs() int { return g.bufArcs }

// IOCounter exposes the counter shared by overlay reads and compactions.
func (g *Graph) IOCounter() *stats.IOCounter { return g.ctr }

// HasEdge reports whether {u,v} is currently present. It consults the
// buffer first and falls back to one indexed disk read.
func (g *Graph) HasEdge(u, v uint32) (bool, error) {
	if contains(g.del[u], v) {
		return false, nil
	}
	if contains(g.ins[u], v) {
		return true, nil
	}
	nbrs, err := g.disk.Neighbors(u, g.scratch[:0])
	g.scratch = nbrs[:0]
	if err != nil {
		return false, err
	}
	return contains(nbrs, v), nil
}

// InsertEdge buffers the insertion of {u,v}. Inserting an existing edge
// or a self-loop is an error. The buffer is compacted to disk when full.
func (g *Graph) InsertEdge(u, v uint32) error {
	if err := g.checkPair(u, v); err != nil {
		return err
	}
	present, err := g.HasEdge(u, v)
	if err != nil {
		return err
	}
	if present {
		return fmt.Errorf("dyngraph: edge (%d,%d) already present", u, v)
	}
	// An insert cancels a buffered delete of the same edge.
	if contains(g.del[u], v) {
		g.removeBuffered(g.del, u, v)
	} else {
		g.addBuffered(g.ins, u, v)
	}
	g.arcs += 2
	return g.maybeCompact()
}

// DeleteEdge buffers the deletion of {u,v}. Deleting an absent edge is an
// error.
func (g *Graph) DeleteEdge(u, v uint32) error {
	if err := g.checkPair(u, v); err != nil {
		return err
	}
	present, err := g.HasEdge(u, v)
	if err != nil {
		return err
	}
	if !present {
		return fmt.Errorf("dyngraph: edge (%d,%d) not present", u, v)
	}
	if contains(g.ins[u], v) {
		g.removeBuffered(g.ins, u, v)
	} else {
		g.addBuffered(g.del, u, v)
	}
	g.arcs -= 2
	return g.maybeCompact()
}

// InsertEdgeTrusted buffers the insertion of {u,v} without the composite
// presence probe — on an overlay miss that probe is a disk read, and it
// is pure re-validation when the caller has already established the edge
// is absent (the region-parallel flush validates every op against its
// in-memory mirror, which is kept bit-identical to this graph). The
// overlay bookkeeping is unchanged: a buffered delete of the same edge
// is cancelled, otherwise the insert is buffered. Trust violated means
// overlay corruption (a base edge in the insert buffer), so callers
// without an exact replica must use InsertEdge.
func (g *Graph) InsertEdgeTrusted(u, v uint32) error {
	if err := g.checkPair(u, v); err != nil {
		return err
	}
	if contains(g.del[u], v) {
		g.removeBuffered(g.del, u, v)
	} else {
		g.addBuffered(g.ins, u, v)
	}
	g.arcs += 2
	return g.maybeCompact()
}

// DeleteEdgeTrusted buffers the deletion of {u,v} the caller has already
// validated as present; see InsertEdgeTrusted for the contract.
func (g *Graph) DeleteEdgeTrusted(u, v uint32) error {
	if err := g.checkPair(u, v); err != nil {
		return err
	}
	if contains(g.ins[u], v) {
		g.removeBuffered(g.ins, u, v)
	} else {
		g.addBuffered(g.del, u, v)
	}
	g.arcs -= 2
	return g.maybeCompact()
}

func (g *Graph) checkPair(u, v uint32) error {
	n := g.NumNodes()
	if u >= n || v >= n {
		return fmt.Errorf("dyngraph: edge (%d,%d) out of range n=%d", u, v, n)
	}
	if u == v {
		return fmt.Errorf("dyngraph: self-loop (%d,%d)", u, v)
	}
	return nil
}

func (g *Graph) addBuffered(m map[uint32][]uint32, u, v uint32) {
	m[u] = insertSorted(m[u], v)
	m[v] = insertSorted(m[v], u)
	g.bufArcs += 2
	g.noteBufferSize()
}

func (g *Graph) removeBuffered(m map[uint32][]uint32, u, v uint32) {
	m[u] = removeSorted(m[u], v)
	m[v] = removeSorted(m[v], u)
	if len(m[u]) == 0 {
		delete(m, u)
	}
	if len(m[v]) == 0 {
		delete(m, v)
	}
	g.bufArcs -= 2
	g.noteBufferSize()
}

func (g *Graph) noteBufferSize() {
	if g.mem != nil {
		// 4 bytes per buffered arc plus map-entry overhead, modelled flat.
		g.mem.Alloc("dyngraph/buffer", int64(g.bufArcs)*12)
	}
}

func (g *Graph) maybeCompact() error {
	if g.bufArcs <= g.limit {
		return nil
	}
	return g.Compact()
}

// Compact merges the buffer into the disk tables: one sequential read of
// the old graph, one sequential write of the new one (both counted), then
// an atomic swap. The buffer is cleared.
func (g *Graph) Compact() error {
	if g.bufArcs == 0 {
		return nil
	}
	tmp := g.base + ".compact"
	b, err := storage.NewBuilder(tmp, g.NumNodes(), g.ctr)
	if err != nil {
		return err
	}
	err = g.Scan(0, g.NumNodes()-1, nil, func(v uint32, nbrs []uint32) error {
		return b.AppendList(v, nbrs)
	})
	if err != nil {
		b.Abort()
		return err
	}
	if err := b.Close(); err != nil {
		return err
	}
	if err := g.disk.Close(); err != nil {
		return err
	}
	for _, ext := range []string{".meta", ".nt", ".et"} {
		if err := os.Rename(tmp+ext, g.base+ext); err != nil {
			return fmt.Errorf("dyngraph: swapping %s: %w", ext, err)
		}
	}
	dg, err := storage.Open(g.base, g.ctr)
	if err != nil {
		return err
	}
	g.disk = dg
	g.ins = make(map[uint32][]uint32)
	g.del = make(map[uint32][]uint32)
	g.bufArcs = 0
	g.noteBufferSize()
	g.Compactions++
	return nil
}

// merge overlays buffered inserts/deletes onto a disk adjacency list.
// disk and ins are sorted and disjoint; del is a subset of disk.
func merge(disk, ins, del, out []uint32) []uint32 {
	out = out[:0]
	i, j := 0, 0
	for i < len(disk) || j < len(ins) {
		var x uint32
		if i < len(disk) && (j >= len(ins) || disk[i] <= ins[j]) {
			x = disk[i]
			i++
			if contains(del, x) {
				continue
			}
		} else {
			x = ins[j]
			j++
		}
		out = append(out, x)
	}
	return out
}

// Neighbors returns the merged adjacency of v, appending into buf.
func (g *Graph) Neighbors(v uint32, buf []uint32) ([]uint32, error) {
	disk, err := g.disk.Neighbors(v, g.scratch[:0])
	g.scratch = disk[:0]
	if err != nil {
		return nil, err
	}
	return merge(disk, g.ins[v], g.del[v], buf), nil
}

// Degree reports the merged degree of v (one indexed node-table read plus
// buffer arithmetic).
func (g *Graph) Degree(v uint32) (uint32, error) {
	d, err := g.disk.Degree(v)
	if err != nil {
		return 0, err
	}
	return uint32(int64(d) + int64(len(g.ins[v])) - int64(len(g.del[v]))), nil
}

// ScanDegrees implements graph.Source over the merged view.
func (g *Graph) ScanDegrees(fn func(v uint32, deg uint32) error) error {
	return g.disk.ScanDegrees(func(v uint32, d uint32) error {
		return fn(v, uint32(int64(d)+int64(len(g.ins[v]))-int64(len(g.del[v]))))
	})
}

// Scan implements graph.Source over the merged view.
func (g *Graph) Scan(vmin, vmax uint32, want func(v uint32) bool, fn func(v uint32, nbrs []uint32) error) error {
	cur := vmax
	return g.ScanDynamic(vmin, func() uint32 { return cur }, want, fn)
}

// ScanDynamic implements graph.Source over the merged view.
func (g *Graph) ScanDynamic(vmin uint32, vmaxFn func() uint32, want func(v uint32) bool, fn func(v uint32, nbrs []uint32) error) error {
	overlay, done := g.overlayFn(fn)
	defer done()
	return g.disk.ScanDynamic(vmin, vmaxFn, want, overlay)
}

// ScanMarked implements graph.MarkedScanner over the merged view; the
// disk reads are the disk graph's marked scan.
func (g *Graph) ScanMarked(vmin uint32, vmaxFn func() uint32, marks *graph.Marks, fn func(v uint32, nbrs []uint32) error) error {
	overlay, done := g.overlayFn(fn)
	defer done()
	return g.disk.ScanMarked(vmin, vmaxFn, marks, overlay)
}

// overlayFn wraps a scan callback so it sees each disk list merged with
// the buffered edits, merging into the graph's reusable buffer — or a
// fresh one when a scan is already running — and returns the release
// to defer.
func (g *Graph) overlayFn(fn func(v uint32, nbrs []uint32) error) (overlay func(v uint32, disk []uint32) error, done func()) {
	var out []uint32
	owner := !g.scanning
	if owner {
		g.scanning, out = true, g.mergeBuf
	}
	overlay = func(v uint32, disk []uint32) error {
		ins, del := g.ins[v], g.del[v]
		if len(ins) == 0 && len(del) == 0 {
			return fn(v, disk)
		}
		out = merge(disk, ins, del, out)
		return fn(v, out)
	}
	done = func() {
		if owner {
			g.scanning, g.mergeBuf = false, out[:0]
		}
	}
	return overlay, done
}

var (
	_ graph.Source        = (*Graph)(nil)
	_ graph.MarkedScanner = (*Graph)(nil)
)

func contains(l []uint32, x uint32) bool {
	i := sort.Search(len(l), func(i int) bool { return l[i] >= x })
	return i < len(l) && l[i] == x
}

func insertSorted(l []uint32, x uint32) []uint32 {
	i := sort.Search(len(l), func(i int) bool { return l[i] >= x })
	l = append(l, 0)
	copy(l[i+1:], l[i:])
	l[i] = x
	return l
}

func removeSorted(l []uint32, x uint32) []uint32 {
	i := sort.Search(len(l), func(i int) bool { return l[i] >= x })
	if i < len(l) && l[i] == x {
		copy(l[i:], l[i+1:])
		l = l[:len(l)-1]
	}
	return l
}
