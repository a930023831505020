package serve

import (
	"fmt"
	"slices"
	"sort"
	"sync/atomic"

	"kcore"
	"kcore/internal/graph"
	"kcore/internal/maintain"
)

// mirror is the writer-owned in-memory copy of the served graph's
// adjacency that the region-parallel flush runs maintenance against. It
// exists because the authoritative dyngraph is single-caller by design
// (shared scan scratch, buffered-overlay maps, compactions to disk):
// concurrent region workers need an adjacency they can read and mutate
// with no hidden shared state, which a plain [][]uint32 is — workers
// touch node-disjoint regions, so their slice accesses never alias.
//
// The mirror is built once from one scan of the authoritative graph and
// then kept exactly in sync forever: the parallel path mutates it
// through the worker sessions (and the authoritative graph catches up
// via ApplyPrepared), the sequential path patches it after each applied
// batch. Any observed divergence (an apply the mirror disagrees with)
// discards the whole parallel apparatus rather than trusting it.
//
// mirror implements maintain.NeighborGraph, so the same maintenance
// algorithms run against it unchanged.
type mirror struct {
	adj [][]uint32
	// edges is atomic only because concurrent region workers each adjust
	// it while mutating their (node-disjoint) adjacency regions; all
	// other mirror state is touched by one goroutine at a time.
	edges atomic.Int64

	// uf is the component coarsening that partitions a batch into
	// independent regions. Inserts union their endpoints (components
	// only ever merge, so the index stays exact for them); deletes are
	// only counted — a deletion may split a component, which the index
	// misses, leaving it a sound over-approximation of connectivity
	// (regions it reports disjoint really are disjoint; it may merely
	// under-report the region count). Past ufStaleFrac the index is
	// rebuilt from the live adjacency to win back lost parallelism.
	uf             unionFind
	deletesSinceUF int
}

// ufStaleFrac triggers a union-find rebuild once the deletes applied
// since the last build exceed edges/ufStaleFrac: each delete can only
// hide a component split, so bounded staleness costs parallelism, never
// correctness.
const ufStaleFrac = 4

// buildMirror scans the quiescent graph into a mirror. Called from the
// writer goroutine between flushes, so the scan sees one consistent
// state; the edge scan is the one O(n+m) cost the parallel path pays
// up front (and it is counted as read I/O like any other scan).
func buildMirror(g *kcore.Graph) (*mirror, error) {
	m := &mirror{adj: make([][]uint32, g.NumNodes())}
	edges := int64(0)
	err := g.VisitEdges(func(u, v uint32) error {
		m.adj[u] = append(m.adj[u], v)
		m.adj[v] = append(m.adj[v], u)
		edges++
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("serve: mirror scan: %w", err)
	}
	m.edges.Store(edges)
	for _, nbrs := range m.adj {
		if !slices.IsSorted(nbrs) {
			slices.Sort(nbrs)
		}
	}
	if edges != g.NumEdges() {
		return nil, fmt.Errorf("serve: mirror scan saw %d edges, graph reports %d", edges, g.NumEdges())
	}
	m.rebuildUF()
	return m, nil
}

// rebuildUF recomputes the component index from the live adjacency.
func (m *mirror) rebuildUF() {
	m.uf.reset(uint32(len(m.adj)))
	for u, nbrs := range m.adj {
		for _, v := range nbrs {
			if uint32(u) < v {
				m.uf.union(uint32(u), v)
			}
		}
	}
	m.deletesSinceUF = 0
}

// maybeRebuildUF rebuilds the component index when delete staleness has
// eaten too far into its precision.
func (m *mirror) maybeRebuildUF() {
	if limit := int(m.edges.Load()/ufStaleFrac) + 1; m.deletesSinceUF > limit {
		m.rebuildUF()
	}
}

// --- maintain.NeighborGraph ---

func (m *mirror) NumNodes() uint32 { return uint32(len(m.adj)) }
func (m *mirror) NumEdges() int64  { return m.edges.Load() }

func (m *mirror) Neighbors(v uint32) ([]uint32, error) {
	if v >= m.NumNodes() {
		return nil, fmt.Errorf("serve: mirror node %d out of range n=%d", v, m.NumNodes())
	}
	return m.adj[v], nil
}

func (m *mirror) HasEdge(u, v uint32) (bool, error) {
	if u >= m.NumNodes() || v >= m.NumNodes() {
		return false, fmt.Errorf("serve: mirror edge (%d,%d) out of range n=%d", u, v, m.NumNodes())
	}
	return sortedContains(m.adj[u], v), nil
}

func (m *mirror) InsertEdge(u, v uint32) error {
	if err := m.checkPair(u, v); err != nil {
		return err
	}
	if sortedContains(m.adj[u], v) {
		return fmt.Errorf("serve: mirror edge (%d,%d) already present", u, v)
	}
	m.adj[u] = sortedInsert(m.adj[u], v)
	m.adj[v] = sortedInsert(m.adj[v], u)
	m.edges.Add(1)
	return nil
}

func (m *mirror) DeleteEdge(u, v uint32) error {
	if err := m.checkPair(u, v); err != nil {
		return err
	}
	if !sortedContains(m.adj[u], v) {
		return fmt.Errorf("serve: mirror edge (%d,%d) not present", u, v)
	}
	m.adj[u] = sortedRemove(m.adj[u], v)
	m.adj[v] = sortedRemove(m.adj[v], u)
	m.edges.Add(-1)
	return nil
}

func (m *mirror) checkPair(u, v uint32) error {
	n := m.NumNodes()
	if u >= n || v >= n {
		return fmt.Errorf("serve: mirror edge (%d,%d) out of range n=%d", u, v, n)
	}
	if u == v {
		return fmt.Errorf("serve: mirror self-loop (%d,%d)", u, v)
	}
	return nil
}

func (m *mirror) ScanDegrees(fn func(v uint32, deg uint32) error) error {
	for v, nbrs := range m.adj {
		if err := fn(uint32(v), uint32(len(nbrs))); err != nil {
			if graph.IsStop(err) {
				return nil
			}
			return err
		}
	}
	return nil
}

func (m *mirror) Scan(vmin, vmax uint32, want func(v uint32) bool, fn func(v uint32, nbrs []uint32) error) error {
	return m.ScanDynamic(vmin, func() uint32 { return vmax }, want, fn)
}

// ScanDynamic walks the window exactly as the disk scans do.
func (m *mirror) ScanDynamic(vmin uint32, vmaxFn func() uint32, want func(v uint32) bool, fn func(v uint32, nbrs []uint32) error) error {
	n := uint64(m.NumNodes())
	for v := uint64(vmin); v <= uint64(vmaxFn()) && v < n; v++ {
		if want != nil && !want(uint32(v)) {
			continue
		}
		if err := fn(uint32(v), m.adj[v]); err != nil {
			if graph.IsStop(err) {
				return nil
			}
			return err
		}
	}
	return nil
}

// ScanMarked implements graph.MarkedScanner. Under the region-parallel
// flush each worker session owns its marks and marks only nodes of its
// own region, so a worker's window scan never reaches a foreign node's
// adjacency or state; the mirror itself keeps no scan scratch, so
// concurrent scans share nothing mutable.
func (m *mirror) ScanMarked(vmin uint32, vmaxFn func() uint32, marks *graph.Marks, fn func(v uint32, nbrs []uint32) error) error {
	return marks.Visit(vmin, vmaxFn, m.NumNodes(), func(v uint32) error {
		return fn(v, m.adj[v])
	})
}

var (
	_ maintain.NeighborGraph = (*mirror)(nil)
	_ graph.MarkedScanner    = (*mirror)(nil)
)

func sortedContains(l []uint32, x uint32) bool {
	i := sort.Search(len(l), func(i int) bool { return l[i] >= x })
	return i < len(l) && l[i] == x
}

func sortedInsert(l []uint32, x uint32) []uint32 {
	i := sort.Search(len(l), func(i int) bool { return l[i] >= x })
	l = append(l, 0)
	copy(l[i+1:], l[i:])
	l[i] = x
	return l
}

func sortedRemove(l []uint32, x uint32) []uint32 {
	i := sort.Search(len(l), func(i int) bool { return l[i] >= x })
	if i < len(l) && l[i] == x {
		copy(l[i:], l[i+1:])
		l = l[:len(l)-1]
	}
	return l
}

// unionFind is a plain disjoint-set forest (path halving, union by
// size) over node ids. All operations are writer-goroutine-only.
type unionFind struct {
	parent []uint32
	size   []uint32
}

func (u *unionFind) reset(n uint32) {
	if uint32(len(u.parent)) != n {
		u.parent = make([]uint32, n)
		u.size = make([]uint32, n)
	}
	for i := range u.parent {
		u.parent[i] = uint32(i)
		u.size[i] = 1
	}
}

func (u *unionFind) find(v uint32) uint32 {
	for u.parent[v] != v {
		u.parent[v] = u.parent[u.parent[v]]
		v = u.parent[v]
	}
	return v
}

func (u *unionFind) union(a, b uint32) {
	ra, rb := u.find(a), u.find(b)
	if ra == rb {
		return
	}
	if u.size[ra] < u.size[rb] {
		ra, rb = rb, ra
	}
	u.parent[rb] = ra
	u.size[ra] += u.size[rb]
}
