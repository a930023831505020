package main

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"time"

	"kcore"
	"kcore/internal/gen"
	"kcore/internal/imcore"
	"kcore/internal/memgraph"
)

// fixture is one generated input graph: the canonical edge set (no
// self-loops, no duplicates) and its on-disk build, which is never
// served directly — every server gets a fresh copy (copyTo), because
// dyngraph compaction rewrites the files it serves in place.
type fixture struct {
	csr  *memgraph.CSR
	base string // pristine build, path prefix of .meta/.nt/.et
}

var graphSuffixes = []string{".meta", ".nt", ".et"}

// buildFixture generates edges, builds them to base and returns the
// fixture with the seconds each of the reps builds took (reps >= 1; the
// build is deterministic, so every rep writes the same files).
func buildFixture(edges []kcore.Edge, base string, reps int) (*fixture, []float64, error) {
	var times []float64
	for i := 0; i < reps; i++ {
		for _, s := range graphSuffixes {
			os.Remove(base + s) //nolint:errcheck // absent on the first rep
		}
		t := time.Now()
		if err := kcore.Build(base, kcore.SliceEdges(edges), nil); err != nil {
			return nil, nil, fmt.Errorf("build fixture: %w", err)
		}
		times = append(times, time.Since(t).Seconds())
	}
	csr := gen.Build(edges)
	return &fixture{csr: csr, base: base}, times, nil
}

// copyTo writes a fresh copy of the fixture's files to dst.
func (f *fixture) copyTo(dst string) error {
	for _, s := range graphSuffixes {
		if err := copyFile(f.base+s, dst+s); err != nil {
			return fmt.Errorf("copy fixture: %w", err)
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// pool is a seeded sample of existing edges that writers delete and
// re-insert in alternating passes: a delete pass removes pool[0..], the
// following insert pass restores them in the same order. Every update
// is therefore valid when it is applied — none is rejected — and no two
// updates on one edge meet inside one coalesced batch, so none is
// annihilated.
type pool struct {
	edges    []kcore.Edge
	pos      int  // next edge of the current pass
	deleting bool // the current pass deletes
}

func newPool(csr *memgraph.CSR, size int, seed int64) *pool {
	all := csr.EdgeList()
	r := rand.New(rand.NewSource(seed ^ 0x706f6f6c))
	if size > len(all) {
		size = len(all)
	}
	for i := 0; i < size; i++ {
		j := i + r.Intn(len(all)-i)
		all[i], all[j] = all[j], all[i]
	}
	return &pool{edges: all[:size:size], deleting: true}
}

// next returns the following n updates of the pass schedule.
func (p *pool) next(n int) []update {
	ups := make([]update, 0, n)
	for len(ups) < n {
		if p.pos == len(p.edges) {
			p.pos = 0
			p.deleting = !p.deleting
		}
		e := p.edges[p.pos]
		ups = append(ups, update{del: p.deleting, u: e.U, v: e.V})
		p.pos++
	}
	return ups
}

// deleted lists the pool edges absent from the graph once every update
// handed out so far has been applied.
func (p *pool) deleted() []kcore.Edge {
	if p.deleting {
		return p.edges[:p.pos]
	}
	return p.edges[p.pos:]
}

// update is one edge update as the client sends it.
type update struct {
	del  bool
	u, v uint32
}

// oracle is the in-memory answer the served state must equal: IMCore of
// the expected edge set.
type oracle struct {
	core  []uint32
	kmax  uint32
	sizes []int64
	edges int64
}

// newOracle decomposes the fixture minus the given deleted edges.
func newOracle(csr *memgraph.CSR, deleted []kcore.Edge) (*oracle, error) {
	g := csr
	if len(deleted) > 0 {
		gone := make(map[uint64]struct{}, len(deleted))
		for _, e := range deleted {
			gone[edgeKey(e.U, e.V)] = struct{}{}
		}
		kept := make([]kcore.Edge, 0, csr.NumEdges())
		csr.Edges(func(e memgraph.Edge) error { //nolint:errcheck // the callback never fails
			if _, ok := gone[edgeKey(e.U, e.V)]; !ok {
				kept = append(kept, e)
			}
			return nil
		})
		var err error
		if g, err = memgraph.FromEdges(csr.NumNodes(), kept); err != nil {
			return nil, err
		}
	}
	core := imcore.Decompose(g, nil).Core
	return &oracle{
		core:  core,
		kmax:  kcore.Degeneracy(core),
		sizes: kcore.CoreSizes(core),
		edges: g.NumEdges(),
	}, nil
}

func edgeKey(u, v uint32) uint64 {
	if u > v {
		u, v = v, u
	}
	return uint64(u)<<32 | uint64(v)
}

// checkCores compares a full core array against the oracle.
func (o *oracle) checkCores(got []uint32) error {
	if len(got) != len(o.core) {
		return fmt.Errorf("core array covers %d nodes, oracle %d", len(got), len(o.core))
	}
	for v, c := range got {
		if c != o.core[v] {
			return fmt.Errorf("core(%d) = %d, oracle %d", v, c, o.core[v])
		}
	}
	return nil
}

// checkProfile compares /degeneracy-style answers against the oracle.
func (o *oracle) checkProfile(kmax uint32, edges int64, sizes []int64) error {
	if kmax != o.kmax || edges != o.edges {
		return fmt.Errorf("degeneracy %d edges %d, oracle %d and %d", kmax, edges, o.kmax, o.edges)
	}
	if len(sizes) != len(o.sizes) {
		return fmt.Errorf("core_sizes has %d levels, oracle %d", len(sizes), len(o.sizes))
	}
	for k := range sizes {
		if sizes[k] != o.sizes[k] {
			return fmt.Errorf("core_sizes[%d] = %d, oracle %d", k, sizes[k], o.sizes[k])
		}
	}
	return nil
}
