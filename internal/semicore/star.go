package semicore

import (
	"fmt"
	"time"

	"kcore/internal/graph"
	"kcore/internal/stats"
)

// State is the persistent node state of SemiCore* (Algorithm 5): the
// intermediate core numbers and the cnt support counters of Eq. 2. The
// maintenance algorithms (6-8) mutate a State in place and re-run its
// Converge loop, so a State outlives a single decomposition.
type State struct {
	Core []uint32
	Cnt  []int32
	buf  localCoreBuf
	// marks holds the candidates of the running window scan; it is
	// empty between calls (see Marks).
	marks graph.Marks
}

// NewState allocates zeroed state for n nodes, registering the 8n model
// bytes and the n/8 bytes of scan marks with mem (which may be nil).
func NewState(n uint32, mem *stats.MemModel) *State {
	st := &State{
		Core: make([]uint32, n),
		Cnt:  make([]int32, n),
	}
	if mem != nil {
		mem.Alloc("semicore*/core", int64(n)*4)
		mem.Alloc("semicore*/cnt", int64(n)*4)
		mem.Alloc("semicore*/marks", st.Marks().Bytes())
	}
	return st
}

// Marks returns the state's candidate set for window scans, sized to
// the node count on first use. Every operation that marks nodes leaves
// the set empty again when it returns, so SemiCore*'s converge loop and
// the maintenance algorithms share it.
func (s *State) Marks() *graph.Marks {
	if s.marks.Cap() < uint64(len(s.Core)) {
		s.marks = graph.NewMarks(uint32(len(s.Core)))
	}
	return &s.marks
}

// LocalCore applies the locality equation once for a node with estimate
// cold and the given neighbour list, against the state's core array.
func (s *State) LocalCore(cold uint32, nbrs []uint32) uint32 {
	return s.buf.compute(cold, nbrs, s.Core)
}

// ComputeCnt evaluates Eq. 2 for a node whose core number is cv.
func (s *State) ComputeCnt(nbrs []uint32, cv uint32) int32 {
	return computeCnt(nbrs, cv, s.Core)
}

// UpdateNbrCnt is Algorithm 5 lines 21-24: after v's estimate dropped from
// cold to cnew, each neighbour u with cnew < core(u) <= cold loses v from
// its support set, so cnt(u) decreases by one.
func (s *State) UpdateNbrCnt(nbrs []uint32, cold, cnew uint32) {
	for _, u := range nbrs {
		cu := s.Core[u]
		if cu > cnew && cu <= cold {
			s.Cnt[u]--
		}
	}
}

// Converge runs Algorithm 5 lines 4-14: starting from the window
// [vmin, vmax], repeatedly scan nodes whose cnt(v) < core(v) (the exact
// recomputation condition of Lemma 4.2), recompute their core and cnt,
// propagate cnt decrements to neighbours, and extend the window per
// UpdateRange until a full pass triggers no next-iteration work. It is
// shared verbatim by SemiCoreStar, SemiDelete* and SemiInsert's phase 2.
//
// The scans are marked scans (graph.ScanMarked): one tight pass seeds
// the marks with the window's nodes that already fail the test, and a
// node is marked again exactly when a neighbour's recomputation drops
// its cnt below its core. The test only turns true through such a drop
// and only turns false through a recomputation, so the marked scan
// visits the same nodes in the same order as testing every id.
//
// rs accumulates iterations, node computations and per-iteration update
// counts; tr may be nil.
func (s *State) Converge(g graph.Source, vmin, vmax uint32, rs *stats.RunStats, tr Trace) error {
	n := g.NumNodes()
	if n == 0 {
		return nil
	}
	if vmax >= n {
		return fmt.Errorf("semicore: converge window [%d,%d] exceeds n=%d", vmin, vmax, n)
	}
	marks := s.Marks()
	for v := vmin; v <= vmax; v++ {
		if s.Cnt[v] < int32(s.Core[v]) {
			marks.Set(v)
		}
	}
	var computed []uint32
	for update := true; update; {
		update = false
		nextMin, nextMax := int64(n), int64(-1)
		curMax := vmax
		var iterUpdated int64
		computed = computed[:0]
		err := graph.ScanMarked(g, vmin,
			func() uint32 { return curMax },
			marks,
			func(v uint32, nbrs []uint32) error {
				cold := s.Core[v]
				nc := s.buf.compute(cold, nbrs, s.Core)
				rs.NodeComputations++
				if tr != nil {
					computed = append(computed, v)
				}
				s.Core[v] = nc
				if nc != cold {
					iterUpdated++
					rs.Dirty = append(rs.Dirty, v)
				}
				s.Cnt[v] = computeCnt(nbrs, nc, s.Core)
				s.UpdateNbrCnt(nbrs, cold, nc)
				for _, u := range nbrs {
					if s.Cnt[u] < int32(s.Core[u]) {
						marks.Set(u)
						// UpdateRange (shared with Algorithm 4).
						if u > curMax {
							curMax = u
						}
						if u < v {
							update = true
							if int64(u) < nextMin {
								nextMin = int64(u)
							}
							if int64(u) > nextMax {
								nextMax = int64(u)
							}
						}
					}
				}
				return nil
			})
		if err != nil {
			marks.Reset()
			return err
		}
		rs.Iterations++
		rs.UpdatedPerIter = append(rs.UpdatedPerIter, iterUpdated)
		if tr != nil {
			tr(rs.Iterations, computed, s.Core)
		}
		if update {
			vmin, vmax = uint32(nextMin), uint32(nextMax)
		}
	}
	return nil
}

// SemiCoreStar runs Algorithm 5: initialise core(v) <- deg(v) and
// cnt(v) <- 0 (below any positive degree, so every non-isolated node is
// recomputed exactly once in the first pass, establishing real counters),
// then converge over the full node range.
func SemiCoreStar(g graph.Source, opts *Options) (*Result, error) {
	start := time.Now()
	n := g.NumNodes()
	mem := opts.mem()
	st := NewState(n, mem)
	defer mem.Free("semicore*/core")
	defer mem.Free("semicore*/cnt")
	defer mem.Free("semicore*/marks")
	err := g.ScanDegrees(func(v uint32, deg uint32) error {
		st.Core[v] = deg
		return nil
	})
	if err != nil {
		return nil, err
	}
	res := &Result{Core: st.Core, Cnt: st.Cnt}
	res.Stats.Algorithm = "SemiCore*"
	if n > 0 {
		if err := st.Converge(g, 0, n-1, &res.Stats, opts.trace()); err != nil {
			return nil, err
		}
	}
	// A full decomposition dirties everything by definition; drop the
	// per-node list rather than hand callers an O(n) slice.
	res.Stats.Dirty = nil
	res.Stats.MemPeakBytes = mem.Peak()
	res.Stats.Duration = time.Since(start)
	return res, nil
}

// StateFrom wraps existing core/cnt arrays (e.g. a finished SemiCoreStar
// result) as a State for maintenance.
func StateFrom(core []uint32, cnt []int32) (*State, error) {
	if len(core) != len(cnt) {
		return nil, fmt.Errorf("semicore: core/cnt length mismatch %d vs %d", len(core), len(cnt))
	}
	return &State{Core: core, Cnt: cnt}, nil
}
