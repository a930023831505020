package serve

import (
	"reflect"
	"testing"

	"kcore"
	"kcore/internal/maintain"
	"kcore/internal/memgraph"
	"kcore/internal/testutil"
)

// refMirror exposes only maintain.NeighborGraph's method set, hiding the
// mirror's ScanMarked: InsertStar's window scans then fall back to
// ScanDynamic with a marks-backed predicate, the per-id reference scan.
type refMirror struct{ maintain.NeighborGraph }

// TestMarkedScanDifferentialParallelMirror runs the region-parallel
// apply twice over identical block-diagonal fixtures: once with the
// mirror's marked scans, once with ScanMarked hidden from every worker
// session. Run it with -race — the workers scan concurrently, each with
// its own marks. After every round the merged dirty sets and the shared
// core and cnt arrays must agree, and every worker's marks must be
// empty.
func TestMarkedScanDifferentialParallelMirror(t *testing.T) {
	const (
		blocks     = 8
		blockNodes = uint32(40)
		rounds     = 20
		perBlock   = 6
	)
	seed := testutil.Seed(t, 721)
	csr, err := memgraph.FromEdges(blocks*blockNodes, testutil.BlockDiagonalSocial(blocks, blockNodes, seed))
	if err != nil {
		t.Fatal(err)
	}
	build := func(hide bool) (*parallelApplier, *kcore.Maintainer) {
		g, err := kcore.Open(testutil.WriteCSR(t, csr), nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { g.Close() })
		m, err := kcore.NewMaintainer(g, nil)
		if err != nil {
			t.Fatal(err)
		}
		p, err := newParallelApplier(g, m, 4)
		if err != nil {
			t.Fatal(err)
		}
		if hide {
			for _, s := range p.sess {
				s.G = refMirror{p.mir}
			}
		}
		return p, m
	}
	fast, fm := build(false)
	ref, rm := build(true)

	// One stream per block in block-local ids, so every update stays
	// inside its component and a round spans many regions. Rounds
	// alternate deletes and inserts, so no edge is both in one batch.
	streams := make([]*testutil.MutationStream, blocks)
	for b := range streams {
		off := uint32(b) * blockNodes
		var local []kcore.Edge
		for _, e := range csr.EdgeList() {
			if e.U/blockNodes == uint32(b) {
				local = append(local, kcore.Edge{U: e.U - off, V: e.V - off})
			}
		}
		streams[b] = testutil.NewMutationStream(blockNodes, seed+int64(b)+1, local)
	}
	for round := 0; round < rounds; round++ {
		var deletes, inserts []kcore.Edge
		for b, s := range streams {
			off := uint32(b) * blockNodes
			for i := 0; i < perBlock; i++ {
				if round%2 == 0 {
					if e, ok := s.TakeLive(); ok {
						deletes = append(deletes, kcore.Edge{U: e.U + off, V: e.V + off})
					}
				} else {
					e := s.MakeAbsent()
					inserts = append(inserts, kcore.Edge{U: e.U + off, V: e.V + off})
				}
			}
		}
		fd, err := fast.apply(fast.partition(deletes, inserts))
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		rd, err := ref.apply(ref.partition(deletes, inserts))
		if err != nil {
			t.Fatalf("round %d: reference: %v", round, err)
		}
		if !reflect.DeepEqual(fd, rd) {
			t.Fatalf("round %d: dirty %v, reference %v", round, fd, rd)
		}
		if !reflect.DeepEqual(fm.Cores(), rm.Cores()) || !reflect.DeepEqual(fm.Cnt(), rm.Cnt()) {
			t.Fatalf("round %d: cores or counters differ", round)
		}
		for w := range fast.sess {
			if !fast.sess[w].St.Marks().Empty() || !ref.sess[w].St.Marks().Empty() {
				t.Fatalf("round %d: worker %d left marks set", round, w)
			}
		}
	}
	if err := fast.sess[0].VerifyState(); err != nil {
		t.Fatal(err)
	}
}
