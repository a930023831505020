package graph_test

import (
	"fmt"
	"reflect"
	"testing"

	"kcore/internal/diskengine"
	"kcore/internal/dyngraph"
	"kcore/internal/gen"
	"kcore/internal/graph"
	"kcore/internal/maintain"
	"kcore/internal/memgraph"
	"kcore/internal/semicore"
	"kcore/internal/stats"
	"kcore/internal/storage"
	"kcore/internal/testutil"
)

// The marked-scan differential. Every window scan of the paper's
// algorithms goes through graph.ScanMarked; a source implementing
// graph.MarkedScanner takes the word-skipping path. Wrapping a source in
// a type that hides that method makes ScanMarked fall back to
// ScanDynamic with a marks-backed predicate — the per-id reference scan.
// Both paths must produce the same cores, counters, run statistics and
// block reads, and leave the marks empty.

// refSource and refGraph expose only the interface's method set, so
// ScanMarked is hidden.
type refSource struct{ graph.Source }
type refGraph struct{ maintain.Graph }

// markedInput is one seeded generator graph, with its node count fixed
// up front so every backend sees the same id space.
type markedInput struct {
	name string
	csr  *memgraph.CSR
}

func markedInputs(t *testing.T) []markedInput {
	t.Helper()
	seed := testutil.Seed(t, 41)
	mk := func(name string, n uint32, edges []memgraph.Edge) markedInput {
		csr, err := memgraph.FromEdges(n, edges)
		if err != nil {
			t.Fatal(err)
		}
		return markedInput{name: name, csr: csr}
	}
	return []markedInput{
		mk("social", 400, gen.Social(400, 3, 8, 8, seed)),
		mk("rmat", 1<<9, gen.RMAT(9, 6, 0.57, 0.19, 0.19, seed+1)),
		mk("web", 1<<8+60, gen.WebGraph(8, 4, 6, 10, seed+2)),
	}
}

// openBackend materialises csr behind one backend on its own copy of
// the files, with its own I/O counter. Small buffers and caches make
// compactions, overlay merges and cache evictions part of the run.
func openBackend(t *testing.T, kind string, csr *memgraph.CSR) (graph.Source, *stats.IOCounter) {
	t.Helper()
	if kind == "csr" {
		return csr, nil
	}
	base := testutil.WriteCSR(t, csr)
	ctr := stats.NewIOCounter(512)
	switch kind {
	case "storage":
		g, err := storage.Open(base, ctr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { g.Close() })
		return g, ctr
	case "dyngraph":
		g, err := dyngraph.Open(base, ctr, dyngraph.Options{BufferArcs: 48})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { g.Close() })
		return g, ctr
	case "diskengine":
		st, err := diskengine.BuildStore(base, diskengine.StoreOptions{
			Dir:           t.TempDir(),
			CacheBlocks:   4,
			PartitionArcs: 256,
			OverlayArcs:   48,
			IO:            ctr,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		return st, ctr
	}
	t.Fatalf("unknown backend %q", kind)
	return nil, nil
}

func ioOf(ctr *stats.IOCounter) stats.IOSnapshot {
	if ctr == nil {
		return stats.IOSnapshot{}
	}
	return ctr.Snapshot()
}

// sameRun compares everything a run reports except timing.
func sameRun(t *testing.T, label string, got, want stats.RunStats) {
	t.Helper()
	if got.Iterations != want.Iterations || got.NodeComputations != want.NodeComputations {
		t.Fatalf("%s: marked run %d iterations / %d computations, reference %d / %d",
			label, got.Iterations, got.NodeComputations, want.Iterations, want.NodeComputations)
	}
	if !reflect.DeepEqual(got.UpdatedPerIter, want.UpdatedPerIter) {
		t.Fatalf("%s: UpdatedPerIter %v, reference %v", label, got.UpdatedPerIter, want.UpdatedPerIter)
	}
	if !reflect.DeepEqual(got.Dirty, want.Dirty) {
		t.Fatalf("%s: Dirty %v, reference %v", label, got.Dirty, want.Dirty)
	}
}

func TestMarkedScanDifferentialDecompose(t *testing.T) {
	algos := []struct {
		name string
		run  func(graph.Source) (*semicore.Result, error)
	}{
		{"SemiCore+", func(g graph.Source) (*semicore.Result, error) { return semicore.SemiCorePlus(g, nil) }},
		{"SemiCore*", func(g graph.Source) (*semicore.Result, error) { return semicore.SemiCoreStar(g, nil) }},
	}
	for _, in := range markedInputs(t) {
		for _, kind := range []string{"csr", "storage", "dyngraph", "diskengine"} {
			for _, a := range algos {
				label := fmt.Sprintf("%s/%s/%s", in.name, kind, a.name)
				fast, fctr := openBackend(t, kind, in.csr)
				ref, rctr := openBackend(t, kind, in.csr)
				if _, ok := fast.(graph.MarkedScanner); !ok {
					t.Fatalf("%s: %T does not implement graph.MarkedScanner", label, fast)
				}
				fio, rio := ioOf(fctr), ioOf(rctr)
				got, err := a.run(fast)
				if err != nil {
					t.Fatal(err)
				}
				want, err := a.run(refSource{ref})
				if err != nil {
					t.Fatal(err)
				}
				sameRun(t, label, got.Stats, want.Stats)
				if !reflect.DeepEqual(got.Core, want.Core) || !reflect.DeepEqual(got.Cnt, want.Cnt) {
					t.Fatalf("%s: cores or counters differ", label)
				}
				if g, w := ioOf(fctr).Sub(fio), ioOf(rctr).Sub(rio); g != w {
					t.Fatalf("%s: marked run I/O %+v, reference %+v", label, g, w)
				}
			}
		}
	}
}

func TestMarkedScanDifferentialMaintain(t *testing.T) {
	seed := testutil.Seed(t, 43)
	for _, in := range markedInputs(t) {
		for _, kind := range []string{"dyngraph", "diskengine"} {
			label := in.name + "/" + kind
			fg, fctr := openBackend(t, kind, in.csr)
			rg, rctr := openBackend(t, kind, in.csr)
			fast, err := maintain.NewSession(fg.(maintain.Graph), nil)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := maintain.NewSession(refGraph{rg.(maintain.Graph)}, nil)
			if err != nil {
				t.Fatal(err)
			}
			stream := testutil.NewMutationStream(in.csr.NumNodes(), seed, in.csr.EdgeList())
			for i := 0; i < 160; i++ {
				var op string
				var apply func(s *maintain.Session) (stats.RunStats, error)
				switch mut := stream.NextValid(); {
				case mut.Op == testutil.OpInsert && i%2 == 0:
					op = "InsertStar"
					apply = func(s *maintain.Session) (stats.RunStats, error) { return s.InsertStar(mut.U, mut.V) }
				case mut.Op == testutil.OpInsert:
					op = "InsertTwoPhase"
					apply = func(s *maintain.Session) (stats.RunStats, error) { return s.InsertTwoPhase(mut.U, mut.V) }
				case i%2 == 0:
					op = "DeleteStar"
					apply = func(s *maintain.Session) (stats.RunStats, error) { return s.DeleteStar(mut.U, mut.V) }
				default:
					op = "BatchDelete"
					batch := []memgraph.Edge{{U: mut.U, V: mut.V}}
					for len(batch) < 6 {
						e, ok := stream.TakeLive()
						if !ok {
							break
						}
						batch = append(batch, e)
					}
					apply = func(s *maintain.Session) (stats.RunStats, error) { return s.BatchDelete(batch) }
				}
				opLabel := fmt.Sprintf("%s op %d %s", label, i, op)
				fio, rio := ioOf(fctr), ioOf(rctr)
				got, err := apply(fast)
				if err != nil {
					t.Fatalf("%s: %v", opLabel, err)
				}
				want, err := apply(ref)
				if err != nil {
					t.Fatalf("%s: reference: %v", opLabel, err)
				}
				sameRun(t, opLabel, got, want)
				if g, w := ioOf(fctr).Sub(fio), ioOf(rctr).Sub(rio); g != w {
					t.Fatalf("%s: marked run I/O %+v, reference %+v", opLabel, g, w)
				}
				if !reflect.DeepEqual(fast.Core(), ref.Core()) || !reflect.DeepEqual(fast.Cnt(), ref.Cnt()) {
					t.Fatalf("%s: cores or counters differ", opLabel)
				}
				if !fast.St.Marks().Empty() || !ref.St.Marks().Empty() {
					t.Fatalf("%s: marks left set after the call", opLabel)
				}
			}
			if err := fast.VerifyState(); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
		}
	}
}
