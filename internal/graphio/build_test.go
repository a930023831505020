package graphio

import (
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"kcore/internal/gen"
	"kcore/internal/memgraph"
	"kcore/internal/stats"
	"kcore/internal/storage"
)

// TestConcurrentBuildsShareDir runs spilling builds concurrently in one
// directory, as the sharded engine does: every build must get its own
// run files and write its own graph.
func TestConcurrentBuildsShareDir(t *testing.T) {
	dir := t.TempDir()
	const builders = 4
	var wg sync.WaitGroup
	errs := make([]error, builders)
	wants := make([]*memgraph.CSR, builders)
	for i := range builders {
		edges := gen.ErdosRenyi(500, 4000, int64(40+i))
		wants[i] = gen.Build(edges)
		wg.Add(1)
		go func() {
			defer wg.Done()
			base := filepath.Join(dir, fmt.Sprintf("g%d", i))
			errs[i] = Build(base, SliceSource(edges), BuildOptions{N: wants[i].NumNodes(), SortBudgetArcs: 2000})
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("build %d: %v", i, err)
		}
		got, err := ReadToCSR(filepath.Join(dir, fmt.Sprintf("g%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		csrEqual(t, got, wants[i])
	}
	assertNoRuns(t, dir)
}

// TestBuildRemovesRunsOnError fails builds after the sorter has spilled:
// no run file may outlive the failed build.
func TestBuildRemovesRunsOnError(t *testing.T) {
	dir := t.TempDir()
	var text strings.Builder
	for i := 0; i < 500; i++ {
		fmt.Fprintf(&text, "%d %d\n", i, (i*7+1)%500)
	}
	text.WriteString("12 x\n")
	path := filepath.Join(dir, "edges.txt")
	if err := writeFile(path, text.String()); err != nil {
		t.Fatal(err)
	}
	err := Build(filepath.Join(dir, "g"), TextSource{Path: path}, BuildOptions{SortBudgetArcs: 64})
	if err == nil {
		t.Fatal("bad line accepted")
	}
	assertNoRuns(t, dir)

	edges := gen.ErdosRenyi(200, 1000, 41)
	err = Build(filepath.Join(dir, "h"), SliceSource(edges), BuildOptions{N: 100, SortBudgetArcs: 64})
	if err == nil {
		t.Fatal("endpoint beyond forced N accepted")
	}
	assertNoRuns(t, dir)
}

func assertNoRuns(t *testing.T, dir string) {
	t.Helper()
	runs, err := filepath.Glob(filepath.Join(dir, "*.arcs"))
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) > 0 {
		t.Fatalf("%d run files left behind: %v", len(runs), runs)
	}
}

// TestBuildIOLaw pins the construction cost as an exact law: every
// spilled run of r arcs costs ceil(8r/B) block writes and as many block
// reads when merged, on top of one sequential write of each table.
func TestBuildIOLaw(t *testing.T) {
	edges := gen.WebGraph(7, 5, 6, 20, 705)
	want := gen.Build(edges)
	arcs := 0
	for _, e := range edges {
		if e.U != e.V {
			arcs += 2
		}
	}
	for _, blockSize := range []int{100, 512, 4096} {
		B := int64(blockSize)
		ceil := func(bytes int64) int64 { return (bytes + B - 1) / B }
		tables := ceil(int64(want.NumNodes())*storage.NodeRecordSize) + ceil(want.NumArcs()*storage.ArcSize)
		for _, budget := range []int{arcs + 1, arcs, 333} {
			ctr := stats.NewIOCounter(blockSize)
			base := filepath.Join(t.TempDir(), "g")
			if err := Build(base, SliceSource(edges), BuildOptions{SortBudgetArcs: budget, IO: ctr}); err != nil {
				t.Fatal(err)
			}
			var runs int64
			if budget <= arcs {
				for left := arcs; left > 0; left -= budget {
					runs += ceil(int64(min(left, budget)) * 8)
				}
			}
			if got := ctr.Reads(); got != runs {
				t.Errorf("B=%d budget=%d: reads = %d, want %d", blockSize, budget, got, runs)
			}
			if got := ctr.Writes(); got != runs+tables {
				t.Errorf("B=%d budget=%d: writes = %d, want %d runs + %d tables", blockSize, budget, got, runs, tables)
			}
		}
	}
}

// BenchmarkBuild times the construction pipeline — symmetrise, external
// sort with spills, dedup and table writes — on a web-class graph.
func BenchmarkBuild(b *testing.B) {
	edges := gen.WebGraph(14, 16, 20, 300, 3)
	base := filepath.Join(b.TempDir(), "g")
	for b.Loop() {
		if err := Build(base, SliceSource(edges), BuildOptions{SortBudgetArcs: 1 << 16}); err != nil {
			b.Fatal(err)
		}
	}
}
