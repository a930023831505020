package extsort

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"kcore/internal/stats"
)

// keyCases returns named key sets that stress the radix sort: the full
// 32-bit range in both halves, the all-ones arc, duplicates, all-equal
// keys, one bucket holding nearly every key, and sizes around the
// insertion-sort cutoff and the LSD bucket limit.
func keyCases(r *rand.Rand) map[string][]uint64 {
	random := func(n int, gen func() uint64) []uint64 {
		a := make([]uint64, n)
		for i := range a {
			a[i] = gen()
		}
		return a
	}
	full := func() uint64 { return r.Uint64() }
	small := func() uint64 { return key(Arc{U: uint32(r.Intn(300)), V: uint32(r.Intn(300))}) }
	cases := map[string][]uint64{
		"empty":     nil,
		"one":       {42},
		"all-equal": random(5000, func() uint64 { return 7<<32 | 9 }),
		"all-ones": random(3000, func() uint64 {
			if r.Intn(2) == 0 {
				return key(Arc{U: 0xFFFFFFFF, V: 0xFFFFFFFF})
			}
			return key(Arc{U: 0xFFFFFFFF, V: r.Uint32()})
		}),
		"extremes": random(20000, func() uint64 {
			vals := []uint32{0, 1, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFE, 0xFFFFFFFF}
			return key(Arc{U: vals[r.Intn(len(vals))], V: vals[r.Intn(len(vals))]})
		}),
		"duplicates": random(lsdMaxKeys*3, func() uint64 { return key(Arc{U: uint32(r.Intn(50)), V: uint32(r.Intn(50))}) }),
		// One key far above the rest puts every other key in bucket 0 of
		// the top digit.
		"skewed-bucket": append(random(lsdMaxKeys*2+5, small), 0xFFFFFFFF<<32),
		"full-range":    random(lsdMaxKeys*4+3, full),
		"sorted":        slices.Sorted(slices.Values(random(lsdMaxKeys+100, full))),
	}
	rev := random(lsdMaxKeys+100, small)
	slices.Sort(rev)
	slices.Reverse(rev)
	cases["reversed"] = rev
	for _, n := range []int{insertionCutoff - 1, insertionCutoff, insertionCutoff + 1,
		lsdMaxKeys - 1, lsdMaxKeys, lsdMaxKeys + 1} {
		cases[fmt.Sprintf("n=%d/full", n)] = random(n, full)
		cases[fmt.Sprintf("n=%d/small", n)] = random(n, small)
	}
	return cases
}

// TestSortKeysDifferential checks the radix sort against slices.Sort.
func TestSortKeysDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for name, keys := range keyCases(r) {
		got := slices.Clone(keys)
		sortKeys(got)
		want := slices.Clone(keys)
		slices.Sort(want)
		if !slices.Equal(got, want) {
			t.Errorf("%s: radix sort of %d keys differs from slices.Sort", name, len(keys))
		}
	}
}

// TestSorterDifferential runs the whole external sort, at budgets giving
// no run, one run and many runs, against slices.Sort.
func TestSorterDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	const n = 3000
	inputs := map[string][]uint64{}
	for name, keys := range keyCases(r) {
		if len(keys) > n {
			keys = keys[:n]
		}
		inputs[name] = keys
	}
	for name, keys := range inputs {
		want := slices.Clone(keys)
		slices.Sort(want)
		// n+1 keeps every key in memory; len(keys) spills exactly one run.
		for _, budget := range []int{n + 1, max(len(keys), 1), 97} {
			s := NewSorter(t.TempDir(), budget, stats.NewIOCounter(100))
			for _, k := range keys {
				if err := s.Add(arcOf(k)); err != nil {
					t.Fatal(err)
				}
			}
			var got []uint64
			if err := s.Iterate(func(a Arc) error {
				got = append(got, key(a))
				return nil
			}); err != nil {
				t.Fatalf("%s budget %d: %v", name, budget, err)
			}
			if !slices.Equal(got, want) {
				t.Errorf("%s budget %d: sorter output differs from slices.Sort", name, budget)
			}
		}
	}
}

// TestSpillIOLaw pins the spill and merge cost as an exact law: a run of
// r arcs costs ceil(8r/B) block writes when spilled and as many block
// reads when merged, and every spilled byte is read back exactly once.
func TestSpillIOLaw(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	const n = 10007
	for _, blockSize := range []int{100, 512, 4096} {
		for _, budget := range []int{64, 1000, n} {
			ctr := stats.NewIOCounter(blockSize)
			s := NewSorter(t.TempDir(), budget, ctr)
			for i := 0; i < n; i++ {
				if err := s.Add(Arc{U: r.Uint32(), V: r.Uint32()}); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.Iterate(func(Arc) error { return nil }); err != nil {
				t.Fatal(err)
			}
			B := int64(blockSize)
			var blocks int64
			for left := n; left > 0; left -= budget {
				blocks += (int64(min(left, budget))*arcBytes + B - 1) / B
			}
			snap := ctr.Snapshot()
			if snap.Writes != blocks || snap.Reads != blocks {
				t.Errorf("B=%d budget=%d: writes=%d reads=%d, want %d each", blockSize, budget, snap.Writes, snap.Reads, blocks)
			}
			if snap.WriteBytes != n*arcBytes || snap.ReadBytes != n*arcBytes {
				t.Errorf("B=%d budget=%d: wrote %d bytes, read %d, want %d each", blockSize, budget, snap.WriteBytes, snap.ReadBytes, n*arcBytes)
			}
		}
	}
}

// TestCloseRemovesRuns abandons a sorter before Iterate: Close must remove
// its runs and stay safe to call again.
func TestCloseRemovesRuns(t *testing.T) {
	dir := t.TempDir()
	s := NewSorter(dir, 16, nil)
	for i := 0; i < 100; i++ {
		if err := s.Add(Arc{U: uint32(100 - i), V: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if runs, _ := filepath.Glob(filepath.Join(dir, "*.arcs")); len(runs) != 6 {
		t.Fatalf("%d runs spilled, want 6", len(runs))
	}
	for i := 0; i < 2; i++ {
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 0 {
		t.Fatalf("%d files left after Close", len(entries))
	}
}
