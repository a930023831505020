package extsort

import (
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"testing/quick"

	"kcore/internal/stats"
)

func collect(t *testing.T, s *Sorter) []Arc {
	t.Helper()
	var out []Arc
	if err := s.Iterate(func(a Arc) error {
		out = append(out, a)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

func checkSorted(t *testing.T, arcs []Arc, wantLen int) {
	t.Helper()
	if len(arcs) != wantLen {
		t.Fatalf("got %d arcs, want %d", len(arcs), wantLen)
	}
	for i := 1; i < len(arcs); i++ {
		if arcs[i].Less(arcs[i-1]) {
			t.Fatalf("arcs out of order at %d: %v then %v", i, arcs[i-1], arcs[i])
		}
	}
}

func TestInMemoryPath(t *testing.T) {
	s := NewSorter(t.TempDir(), 1000, nil)
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		if err := s.Add(Arc{U: uint32(r.Intn(100)), V: uint32(r.Intn(100))}); err != nil {
			t.Fatal(err)
		}
	}
	checkSorted(t, collect(t, s), 500)
}

func TestSpillingPath(t *testing.T) {
	dir := t.TempDir()
	ctr := stats.NewIOCounter(256)
	s := NewSorter(dir, 64, ctr) // force many runs
	r := rand.New(rand.NewSource(2))
	var want []Arc
	for i := 0; i < 5000; i++ {
		a := Arc{U: uint32(r.Intn(300)), V: uint32(r.Intn(300))}
		want = append(want, a)
		if err := s.Add(a); err != nil {
			t.Fatal(err)
		}
	}
	if s.Total() != 5000 {
		t.Fatalf("total = %d, want 5000", s.Total())
	}
	got := collect(t, s)
	checkSorted(t, got, 5000)
	sort.Slice(want, func(i, j int) bool { return want[i].Less(want[j]) })
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("arc %d = %v, want %v", i, got[i], want[i])
		}
	}
	if ctr.Writes() == 0 || ctr.Reads() == 0 {
		t.Fatalf("spill traffic uncounted: reads=%d writes=%d", ctr.Reads(), ctr.Writes())
	}
	// Run files must be cleaned up.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if filepath.Ext(e.Name()) == ".arcs" {
			t.Fatalf("leftover run file %s", e.Name())
		}
	}
}

func TestSpillBoundaryExact(t *testing.T) {
	// Exactly budget arcs triggers a single spill and an empty tail.
	s := NewSorter(t.TempDir(), 8, nil)
	for i := 7; i >= 0; i-- {
		if err := s.Add(Arc{U: uint32(i), V: 0}); err != nil {
			t.Fatal(err)
		}
	}
	got := collect(t, s)
	checkSorted(t, got, 8)
}

func TestArcLessProperty(t *testing.T) {
	f := func(a, b Arc) bool {
		// Exactly one of a<b, b<a, a==b.
		l1, l2 := a.Less(b), b.Less(a)
		if a == b {
			return !l1 && !l2
		}
		return l1 != l2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSortProperty(t *testing.T) {
	dir := t.TempDir()
	f := func(raw []uint32, budget uint8) bool {
		s := NewSorter(dir, int(budget%32)+2, nil)
		for i := 0; i+1 < len(raw); i += 2 {
			if err := s.Add(Arc{U: raw[i] % 1000, V: raw[i+1] % 1000}); err != nil {
				return false
			}
		}
		prev := Arc{}
		first := true
		n := 0
		err := s.Iterate(func(a Arc) error {
			if !first && a.Less(prev) {
				t.Errorf("out of order: %v then %v", prev, a)
			}
			prev, first = a, false
			n++
			return nil
		})
		return err == nil && n == len(raw)/2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
