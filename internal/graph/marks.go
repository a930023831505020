package graph

import "math/bits"

// Marks is a set of node ids kept as a bitset, one bit per id. The
// partial scans of the paper (SemiCore+/SemiCore*, SemiDelete*,
// SemiInsert/SemiInsert*) mark a node exactly when its "needs
// recomputation" test can become true, and a marked scan then visits
// only the marked ids of its window, skipping 64 unmarked ids per word
// test instead of evaluating a predicate per id. The zero value is an
// empty set over zero ids; NewMarks sizes one.
type Marks struct {
	words []uint64
}

// NewMarks returns an empty set over the ids [0, n).
func NewMarks(n uint32) Marks {
	return Marks{words: make([]uint64, (uint64(n)+63)/64)}
}

// Cap reports how many ids the set can hold (n rounded up to 64).
func (m *Marks) Cap() uint64 { return uint64(len(m.words)) * 64 }

// Bytes reports the bitset's size: n/8 bytes, rounded up to a word.
func (m *Marks) Bytes() int64 { return int64(len(m.words)) * 8 }

// Set adds v.
func (m *Marks) Set(v uint32) { m.words[v>>6] |= 1 << (v & 63) }

// Unset removes v.
func (m *Marks) Unset(v uint32) { m.words[v>>6] &^= 1 << (v & 63) }

// Has reports whether v is marked.
func (m *Marks) Has(v uint32) bool { return m.words[v>>6]&(1<<(v&63)) != 0 }

// Empty reports whether no id is marked.
func (m *Marks) Empty() bool {
	for _, w := range m.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Reset unmarks every id.
func (m *Marks) Reset() { clear(m.words) }

// Next returns the smallest marked id in [v, hi]; ok is false when there
// is none. hi must be below Cap.
func (m *Marks) Next(v, hi uint32) (next uint32, ok bool) {
	if v > hi {
		return 0, false
	}
	i, last := v>>6, hi>>6
	w := m.words[i] &^ (1<<(v&63) - 1)
	for w == 0 {
		if i == last {
			return 0, false
		}
		i++
		w = m.words[i]
	}
	next = i<<6 | uint32(bits.TrailingZeros64(w))
	return next, next <= hi
}

// Visit is the loop every ScanMarked implementation shares: it calls
// visit for each marked id of [vmin, vmaxFn()] ∩ [0, n) in increasing
// order, unmarking the id just before the call. vmaxFn is re-evaluated
// after every visit and visit may mark further ids, so a scan picks up
// marks set ahead of it inside the (possibly extended) window. ErrStop
// from visit ends the walk without error, leaving later marks set.
func (m *Marks) Visit(vmin uint32, vmaxFn func() uint32, n uint32, visit func(v uint32) error) error {
	if n == 0 {
		return nil
	}
	for v := vmin; ; v++ {
		hi := vmaxFn()
		if hi >= n {
			hi = n - 1
		}
		var ok bool
		if v, ok = m.Next(v, hi); !ok {
			return nil
		}
		m.Unset(v)
		if err := visit(v); err != nil {
			if IsStop(err) {
				return nil
			}
			return err
		}
	}
}

// MarkedScanner is the optional fast path of Source for partial scans:
// ScanMarked visits only the marked ids of the window [vmin, vmaxFn()]
// in increasing order, loading nbr(v) and calling fn for each, and
// unmarks each id as the scan reaches it (see Marks.Visit). It must
// visit, load and charge exactly what ScanDynamic does with the
// predicate "v is marked", so I/O counts do not depend on which path
// ran.
type MarkedScanner interface {
	ScanMarked(vmin uint32, vmaxFn func() uint32, marks *Marks, fn func(v uint32, nbrs []uint32) error) error
}

// ScanMarked runs a marked scan over g: through g's own ScanMarked when
// it implements MarkedScanner, otherwise through ScanDynamic with a
// predicate that tests and unmarks each id of the window, which visits
// the same nodes in the same order at O(window) instead of
// O(marked + window/64) CPU per scan.
func ScanMarked(g Source, vmin uint32, vmaxFn func() uint32, marks *Marks, fn func(v uint32, nbrs []uint32) error) error {
	if ms, ok := g.(MarkedScanner); ok {
		return ms.ScanMarked(vmin, vmaxFn, marks, fn)
	}
	return g.ScanDynamic(vmin, vmaxFn, func(v uint32) bool {
		if !marks.Has(v) {
			return false
		}
		marks.Unset(v)
		return true
	}, fn)
}
