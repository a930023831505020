// Package extsort provides an external merge sort for arc streams. It is
// the substrate that lets the repository build the on-disk adjacency
// format from an arbitrary, unsorted edge list under a bounded memory
// budget — the same regime the paper's semi-external model assumes for
// the graphs themselves (node state fits, edge state does not).
//
// The sorter buffers arcs in memory as packed uint64 keys up to a budget,
// radix-sorts each full buffer in place and spills it as a run file, and
// k-way merges the runs through a typed heap. Runs are written and read a
// block at a time, and all spill and merge traffic is charged to an I/O
// counter at block granularity, so graph construction cost is measurable
// alongside algorithm cost.
package extsort

import (
	"encoding/binary"
	"errors"
	"math/bits"
	"os"

	"kcore/internal/stats"
	"kcore/internal/storage"
)

// Arc is a directed (source, target) pair; an undirected edge contributes
// two arcs.
type Arc struct {
	U, V uint32
}

// Less orders arcs by source, then target.
func (a Arc) Less(b Arc) bool {
	if a.U != b.U {
		return a.U < b.U
	}
	return a.V < b.V
}

// key packs a into a uint64 whose natural order is Arc.Less.
func key(a Arc) uint64 { return uint64(a.U)<<32 | uint64(a.V) }

func arcOf(k uint64) Arc { return Arc{U: uint32(k >> 32), V: uint32(k)} }

const (
	arcBytes = 8
	// defaultBudget is the budget a non-positive budgetArcs selects.
	defaultBudget = 1 << 20
	// firstCap is the buffer's first allocation; a sorter that outgrows
	// it allocates the full budget in one step.
	firstCap = 1 << 16
	// chunkArcs is how many encoded arcs a spill hands the block writer
	// per Write.
	chunkArcs = 8192
)

// Sorter accumulates arcs and yields them in sorted order.
type Sorter struct {
	dir     string
	io      *stats.IOCounter
	budget  int // max arcs held in memory
	keys    []uint64
	runs    []string
	total   int64
	spilled bool
}

// NewSorter creates a sorter spilling runs into dir. budgetArcs bounds the
// arcs held in memory at once; non-positive selects 1<<20.
// The budget bounds resident memory: budgetArcs*8 bytes of keys, a sort
// scratch of at most 512 KiB (the radix sort is otherwise in place), and
// during the merge two B-sized buffers per run, B being the counter's
// block size. Several sorters may share dir: every run gets a unique
// name.
func NewSorter(dir string, budgetArcs int, ctr *stats.IOCounter) *Sorter {
	if budgetArcs <= 0 {
		budgetArcs = defaultBudget
	}
	if ctr == nil {
		ctr = stats.NewIOCounter(0)
	}
	return &Sorter{dir: dir, io: ctr, budget: budgetArcs}
}

// Add appends one arc, spilling a sorted run if the buffer is full.
func (s *Sorter) Add(a Arc) error {
	if len(s.keys) == cap(s.keys) {
		s.grow()
	}
	s.keys = append(s.keys, key(a))
	s.total++
	if len(s.keys) >= s.budget {
		return s.spill()
	}
	return nil
}

// grow allocates the key buffer: firstCap keys at first, then the whole
// budget at once, so a large input leaves no trail of doubled buffers.
func (s *Sorter) grow() {
	n := min(s.budget, firstCap)
	if cap(s.keys) > 0 {
		n = s.budget
	}
	keys := make([]uint64, len(s.keys), n)
	copy(keys, s.keys)
	s.keys = keys
}

// Total reports the number of arcs added.
func (s *Sorter) Total() int64 { return s.total }

// spill sorts the buffer and writes it as one run file.
func (s *Sorter) spill() error {
	if len(s.keys) == 0 {
		return nil
	}
	sortKeys(s.keys)
	// A unique name, because sorters may share dir.
	f, err := os.CreateTemp(s.dir, "run-*.arcs")
	if err != nil {
		return err
	}
	name := f.Name()
	f.Close() // empty; the block writer reopens it
	s.runs = append(s.runs, name)
	w, err := storage.CreateBlockWriter(name, s.io)
	if err != nil {
		return err
	}
	chunk := make([]byte, chunkArcs*arcBytes)
	for keys := s.keys; len(keys) > 0; {
		n := min(len(keys), chunkArcs)
		for i, k := range keys[:n] {
			// Rotating puts U in bytes 0-3 and V in bytes 4-7.
			binary.LittleEndian.PutUint64(chunk[i*arcBytes:], bits.RotateLeft64(k, 32))
		}
		if _, err := w.Write(chunk[:n*arcBytes]); err != nil {
			w.Close()
			return err
		}
		keys = keys[n:]
	}
	if err := w.Close(); err != nil {
		return err
	}
	s.keys = s.keys[:0]
	s.spilled = true
	return nil
}

// Iterate sorts any remaining buffered arcs and streams every arc in
// global sorted order. It may be called once; it removes the run files
// when done.
func (s *Sorter) Iterate(fn func(a Arc) error) error {
	if !s.spilled {
		// Pure in-memory path.
		sortKeys(s.keys)
		for _, k := range s.keys {
			if err := fn(arcOf(k)); err != nil {
				return err
			}
		}
		return nil
	}
	defer s.Close()
	if err := s.spill(); err != nil {
		return err
	}
	s.keys = nil // the merge needs only the block buffers
	h := make(mergeHeap, 0, len(s.runs))
	defer func() {
		for _, it := range h {
			it.src.close()
		}
	}()
	for _, name := range s.runs {
		r, err := newRunReader(name, s.io)
		if err != nil {
			return err
		}
		h = append(h, mergeItem{src: r})
		// A spilled run is never empty, so every run has a head.
		if h[len(h)-1].key, _, err = r.next(); err != nil {
			return err
		}
	}
	h.init()
	for len(h) > 0 {
		top := &h[0]
		if err := fn(arcOf(top.key)); err != nil {
			return err
		}
		k, ok, err := top.src.next()
		if err != nil {
			return err
		}
		if ok {
			top.key = k
		} else {
			top.src.close()
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		h.down(0)
	}
	return nil
}

// Close removes every spilled run. Iterate calls it; a caller that
// abandons the sorter before Iterate (on a source error, say) must call
// it too. It is idempotent and returns the first removal error.
func (s *Sorter) Close() error {
	var first error
	for _, r := range s.runs {
		if err := os.Remove(r); err != nil && !os.IsNotExist(err) && first == nil {
			first = err
		}
	}
	s.runs = nil
	return first
}

// mergeHeap is a binary min-heap of run heads ordered by key.
type mergeHeap []mergeItem

type mergeItem struct {
	key uint64
	src *runReader
}

func (h mergeHeap) init() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

// down restores the heap order below i after h[i]'s key grew.
func (h mergeHeap) down(i int) {
	if i >= len(h) {
		return
	}
	it := h[i]
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if r := c + 1; r < len(h) && h[r].key < h[c].key {
			c = r
		}
		if it.key <= h[c].key {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = it
}

// runReader streams one run's keys, reading and decoding one B-sized
// block per BlockFile.ReadAt, so a run of F bytes costs ceil(F/B) block
// reads and F counted bytes — the same charge as reading it arc by arc.
type runReader struct {
	f     *storage.BlockFile
	off   int64    // file offset of the next unread byte
	b     int64    // block size
	buf   []byte   // one block plus a partial arc carried across blocks
	carry int      // bytes of a partial arc at the front of buf
	keys  []uint64 // decoded keys of the current block
	pos   int      // next key in keys
}

func newRunReader(path string, ctr *stats.IOCounter) (*runReader, error) {
	f, err := storage.OpenBlockFile(path, ctr)
	if err != nil {
		return nil, err
	}
	b := int64(ctr.BlockSize())
	return &runReader{
		f:    f,
		b:    b,
		buf:  make([]byte, b+arcBytes),
		keys: make([]uint64, 0, b/arcBytes+1),
	}, nil
}

// next returns the run's next key; ok is false at the end of the run.
func (r *runReader) next() (k uint64, ok bool, err error) {
	for r.pos == len(r.keys) {
		if r.off >= r.f.Size() {
			if r.carry != 0 {
				return 0, false, errors.New("extsort: run ends inside an arc")
			}
			return 0, false, nil
		}
		if err := r.fill(); err != nil {
			return 0, false, err
		}
	}
	k = r.keys[r.pos]
	r.pos++
	return k, true, nil
}

// fill reads the rest of the block holding r.off and decodes every whole
// arc it completes.
func (r *runReader) fill() error {
	end := min((r.off/r.b+1)*r.b, r.f.Size())
	p := r.buf[r.carry : r.carry+int(end-r.off)]
	if err := r.f.ReadAt(p, r.off); err != nil {
		return err
	}
	r.off = end
	data := r.buf[:r.carry+len(p)]
	r.keys, r.pos = r.keys[:0], 0
	for len(data) >= arcBytes {
		r.keys = append(r.keys, bits.RotateLeft64(binary.LittleEndian.Uint64(data), 32))
		data = data[arcBytes:]
	}
	r.carry = copy(r.buf, data)
	return nil
}

func (r *runReader) close() error { return r.f.Close() }
