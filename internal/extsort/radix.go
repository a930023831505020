package extsort

import "math/bits"

const (
	radixBits = 8
	radixSize = 1 << radixBits
	// insertionCutoff is the bucket size at or below which a bucket is
	// finished by insertion sort instead of another radix pass.
	insertionCutoff = 32
	// lsdMaxKeys is the largest bucket sorted by LSD passes through a
	// scratch buffer; larger buckets are split in place first. It caps
	// the scratch at lsdMaxKeys*8 bytes whatever the key distribution.
	lsdMaxKeys = 1 << 16
)

// sortKeys sorts keys in place with a radix sort over only the
// significant bits: the bits on which the keys differ. Arc keys are
// U<<32|V with ids far below 2^32, so the high bits of each half are
// constant across a run and cost no pass.
//
// Slices larger than lsdMaxKeys are split in place, American-flag style,
// on their top 8 significant bits; every bucket at most lsdMaxKeys long
// is then finished by LSD passes through a scratch buffer the size of
// that bucket, which stays cache-resident. Memory beyond keys is at most
// lsdMaxKeys*8 bytes plus a few 256-entry count tables.
func sortKeys(keys []uint64) {
	if len(keys) < 2 {
		return
	}
	or, and := uint64(0), ^uint64(0)
	for _, k := range keys {
		or |= k
		and &= k
	}
	scratch := make([]uint64, min(len(keys), lsdMaxKeys))
	radixSort(keys, or^and, scratch)
}

// radixSort sorts a, whose keys may differ only on the bits in varying.
func radixSort(a []uint64, varying uint64, scratch []uint64) {
	switch {
	case len(a) <= insertionCutoff:
		insertionSort(a)
		return
	case len(a) <= lsdMaxKeys:
		lsdSort(a, varying, scratch[:len(a)])
		return
	}
	top := bits.Len64(varying)
	if top == 0 {
		return // every key equal
	}
	shift := uint(max(top-radixBits, 0))
	var count [radixSize]int
	for _, k := range a {
		count[(k>>shift)%radixSize]++
	}
	var next, end [radixSize]int
	sum := 0
	for d, c := range count {
		next[d] = sum
		sum += c
		end[d] = sum
	}
	// Cycle each key into its bucket: every swap settles one key.
	for d := range count {
		for i := next[d]; i < end[d]; i = next[d] {
			k := a[i]
			for kd := int((k >> shift) % radixSize); kd != d; kd = int((k >> shift) % radixSize) {
				j := next[kd]
				next[kd]++
				k, a[j] = a[j], k
			}
			a[i] = k
			next[d]++
		}
	}
	varying &= 1<<shift - 1
	for d, c := range count {
		if c > 1 {
			radixSort(a[end[d]-c:end[d]], varying, scratch)
		}
	}
}

// lsdSort sorts a with stable counting passes from the lowest varying
// digit up, ping-ponging between a and scratch (len(scratch) == len(a)).
// A digit on which every key of a agrees costs its count pass only.
func lsdSort(a []uint64, varying uint64, scratch []uint64) {
	src, dst := a, scratch
	for varying != 0 {
		shift := uint(bits.TrailingZeros64(varying))
		varying &^= (radixSize - 1) << shift
		var count [radixSize]int
		for _, k := range src {
			count[(k>>shift)%radixSize]++
		}
		if count[(src[0]>>shift)%radixSize] == len(src) {
			continue
		}
		sum := 0
		for d, c := range count {
			count[d] = sum
			sum += c
		}
		for _, k := range src {
			d := (k >> shift) % radixSize
			dst[count[d]] = k
			count[d]++
		}
		src, dst = dst, src
	}
	if &src[0] != &a[0] {
		copy(a, src)
	}
}

func insertionSort(a []uint64) {
	for i := 1; i < len(a); i++ {
		k := a[i]
		j := i
		for ; j > 0 && a[j-1] > k; j-- {
			a[j] = a[j-1]
		}
		a[j] = k
	}
}
