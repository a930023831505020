package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the q-quantile (0..1) of xs by nearest rank; xs is
// sorted in place. An empty sample gives NaN.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

func median(xs []float64) float64 {
	ys := append([]float64(nil), xs...)
	sort.Float64s(ys)
	n := len(ys)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return ys[n/2]
	}
	return (ys[n/2-1] + ys[n/2]) / 2
}

// quartiles matches Python's statistics.quantiles(xs, n=4) (the
// exclusive method), which is how run-to-run spread is judged.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	ys := append([]float64(nil), xs...)
	sort.Float64s(ys)
	n := float64(len(ys))
	at := func(p float64) float64 {
		if len(ys) == 1 {
			return ys[0]
		}
		pos := p * (n + 1)
		j := min(max(int(math.Floor(pos)), 1), len(ys)-1)
		return ys[j-1] + (ys[j]-ys[j-1])*(pos-float64(j))
	}
	return at(0.25), at(0.5), at(0.75)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
