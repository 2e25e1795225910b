package main

import (
	"math"
	"sort"
)

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile is the nearest-rank p-th percentile (0 for no samples).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	k := int(math.Ceil(p/100*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	return s[k]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles matches Python's statistics.quantiles(xs, n=4) in its default
// exclusive method, so the steadiness report reads like the acceptance
// check.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		m := float64(n + 1)
		j := i * (n + 1) / 4
		delta := float64(i)*m/4 - float64(j)
		if j < 1 {
			return s[0]
		}
		if j >= n {
			return s[n-1]
		}
		return s[j-1] + delta*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
