package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or 0 for an empty slice.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (the "R-7" rule), or 0 for an empty slice. xs is not
// modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

// tailBeyond is the least number of samples that must lie strictly
// beyond a latency percentile for it to be reported.
const tailBeyond = 10

// tailQuantile returns the q-quantile of xs and whether at least
// tailBeyond samples lie strictly beyond it. A tail percentile with
// fewer samples beyond it is a guess at a handful of jobs and is not
// reported.
func tailQuantile(xs []float64, q float64) (value float64, ok bool) {
	v := quantile(xs, q)
	beyond := 0
	for _, x := range xs {
		if x > v {
			beyond++
		}
	}
	return v, beyond >= tailBeyond
}

// validMetricName reports whether name fits the benchmark's metric-name
// charset: it starts with a letter or digit and has at most 64 letters,
// digits, '_', '.' and '-'.
func validMetricName(name string) bool {
	if len(name) == 0 || len(name) > 64 {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		alnum := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
		if i == 0 && !alnum {
			return false
		}
		if !alnum && c != '_' && c != '.' && c != '-' {
			return false
		}
	}
	return true
}
