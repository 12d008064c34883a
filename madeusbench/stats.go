package main

import (
	"sort"
	"time"
)

// sample is a set of latencies with the order statistics the report needs.
type sample []time.Duration

// quantile returns the q-quantile (nearest rank) of s, sorting s in place.
func (s sample) quantile(q float64) time.Duration {
	if len(s) == 0 {
		return 0
	}
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(q * float64(len(s)))
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// beyond is how many samples lie above the q-quantile's rank.
func (s sample) beyond(q float64) int {
	return len(s) - 1 - int(q*float64(len(s)))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// median of float64 values (mean of the middle pair for even counts).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	c := append([]float64(nil), v...)
	sort.Float64s(c)
	n := len(c)
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}

// durMedian is the median of durations, in the same unit.
func durMedian(d []time.Duration) time.Duration {
	v := make([]float64, len(d))
	for i, x := range d {
		v[i] = float64(x)
	}
	return time.Duration(median(v))
}
