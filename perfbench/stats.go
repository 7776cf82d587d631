package main

import (
	"fmt"
	"sort"
)

// tailBeyond is how many samples must lie above the reported tail
// percentile for it to mean anything.
const tailBeyond = 10

// median returns the median of xs (0 for none). xs is not modified.
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

// tail returns the highest percentile of xs that has at least tailBeyond
// samples above it: the (tailBeyond+1)-th largest sample, with its
// percentile rank 100·(n−tailBeyond)/n. With tailBeyond samples or fewer no
// percentile qualifies; the maximum is returned with ok false.
func tail(xs []float64) (value, pct float64, ok bool) {
	n := len(xs)
	if n == 0 {
		return 0, 0, false
	}
	s := sorted(xs)
	if n <= tailBeyond {
		return s[n-1], 100, false
	}
	return s[n-1-tailBeyond], 100 * float64(n-tailBeyond) / float64(n), true
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// metric is one reported figure with the count it was measured over.
type metric struct {
	name  string
	value float64
	unit  string
	n     int    // samples behind the value
	note  string // percentile rank, ratio base or why it is zero
}

func (m metric) String() string {
	s := fmt.Sprintf("%-36s %14.4f %-8s n=%d", m.name, m.value, m.unit, m.n)
	if m.note != "" {
		s += "  " + m.note
	}
	return s
}

// ratio returns num/den, or 0 when nothing was attempted.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
