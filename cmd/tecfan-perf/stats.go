package main

import (
	"math"
	"math/bits"
	"sort"
	"time"
)

// summary is how every timing is reported: median, quartiles, sample count,
// and the highest percentile that still has at least ten samples beyond it.
type summary struct {
	Median  float64   `json:"median"`
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
	N       int       `json:"n"`
	TailP   float64   `json:"tail_p,omitempty"`
	Tail    float64   `json:"tail,omitempty"`
	Samples []float64 `json:"samples"`
}

func summarize(xs []float64) summary {
	s := summary{N: len(xs), Samples: append([]float64(nil), xs...)}
	if len(xs) == 0 {
		return s
	}
	s.Q1, s.Median, s.Q3 = quartiles(xs)
	if p, ok := tailPercentile(len(xs)); ok {
		s.TailP, s.Tail = p, percentile(xs, p)
	}
	return s
}

// spread is the interquartile distance as a share of the median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Median)
}

func sorted(xs []float64) []float64 {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	return d
}

// quartiles returns Q1, median, Q3 by the same rule as Python's
// statistics.quantiles(xs, n=4) (the "exclusive" method), so numbers printed
// here match what an external checker computes from the same samples. One
// sample is its own median and quartiles.
func quartiles(xs []float64) (q1, med, q3 float64) {
	d := sorted(xs)
	ld := len(d)
	if ld == 1 {
		return d[0], d[0], d[0]
	}
	var q [3]float64
	m := ld + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		q[i-1] = (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	_, m, _ := quartiles(xs)
	return m
}

// percentile interpolates linearly between closest ranks; p is in [0, 100].
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	d := sorted(xs)
	pos := p / 100 * float64(len(d)-1)
	lo := int(math.Floor(pos))
	if lo >= len(d)-1 {
		return d[len(d)-1]
	}
	frac := pos - float64(lo)
	return d[lo] + frac*(d[lo+1]-d[lo])
}

// tailPercentiles are the candidates for a timing's reported tail, highest
// first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// tailPercentile picks the highest percentile of n samples that still has at
// least ten samples beyond it; ok is false when even the median does not.
func tailPercentile(n int) (p float64, ok bool) {
	for _, p := range tailPercentiles {
		if float64(n)*(1-p/100) >= 10-1e-9 {
			return p, true
		}
	}
	return 0, false
}

// hist is a log-linear histogram of durations: eight linear sub-buckets per
// power of two, so any quantile read from it is within 1/16 of the truth
// while memory stays fixed however many samples are folded in.
type hist struct {
	counts [histBuckets]uint64
	n      uint64
}

const histBuckets = 8 + 60*8

func histIndex(v int64) int {
	if v < 8 {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	e := bits.Len64(uint64(v)) - 1
	sub := int(v>>(e-3)) - 8
	return 8 + (e-3)*8 + sub
}

// histMid is the midpoint of bucket i (exact below 8).
func histMid(i int) float64 {
	if i < 8 {
		return float64(i)
	}
	e := (i-8)/8 + 3
	sub := (i - 8) % 8
	lo := float64(int64(8+sub) << (e - 3))
	width := float64(int64(1) << (e - 3))
	return lo + width/2
}

func (h *hist) add(d time.Duration) {
	h.counts[histIndex(int64(d))]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile (q in [0,1]) in nanoseconds.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum >= rank {
			return histMid(i)
		}
	}
	return histMid(histBuckets - 1)
}
