package server

import (
	"math"

	"tecfan/internal/splitmix"
)

// The Wikipedia HTTP trace substitution: the paper cuts the first 40 minutes
// of a 7-day Wikipedia access trace [33], splits it into four 10-minute
// pieces (one per core), and scales utilization by 1.5× so the TECs see
// enough load, landing at a 48.6 % mean CPU utilization. We synthesize a
// deterministic series with the same structure: a slow diurnal-style drift,
// request-rate noise, and occasional bursts.

// WikiTrace generates per-second utilization samples for the given duration.
// scale is the paper's 1.5 utilization multiplier; samples clamp to [0, 1].
func WikiTrace(seconds int, scale float64, seed uint64) []float64 {
	out := make([]float64, seconds)
	for i := range out {
		t := float64(i)
		// Slow drift across the 40-minute window (a fragment of the
		// diurnal wave) plus two shorter request-rate oscillations.
		u := 0.32 +
			0.055*math.Sin(2*math.Pi*t/2400+1.1) +
			0.05*math.Sin(2*math.Pi*t/311+0.4) +
			0.035*math.Sin(2*math.Pi*t/73+2.2)
		// Deterministic per-second noise.
		h := splitmix.Mix(seed + uint64(i)*0x9e3779b97f4a7c15)
		u += 0.05 * (2*float64(h>>11)/float64(1<<53) - 1)
		// Sparse bursts (~2 % of seconds) emulating hot requests.
		if h%53 == 0 {
			u += 0.25
		}
		u *= scale
		if u < 0 {
			u = 0
		}
		if u > 1 {
			u = 1
		}
		out[i] = u
	}
	return out
}

// Mean returns the arithmetic mean of a series.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// DefaultTraceSeed reproduces the paper's evaluation series.
const DefaultTraceSeed = 0x11A5C0DE

// PaperTraces returns the four 10-minute per-core traces of §V-E: the first
// 40 minutes of the (synthesized) trace, split into 10-minute pieces, with
// the 1.5× utilization scaling. The combined mean is ≈ 48.6 %.
func PaperTraces() [][]float64 {
	full := WikiTrace(2400, 1.5, DefaultTraceSeed)
	out := make([][]float64, 4)
	for c := 0; c < 4; c++ {
		out[c] = full[c*600 : (c+1)*600]
	}
	return out
}
