// Package systolic is a cycle-level simulator of the §III-E temperature-
// evaluation hardware: a linear systolic array of fixed-point multiply-
// accumulate PEs that computes the band matrix-vector product Ĝ·T̂ for one
// core per pass (after Milovanović et al. [25], the paper's reference for
// space-optimal band mat-vec arrays). The paper budgets M×K = 54 eight-bit
// multipliers and argues the area/power are negligible; this package
// executes that design clock by clock, so the latency, MAC activity, and
// quantization error of the 8-bit encoding claim can be measured rather
// than asserted.
//
// Array layout: one PE per band diagonal (w = kl+ku+1 PEs). A row's partial
// sum enters PE 0 at cycle i, picks up one in-band product per PE as it
// marches, and emerges from PE w−1 at cycle i+w−1; rows stream back to back,
// so an n-row evaluation completes in n+w−1 cycles and a batch of b
// evaluations in b·n + w − 1.
package systolic

import (
	"fmt"
	"math"

	"tecfan/internal/linalg"
)

// Q is a signed fixed-point format with the given total bit width and
// fractional bits. The paper's claim is that 8-bit encoding suffices for
// temperature and energy comparison.
type Q struct {
	Bits int // total width incl. sign
	Frac int // fractional bits
}

// Q8 is the paper's 8-bit encoding, scaled for on-die temperatures:
// 1 integer step = 1 °C, quarter-degree resolution over ±16 °C around a
// bias point (values are stored relative to the ambient/bias).
var Q8 = Q{Bits: 8, Frac: 2}

// Step returns the quantization step.
func (q Q) Step() float64 { return math.Exp2(-float64(q.Frac)) }

// Max returns the largest representable value.
func (q Q) Max() float64 {
	return (math.Exp2(float64(q.Bits-1)) - 1) * q.Step()
}

// Quantize rounds x to the format, saturating at the representable range.
func (q Q) Quantize(x float64) int64 {
	scaled := math.Round(x / q.Step())
	lim := math.Exp2(float64(q.Bits-1)) - 1
	if scaled > lim {
		scaled = lim
	}
	if scaled < -lim-1 {
		scaled = -lim - 1
	}
	return int64(scaled)
}

// Value converts a raw quantized word back to float.
func (q Q) Value(raw int64) float64 { return float64(raw) * q.Step() }

// Stats reports one pass's hardware activity.
type Stats struct {
	Cycles int // clock cycles from first input to last output
	MACs   int // multiply-accumulates performed (in-band elements)
	PEs    int // array length (band width)
}

// Array is the configured systolic engine for one band matrix.
type Array struct {
	band *linalg.Banded
	q    Q
	// coeff holds the pre-quantized matrix entries, PE-major: coeff[p][i]
	// is the word PE p applies to row i (diagonal d = p − kl).
	coeff [][]int64
}

// New builds an array over the band matrix with matrix entries quantized in
// the given format. The conductance entries are scaled into range by the
// caller; New reports an error if any entry saturates.
func New(b *linalg.Banded, q Q) (*Array, error) {
	w := b.KL + b.KU + 1
	a := &Array{band: b, q: q, coeff: make([][]int64, w)}
	for p := 0; p < w; p++ {
		a.coeff[p] = make([]int64, b.N)
		d := p - b.KL
		for i := 0; i < b.N; i++ {
			j := i + d
			if j < 0 || j >= b.N {
				continue
			}
			v := b.At(i, j)
			raw := q.Quantize(v)
			if got := q.Value(raw); math.Abs(got-v) > q.Step() {
				return nil, fmt.Errorf("systolic: entry (%d,%d)=%g saturates %d-bit format", i, j, v, q.Bits)
			}
			a.coeff[p][i] = raw
		}
	}
	return a, nil
}

// PEs returns the array length.
func (a *Array) PEs() int { return a.band.KL + a.band.KU + 1 }

// pe is one processing element's pipeline register.
type pe struct {
	row   int
	acc   int64
	valid bool
}

// MulVec streams the quantized vector x through the array and returns the
// de-quantized product y along with the cycle/MAC statistics. The products
// are formed at double width and accumulated exactly, as the hardware's
// accumulator chain would.
func (a *Array) MulVec(x []float64, y []float64) (Stats, error) {
	n := a.band.N
	if len(x) != n || len(y) != n {
		return Stats{}, fmt.Errorf("systolic: vector length %d/%d, want %d", len(x), len(y), n)
	}
	w := a.PEs()
	xq := make([]int64, n)
	for i, v := range x {
		xq[i] = a.q.Quantize(v)
	}
	regs := make([]pe, w)
	st := Stats{PEs: w}
	outputs := 0
	for cycle := 0; outputs < n; cycle++ {
		st.Cycles++
		// Shift the pipeline (back to front) and apply each PE's MAC.
		for p := w - 1; p > 0; p-- {
			regs[p] = regs[p-1]
			if regs[p].valid {
				a.mac(&regs[p], p, xq, &st)
			}
		}
		// Feed a new row into PE 0.
		if cycle < n {
			regs[0] = pe{row: cycle, valid: true}
			a.mac(&regs[0], 0, xq, &st)
		} else {
			regs[0] = pe{}
		}
		// The last PE's register now holds a completed row: drain it.
		if regs[w-1].valid {
			// Accumulator is at step² scale (product of two quantized words).
			y[regs[w-1].row] = float64(regs[w-1].acc) * a.q.Step() * a.q.Step()
			outputs++
			regs[w-1].valid = false
		}
	}
	return st, nil
}

// mac applies PE p's multiply-accumulate to the register's row.
func (a *Array) mac(r *pe, p int, xq []int64, st *Stats) {
	i := r.row
	j := i + (p - a.band.KL)
	if j < 0 || j >= len(xq) {
		return
	}
	if a.coeff[p][i] == 0 && !a.band.InBand(i, j) {
		return
	}
	r.acc += a.coeff[p][i] * xq[j]
	st.MACs++
}

// QuantizationError returns the worst-case output error bound of the format
// for an n-row evaluation with inputs bounded by xMax and coefficients by
// aMax: each product contributes at most step·(xMax + aMax + step) error,
// and a row accumulates at most w of them.
func (a *Array) QuantizationError(xMax, aMax float64) float64 {
	s := a.q.Step()
	return float64(a.PEs()) * s * (xMax + aMax + s)
}
