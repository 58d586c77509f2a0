package linalg

import (
	"encoding/binary"
	"errors"
	"math"
	"testing"

	"tecfan/internal/floats"
)

// fuzzFloat decodes 8 bytes into a float64, passing NaN/Inf/denormal bit
// patterns straight through — the point is to seed the factorizations with
// exactly the values ad-hoc checks miss.
func fuzzFloat(data []byte, i int) float64 {
	if (i+1)*8 > len(data) {
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(data[i*8:]))
}

// checkSolveOutcome enforces the no-silent-bad-solve property shared by
// both fuzzers: a nil error means the solution is finite and its
// independently recomputed residual is under tolerance; a non-nil error
// must be one of the typed sentinels.
func checkSolveOutcome(t *testing.T, err error, a *Dense, b, x []float64) {
	t.Helper()
	if err != nil {
		var ne *NumError
		if !errors.As(err, &ne) && !errors.Is(err, ErrSingular) && !errors.Is(err, ErrNotSPD) && !errors.Is(err, ErrShape) {
			t.Fatalf("untyped solve error: %v", err)
		}
		return
	}
	if !floats.AllFinite(x) {
		t.Fatalf("accepted solve contains non-finite entries: %v", x)
	}
	n := len(x)
	ax := make([]float64, n)
	a.MulVec(x, ax)
	var rn, bn float64
	for i := 0; i < n; i++ {
		if d := math.Abs(b[i] - ax[i]); d > rn {
			rn = d
		}
		if m := math.Abs(b[i]); m > bn {
			bn = m
		}
	}
	rel := rn
	if bn > 0 {
		rel = rn / bn
	}
	if !(rel <= DefaultResidualTol) {
		t.Fatalf("silent bad solve: relative residual %v > %v", rel, DefaultResidualTol)
	}
}

// FuzzCholeskyResidual builds symmetric matrices directly from fuzzed bit
// patterns — near-singular, badly scaled, NaN/Inf-seeded — and asserts the
// verified solve either returns a typed error or a solution whose residual
// is independently under tolerance. Never a silent bad solve.
func FuzzCholeskyResidual(f *testing.F) {
	// Well-conditioned seed.
	seed := make([]byte, 6*8)
	for i, v := range []float64{4, -1, -1, 4, -1, 4} {
		binary.LittleEndian.PutUint64(seed[i*8:], math.Float64bits(v))
	}
	f.Add(seed, 1.0)
	// NaN-seeded.
	bad := append([]byte(nil), seed...)
	binary.LittleEndian.PutUint64(bad[3*8:], math.Float64bits(math.NaN()))
	f.Add(bad, 1.0)
	// Badly scaled.
	f.Add(seed, 1e150)
	f.Add(seed, 1e-150)

	f.Fuzz(func(t *testing.T, data []byte, scale float64) {
		n := 2 + len(data)%3 // 2..4
		a := NewDense(n, n)
		k := 0
		for i := 0; i < n; i++ {
			for j := i; j < n; j++ {
				v := fuzzFloat(data, k) * scale
				k++
				a.Set(i, j, v)
				a.Set(j, i, v)
			}
		}
		v, err := NewVerifiedCholesky(csrFromDense(a), 0)
		if err != nil {
			if !errors.Is(err, ErrNotSPD) && !errors.Is(err, ErrShape) {
				t.Fatalf("untyped factor error: %v", err)
			}
			return
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = float64(i + 1)
		}
		x := make([]float64, n)
		_, serr := v.Solve(b, x, make([]float64, n))
		checkSolveOutcome(t, serr, a, b, x)
	})
}

// FuzzBandLUResidual is the band-matrix counterpart: tridiagonal systems
// from fuzzed bit patterns through the no-pivoting band LU, which is the
// solver most exposed to growth — so the residual gate carries the proof.
func FuzzBandLUResidual(f *testing.F) {
	seed := make([]byte, 9*8)
	for i, v := range []float64{5, -1, 0, -1, 5, -1, 0, -1, 5} {
		binary.LittleEndian.PutUint64(seed[i*8:], math.Float64bits(v))
	}
	f.Add(seed)
	tiny := append([]byte(nil), seed...)
	binary.LittleEndian.PutUint64(tiny[0:], math.Float64bits(1e-20))
	f.Add(tiny)
	inf := append([]byte(nil), seed...)
	binary.LittleEndian.PutUint64(inf[4*8:], math.Float64bits(math.Inf(1)))
	f.Add(inf)

	f.Fuzz(func(t *testing.T, data []byte) {
		n := 2 + len(data)%4 // 2..5
		bm := NewBanded(n, 1, 1)
		k := 0
		for i := 0; i < n; i++ {
			lo, hi := i-1, i+1
			if lo < 0 {
				lo = 0
			}
			if hi >= n {
				hi = n - 1
			}
			for j := lo; j <= hi; j++ {
				bm.Set(i, j, fuzzFloat(data, k))
				k++
			}
		}
		v, err := NewVerifiedBandLU(bm, 0)
		if err != nil {
			if !errors.Is(err, ErrSingular) && !errors.Is(err, ErrShape) {
				t.Fatalf("untyped factor error: %v", err)
			}
			return
		}
		rhs := make([]float64, n)
		for i := range rhs {
			rhs[i] = float64(i + 1)
		}
		x := make([]float64, n)
		_, serr := v.Solve(rhs, x)
		checkSolveOutcome(t, serr, bm.Dense(), rhs, x)
	})
}

// FuzzSolveBlockMatchesSolve builds a symmetric diagonally dominant matrix
// and up to BlockWidth right-hand sides from fuzzed bit patterns (NaN, Inf
// and denormals included) and asserts that every column of the verified
// block solve equals its own verified Solve bit for bit: the same
// solution, refined flag and error. A poisoned column must never leak into
// its neighbours.
func FuzzSolveBlockMatchesSolve(f *testing.F) {
	seed := make([]byte, 1+12*8)
	seed[0] = 7
	for i := 0; i < 12; i++ {
		binary.LittleEndian.PutUint64(seed[1+i*8:], math.Float64bits(float64(i%5)-1.5))
	}
	f.Add(seed)
	bad := append([]byte(nil), seed...)
	binary.LittleEndian.PutUint64(bad[1+9*8:], math.Float64bits(math.NaN()))
	f.Add(bad)
	huge := append([]byte(nil), seed...)
	binary.LittleEndian.PutUint64(huge[1+10*8:], math.Float64bits(math.MaxFloat64))
	f.Add(huge)

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		k := 1 + int(data[0])%BlockWidth
		n := 2 + int(data[0]/BlockWidth)%5 // 2..6
		vals := data[1:]
		a := NewDense(n, n)
		idx := 0
		for i := 1; i < n; i++ {
			for j := 0; j < i; j++ {
				v := fuzzFloat(vals, idx)
				idx++
				a.Set(i, j, v)
				a.Set(j, i, v)
			}
		}
		for i := 0; i < n; i++ {
			var sum float64
			for j := 0; j < n; j++ {
				if j != i {
					sum += math.Abs(a.At(i, j))
				}
			}
			a.Set(i, i, sum+1)
		}
		v, err := NewVerifiedCholesky(csrFromDense(a), 0)
		if err != nil {
			return // a non-finite entry reached a pivot
		}
		bs := make([][]float64, k)
		for j := range bs {
			bs[j] = make([]float64, n)
			for i := range bs[j] {
				bs[j][i] = fuzzFloat(vals, idx)
				idx++
			}
		}
		block, single := solveBlockAndSingly(v, bs)
		compareOutcomes(t, "fuzz", block, single)
	})
}
