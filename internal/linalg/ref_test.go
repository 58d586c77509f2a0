package linalg_test

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"tecfan/internal/fan"
	"tecfan/internal/floats"
	"tecfan/internal/floorplan"
	"tecfan/internal/linalg"
	"tecfan/internal/thermal"
)

// The profile Cholesky and the CSR residual must reproduce the dense
// solver bit for bit. The dense solver is kept here verbatim as a test-only
// reference (refCholesky, refVerifiedCholesky), and the equivalence is
// checked on every matrix the thermal stack factors — the SCC16 and quad
// networks' G(f) at every fan level and their C/dt + G transient matrices
// at the sim's and the Fig. 7 machine's steps — plus random dense and
// random arrow/band SPD matrices.

// refCholesky is the dense Cholesky factor the profile form replaced.
type refCholesky struct {
	n  int
	l  *linalg.Dense
	ut *linalg.Dense
}

func refFinitePositive(v float64) bool {
	return v > 0 && floats.Finite(v)
}

func newRefCholesky(a *linalg.Dense) (*refCholesky, error) {
	if a.Rows != a.Cols {
		return nil, linalg.ErrShape
	}
	n := a.Rows
	l := a.Clone()
	for j := 0; j < n; j++ {
		d := l.At(j, j)
		for k := 0; k < j; k++ {
			v := l.At(j, k)
			d -= v * v
		}
		if !refFinitePositive(d) {
			return nil, linalg.ErrNotSPD
		}
		d = math.Sqrt(d)
		l.Set(j, j, d)
		inv := 1 / d
		for i := j + 1; i < n; i++ {
			s := l.At(i, j)
			for k := 0; k < j; k++ {
				s -= l.At(i, k) * l.At(j, k)
			}
			l.Set(i, j, s*inv)
		}
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			l.Set(i, j, 0)
		}
	}
	ut := linalg.NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			ut.Set(j, i, l.At(i, j))
		}
	}
	return &refCholesky{n: n, l: l, ut: ut}, nil
}

func (c *refCholesky) Solve(b, x []float64) {
	if len(b) != c.n || len(x) != c.n {
		panic(linalg.ErrShape)
	}
	if &x[0] != &b[0] {
		copy(x, b)
	}
	l := c.l
	for i := 0; i < c.n; i++ {
		s := x[i]
		row := l.Row(i)
		for k := 0; k < i; k++ {
			s -= row[k] * x[k]
		}
		x[i] = s / row[i]
	}
	for i := c.n - 1; i >= 0; i-- {
		s := x[i]
		urow := c.ut.Row(i)
		for k := i + 1; k < c.n; k++ {
			s -= urow[k] * x[k]
		}
		x[i] = s / urow[i]
	}
}

func refRelResidual(r, b []float64) float64 {
	var rn, bn float64
	for i := range r {
		if a := math.Abs(r[i]); a > rn || math.IsNaN(a) {
			rn = a
		}
		if a := math.Abs(b[i]); a > bn {
			bn = a
		}
	}
	if bn == 0 {
		return rn
	}
	return rn / bn
}

// refVerifiedCholesky is the dense-residual verified solver.
type refVerifiedCholesky struct {
	chol     *refCholesky
	a        *linalg.Dense
	tol      float64
	cond     float64
	ax, r, d []float64
}

func newRefVerifiedCholesky(a *linalg.Dense, tol float64) (*refVerifiedCholesky, error) {
	ch, err := newRefCholesky(a)
	if err != nil {
		return nil, err
	}
	if tol <= 0 {
		tol = linalg.DefaultResidualTol
	}
	n := ch.n
	v := &refVerifiedCholesky{
		chol: ch,
		a:    a.Clone(),
		tol:  tol,
		ax:   make([]float64, n),
		r:    make([]float64, n),
		d:    make([]float64, n),
	}
	mn, mx := math.Inf(1), 0.0
	for i := 0; i < n; i++ {
		d := ch.l.At(i, i)
		if d < mn {
			mn = d
		}
		if d > mx {
			mx = d
		}
	}
	if mn > 0 {
		v.cond = (mx / mn) * (mx / mn)
	} else {
		v.cond = math.MaxFloat64
	}
	return v, nil
}

func (v *refVerifiedCholesky) Solve(b, x []float64) (refined bool, err error) {
	v.chol.Solve(b, x)
	res := v.residual(b, x)
	if res <= v.tol && floats.AllFinite(x) {
		return false, nil
	}
	v.chol.Solve(v.r, v.d)
	for i := range x {
		x[i] += v.d[i]
	}
	res = v.residual(b, x)
	if res <= v.tol && floats.AllFinite(x) {
		return true, nil
	}
	return true, &linalg.NumError{Op: "cholesky", Residual: res, Tol: v.tol, Cond: v.cond, Refinements: 1, Err: linalg.ErrDiverged}
}

func (v *refVerifiedCholesky) residual(b, x []float64) float64 {
	v.a.MulVec(x, v.ax)
	for i := range v.r {
		v.r[i] = b[i] - v.ax[i]
	}
	return refRelResidual(v.r, b)
}

type namedMatrix struct {
	name string
	a    *linalg.Dense
}

// thermalMatrices returns every system the thermal stack factors on the
// SCC16 and quad chips: G(f) for each fan level (steady solves) and
// C/dt + G for the sim's 100 µs step and the Fig. 7 machine's 0.1 s step.
func thermalMatrices() []namedMatrix {
	var out []namedMatrix
	fm := fan.DynatronR16()
	for _, chip := range []struct {
		name string
		c    *floorplan.Chip
	}{{"scc16", floorplan.NewSCC16()}, {"quad", floorplan.NewQuad()}} {
		nw := thermal.NewNetwork(chip.c, fm, thermal.DefaultParams())
		for f := 0; f < fm.NumLevels(); f++ {
			out = append(out, namedMatrix{fmt.Sprintf("%s/G(fan=%d)", chip.name, f), nw.AssembleG(f)})
			for _, dt := range []float64{100e-6, 0.1} {
				out = append(out, namedMatrix{fmt.Sprintf("%s/C/dt+G(fan=%d,dt=%g)", chip.name, f, dt), nw.TransientMatrix(f, dt)})
			}
		}
	}
	return out
}

// randomDenseSPD returns BᵀB + n·I with a dense Gaussian B.
func randomDenseSPD(rng *rand.Rand, n int) *linalg.Dense {
	b := linalg.NewDense(n, n)
	for i := range b.Data {
		b.Data[i] = rng.NormFloat64()
	}
	a := b.Transpose().Mul(b)
	for i := 0; i < n; i++ {
		a.Add(i, i, float64(n))
	}
	return a
}

// randomArrowSPD returns a diagonally dominant SPD matrix with a random
// band of half-width 3 plus dense last rows/columns — the shape of the
// thermal network's spreader and sink rows.
func randomArrowSPD(rng *rand.Rand, n, arrow int) *linalg.Dense {
	a := linalg.NewDense(n, n)
	set := func(i, j int) {
		v := -rng.Float64()
		a.Set(i, j, v)
		a.Set(j, i, v)
	}
	for i := 0; i < n; i++ {
		for k := i - 3; k < i; k++ {
			if k >= 0 && rng.Intn(2) == 0 {
				set(i, k)
			}
		}
		if i >= n-arrow {
			for k := 0; k < i-3; k++ {
				if rng.Intn(4) > 0 {
					set(i, k)
				}
			}
		}
	}
	for i := 0; i < n; i++ {
		var s float64
		for _, v := range a.Row(i) {
			s -= v
		}
		a.Set(i, i, s+0.5+rng.Float64())
	}
	return a
}

func referenceMatrices() []namedMatrix {
	rng := rand.New(rand.NewSource(13))
	out := thermalMatrices()
	out = append(out,
		namedMatrix{"random-dense-305", randomDenseSPD(rng, 305)},
		namedMatrix{"random-dense-40", randomDenseSPD(rng, 40)},
		namedMatrix{"random-arrow-120", randomArrowSPD(rng, 120, 5)},
		namedMatrix{"random-arrow-40", randomArrowSPD(rng, 40, 2)},
	)
	return out
}

func sameBits(a, b []float64) int {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// TestCholeskyMatchesDenseReference: identical pivots, condition estimate,
// and — over 1 000 finite right-hand sides per matrix — bitwise-identical
// plain and verified solutions with no refinement.
func TestCholeskyMatchesDenseReference(t *testing.T) {
	const rhsPer = 1000
	for mi, m := range referenceMatrices() {
		ref, err := newRefVerifiedCholesky(m.a, 0)
		if err != nil {
			t.Fatalf("%s: reference factor: %v", m.name, err)
		}
		got, err := linalg.NewVerifiedCholesky(m.a, 0)
		if err != nil {
			t.Fatalf("%s: profile factor: %v", m.name, err)
		}
		plain, err := linalg.NewCholesky(m.a)
		if err != nil {
			t.Fatalf("%s: profile factor: %v", m.name, err)
		}
		n := m.a.Rows
		refPiv := make([]float64, n)
		for i := range refPiv {
			refPiv[i] = ref.chol.l.At(i, i)
		}
		if i := sameBits(refPiv, plain.Pivots()); i >= 0 {
			t.Fatalf("%s: pivot %d = %v, reference %v", m.name, i, plain.Pivots()[i], refPiv[i])
		}
		if math.Float64bits(got.Cond()) != math.Float64bits(ref.cond) {
			t.Fatalf("%s: Cond() = %v, reference %v", m.name, got.Cond(), ref.cond)
		}
		rng := rand.New(rand.NewSource(int64(100 + mi)))
		b := make([]float64, n)
		want, x, xp := make([]float64, n), make([]float64, n), make([]float64, n)
		for trial := 0; trial < rhsPer; trial++ {
			// Temperature-like right-hand sides, half of them with exact
			// zeros where a node has no source (the spreader rows).
			for i := range b {
				b[i] = 50 * math.Exp(2*rng.NormFloat64())
				if rng.Intn(2) == 0 {
					b[i] = -b[i]
				}
				if trial%2 == 1 && rng.Intn(3) == 0 {
					b[i] = 0
				}
			}
			wantRefined, wantErr := ref.Solve(b, want)
			if wantRefined || wantErr != nil {
				t.Fatalf("%s: reference refined=%v err=%v on a finite rhs", m.name, wantRefined, wantErr)
			}
			refined, err := got.Solve(b, x)
			if refined || err != nil {
				t.Fatalf("%s: trial %d: refined=%v err=%v, reference clean", m.name, trial, refined, err)
			}
			if i := sameBits(want, x); i >= 0 {
				t.Fatalf("%s: trial %d: x[%d] = %v, reference %v", m.name, trial, i, x[i], want[i])
			}
			plain.Solve(b, xp)
			if i := sameBits(want, xp); i >= 0 {
				t.Fatalf("%s: trial %d: plain x[%d] = %v, reference %v", m.name, trial, i, xp[i], want[i])
			}
		}
	}
}

// TestVerifiedCholeskyNonFiniteMatchesReference: a NaN or ±Inf in one
// right-hand-side entry draws the reference's verdict — refined, and
// refused with ErrDiverged.
func TestVerifiedCholeskyNonFiniteMatchesReference(t *testing.T) {
	for mi, m := range referenceMatrices() {
		ref, err := newRefVerifiedCholesky(m.a, 0)
		if err != nil {
			t.Fatal(err)
		}
		got, err := linalg.NewVerifiedCholesky(m.a, 0)
		if err != nil {
			t.Fatal(err)
		}
		n := m.a.Rows
		rng := rand.New(rand.NewSource(int64(200 + mi)))
		b := make([]float64, n)
		x, want := make([]float64, n), make([]float64, n)
		for trial := 0; trial < 12; trial++ {
			for i := range b {
				b[i] = 45 + 40*rng.Float64()
			}
			b[rng.Intn(n)] = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[trial%3]
			wantRefined, wantErr := ref.Solve(b, want)
			refined, err := got.Solve(b, x)
			if refined != wantRefined || errors.Is(err, linalg.ErrDiverged) != errors.Is(wantErr, linalg.ErrDiverged) {
				t.Fatalf("%s: trial %d: (refined=%v, err=%v), reference (refined=%v, err=%v)",
					m.name, trial, refined, err, wantRefined, wantErr)
			}
			if !wantRefined || !errors.Is(wantErr, linalg.ErrDiverged) {
				t.Fatalf("%s: reference accepted a non-finite rhs: refined=%v err=%v", m.name, wantRefined, wantErr)
			}
		}
	}
}

// TestCholeskyNonFiniteMatrixMatchesReference: a NaN or ±Inf in any one
// symmetric pair of entries draws the same factor error as the reference.
func TestCholeskyNonFiniteMatrixMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	base := randomArrowSPD(rng, 16, 2)
	n := base.Rows
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
				a := base.Clone()
				a.Set(i, j, bad)
				a.Set(j, i, bad)
				_, wantErr := newRefCholesky(a)
				_, err := linalg.NewCholesky(a)
				if !errors.Is(err, wantErr) || (err == nil) != (wantErr == nil) {
					t.Fatalf("A[%d][%d] = %v: err = %v, reference %v", i, j, bad, err, wantErr)
				}
			}
		}
	}
}
