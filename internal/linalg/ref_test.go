package linalg_test

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
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
// at the sim's and the Fig. 7 machine's steps, each factored from the CSR
// the network assembles for it — plus random dense and random arrow/band
// SPD matrices.

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

// namedMatrix is one test system: the dense reference a and the CSR csr
// the factor under test takes.
type namedMatrix struct {
	name string
	a    *linalg.Dense
	csr  *linalg.CSR
}

func denseMatrix(name string, a *linalg.Dense) namedMatrix {
	return namedMatrix{name, a, linalg.CSRFromDense(a)}
}

// transientDense is the dense backward-Euler matrix C/dt + Ĝ(fanLevel),
// the capacities added to AssembleG's diagonal.
func transientDense(nw *thermal.Network, fanLevel int, dt float64) *linalg.Dense {
	m := nw.AssembleG(fanLevel)
	for i := 0; i < nw.NumNodes(); i++ {
		m.Add(i, i, nw.Capacity(i)/dt)
	}
	return m
}

// thermalMatrices returns every system the thermal stack factors on the
// SCC16 and quad chips: G(f) for each fan level (steady solves) and
// C/dt + G for the sim's 100 µs step and the Fig. 7 machine's 0.1 s step,
// each with the CSR the network assembles for it.
func thermalMatrices() []namedMatrix {
	var out []namedMatrix
	fm := fan.DynatronR16()
	for _, chip := range []struct {
		name string
		c    *floorplan.Chip
	}{{"scc16", floorplan.NewSCC16()}, {"quad", floorplan.NewQuad()}} {
		nw := thermal.NewNetwork(chip.c, fm, thermal.DefaultParams())
		for f := 0; f < fm.NumLevels(); f++ {
			out = append(out, namedMatrix{fmt.Sprintf("%s/G(fan=%d)", chip.name, f), nw.AssembleG(f), nw.SystemCSR(f, 0)})
			for _, dt := range []float64{100e-6, 0.1} {
				out = append(out, namedMatrix{fmt.Sprintf("%s/C/dt+G(fan=%d,dt=%g)", chip.name, f, dt), transientDense(nw, f, dt), nw.SystemCSR(f, dt)})
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

// doctoredMatrices returns the SCC16 systems, steady and at the sim's
// 100 µs step for every fan level, with the first lateral coupling zeroed:
// the dense matrices of thermal's doctored network, whose cancelled entry
// the CSR drops (TestSystemCSRMatchesDenseAssembly checks the network's
// own CSR and factor against these dense scans).
func doctoredMatrices() []namedMatrix {
	chip, fm := floorplan.NewSCC16(), fan.DynatronR16()
	nw := thermal.NewNetwork(chip, fm, thermal.DefaultParams())
	e := chip.Adjacency()[0]
	var out []namedMatrix
	for f := 0; f < fm.NumLevels(); f++ {
		for _, dt := range []float64{0, 100e-6} {
			a := nw.AssembleG(f)
			if dt > 0 {
				a = transientDense(nw, f, dt)
			}
			a.Set(e.A, e.B, 0)
			a.Set(e.B, e.A, 0)
			out = append(out, denseMatrix(fmt.Sprintf("scc16-doctored(fan=%d,dt=%g)", f, dt), a))
		}
	}
	return out
}

func referenceMatrices() []namedMatrix {
	rng := rand.New(rand.NewSource(13))
	out := append(thermalMatrices(), doctoredMatrices()...)
	out = append(out,
		denseMatrix("random-dense-305", randomDenseSPD(rng, 305)),
		denseMatrix("random-dense-40", randomDenseSPD(rng, 40)),
		denseMatrix("random-arrow-120", randomArrowSPD(rng, 120, 5)),
		denseMatrix("random-arrow-40", randomArrowSPD(rng, 40, 2)),
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

// sameCSR reports where got differs from want, bit for bit: the row
// pointers, the column indices and the values.
func sameCSR(got, want *linalg.CSR) string {
	if got.N != want.N || len(got.RowPtr) != len(want.RowPtr) || len(got.ColIdx) != len(want.ColIdx) || len(got.Vals) != len(want.Vals) {
		return fmt.Sprintf("shape n=%d nnz=%d, want n=%d nnz=%d", got.N, len(got.Vals), want.N, len(want.Vals))
	}
	for i := range want.RowPtr {
		if got.RowPtr[i] != want.RowPtr[i] {
			return fmt.Sprintf("RowPtr[%d] = %d, want %d", i, got.RowPtr[i], want.RowPtr[i])
		}
	}
	for k := range want.ColIdx {
		if got.ColIdx[k] != want.ColIdx[k] {
			return fmt.Sprintf("ColIdx[%d] = %d, want %d", k, got.ColIdx[k], want.ColIdx[k])
		}
	}
	if k := sameBits(want.Vals, got.Vals); k >= 0 {
		return fmt.Sprintf("Vals[%d] = %v, want %v", k, got.Vals[k], want.Vals[k])
	}
	return ""
}

// TestCholeskyMatchesDenseReference: the CSR the factor takes (and keeps
// for its residual) is the dense matrix's nonzeros bit for bit; the factor
// has identical pivots and condition estimate; and over 1 000 finite
// right-hand sides per matrix, plain and verified solutions are
// bitwise-identical with no refinement.
func TestCholeskyMatchesDenseReference(t *testing.T) {
	const rhsPer = 1000
	for mi, m := range referenceMatrices() {
		if diff := sameCSR(m.csr, linalg.CSRFromDense(m.a)); diff != "" {
			t.Fatalf("%s: CSR differs from the dense matrix's nonzeros: %s", m.name, diff)
		}
		ref, err := newRefVerifiedCholesky(m.a, 0)
		if err != nil {
			t.Fatalf("%s: reference factor: %v", m.name, err)
		}
		got, err := linalg.NewVerifiedCholesky(m.csr, 0)
		if err != nil {
			t.Fatalf("%s: profile factor: %v", m.name, err)
		}
		plain, err := linalg.NewCholesky(m.csr)
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
		want, x, xp, r := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
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
			refined, err := got.Solve(b, x, r)
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
		got, err := linalg.NewVerifiedCholesky(m.csr, 0)
		if err != nil {
			t.Fatal(err)
		}
		n := m.a.Rows
		rng := rand.New(rand.NewSource(int64(200 + mi)))
		b := make([]float64, n)
		x, want, r := make([]float64, n), make([]float64, n), make([]float64, n)
		for trial := 0; trial < 12; trial++ {
			for i := range b {
				b[i] = 45 + 40*rng.Float64()
			}
			b[rng.Intn(n)] = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[trial%3]
			wantRefined, wantErr := ref.Solve(b, want)
			refined, err := got.Solve(b, x, r)
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
				_, err := linalg.NewCholesky(linalg.CSRFromDense(a))
				if !errors.Is(err, wantErr) || (err == nil) != (wantErr == nil) {
					t.Fatalf("A[%d][%d] = %v: err = %v, reference %v", i, j, bad, err, wantErr)
				}
			}
		}
	}
}

// hilbert returns the n×n Hilbert matrix: SPD, and from n = 8 so
// ill-conditioned that every solve takes the refinement step.
func hilbert(n int) *linalg.Dense {
	a := linalg.NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a.Set(i, j, 1/float64(i+j+1))
		}
	}
	return a
}

// hilbertRHS is a right-hand side for hilbert(n) that varies with k.
func hilbertRHS(n, k int) []float64 {
	b := make([]float64, n)
	for i := range b {
		b[i] = float64((i+k)%3) - 0.7
	}
	return b
}

// TestVerifiedCholeskyRefinementMatchesReference: on Hilbert systems that
// refine, the refinement solved in place in the caller's scratch gives the
// reference's separate-buffer refinement bit for bit: the verdict, the
// refused residual and the best-attempt x.
func TestVerifiedCholeskyRefinementMatchesReference(t *testing.T) {
	for n := 8; n <= 13; n++ {
		ref, err := newRefVerifiedCholesky(hilbert(n), 0)
		if err != nil {
			t.Fatal(err)
		}
		got, err := linalg.NewVerifiedCholesky(linalg.CSRFromDense(hilbert(n)), 0)
		if err != nil {
			t.Fatal(err)
		}
		b := hilbertRHS(n, 0)
		want, x := make([]float64, n), make([]float64, n)
		wantRefined, wantErr := ref.Solve(b, want)
		if !wantRefined {
			t.Fatalf("hilbert-%d: reference did not refine; the case checks nothing", n)
		}
		refined, err := got.Solve(b, x, make([]float64, n))
		if refined != wantRefined || (err == nil) != (wantErr == nil) {
			t.Fatalf("hilbert-%d: (refined=%v, err=%v), reference (refined=%v, err=%v)", n, refined, err, wantRefined, wantErr)
		}
		var ne, wantNE *linalg.NumError
		if errors.As(wantErr, &wantNE) {
			if !errors.As(err, &ne) || math.Float64bits(ne.Residual) != math.Float64bits(wantNE.Residual) {
				t.Fatalf("hilbert-%d: err %v, reference %v", n, err, wantErr)
			}
		}
		if i := sameBits(want, x); i >= 0 {
			t.Fatalf("hilbert-%d: x[%d] = %v, reference %v", n, i, x[i], want[i])
		}
	}
}

// TestVerifiedCholeskyConcurrentSolves: a factor is read-only after
// construction, so eight goroutines may solve through one at once, each
// with its own scratch. Every outcome, refining and refused ones included,
// equals the serial one bit for bit.
func TestVerifiedCholeskyConcurrentSolves(t *testing.T) {
	const workers, rhsPer = 8, 16
	for _, m := range []namedMatrix{thermalMatrices()[0], denseMatrix("hilbert-10", hilbert(10))} {
		v, err := linalg.NewVerifiedCholesky(m.csr, 0)
		if err != nil {
			t.Fatal(err)
		}
		n := m.a.Rows
		type outcome struct {
			x       []float64
			refined bool
			err     error
		}
		solve := func(k int, r []float64) outcome {
			o := outcome{x: make([]float64, n)}
			o.refined, o.err = v.Solve(hilbertRHS(n, k), o.x, r)
			return o
		}
		want := make([]outcome, rhsPer)
		for k := range want {
			want[k] = solve(k, make([]float64, n))
		}
		var wg sync.WaitGroup
		for g := 0; g < workers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				r := make([]float64, n)
				for j := 0; j < rhsPer; j++ {
					k := (g + j) % rhsPer
					got := solve(k, r)
					if got.refined != want[k].refined || (got.err == nil) != (want[k].err == nil) {
						t.Errorf("%s: goroutine %d, rhs %d: (refined=%v, err=%v), serial (refined=%v, err=%v)",
							m.name, g, k, got.refined, got.err, want[k].refined, want[k].err)
						return
					}
					if i := sameBits(want[k].x, got.x); i >= 0 {
						t.Errorf("%s: goroutine %d, rhs %d: x[%d] = %v, serial %v", m.name, g, k, i, got.x[i], want[k].x[i])
						return
					}
				}
			}(g)
		}
		wg.Wait()
	}
}

// sameValue is the fuzz comparison of a factor's output with the dense
// reference's: the same bits, except that an exact zero may differ in
// sign, the one thing skipping a product with a structural zero can change.
func sameValue(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a == 0 && b == 0)
}

// FuzzCSRFactorMatchesDense builds a sparse symmetric matrix from fuzzed
// bit patterns (NaN, ±Inf, denormals and huge values included), made
// diagonally dominant for about half the inputs, and factors its CSR
// against the dense reference. Both must refuse it with the same error,
// or agree on every pivot bit for bit and, for a finite right-hand side,
// on the plain and the verified solution and the verified verdict. A
// reference solution that overflows must overflow in the CSR factor too.
func FuzzCSRFactorMatchesDense(f *testing.F) {
	enc := func(head []byte, vals ...float64) []byte {
		out := append([]byte(nil), head...)
		for _, v := range vals {
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
		}
		return out
	}
	f.Add(enc([]byte{3, 0xff, 1}, -1, -0.5, 0, -2, 1, 2, 3, 4, 5))
	f.Add(enc([]byte{7, 0x5a, 1}, -1, 2, -3, 0.5, math.NaN(), 1, 1, 1, 1))
	f.Add(enc([]byte{5, 0x33, 0}, 4, -1, 4, -1, 4, 1e300, -1e-310, 2, 3))
	f.Add(enc([]byte{9, 0x0f, 1}, math.Inf(1), -1, 1, 1, 1))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		n := 2 + int(data[0])%9
		mask, dominant := data[1], data[2]%2 == 1
		vals := data[3:]
		next := func() float64 {
			if len(vals) < 8 {
				return 0
			}
			v := math.Float64frombits(binary.LittleEndian.Uint64(vals))
			vals = vals[8:]
			return v
		}
		a := linalg.NewDense(n, n)
		bit := 0
		for i := 1; i < n; i++ {
			for j := 0; j < i; j++ {
				if mask>>(bit%8)&1 == 1 {
					v := next()
					a.Set(i, j, v)
					a.Set(j, i, v)
				}
				bit++
			}
		}
		for i := 0; i < n; i++ {
			d := next()
			if dominant {
				d = 1
				for j := 0; j < n; j++ {
					if j != i {
						d += math.Abs(a.At(i, j))
					}
				}
			}
			a.Set(i, i, d)
		}
		b := make([]float64, n)
		for i := range b {
			if b[i] = next(); !floats.Finite(b[i]) {
				b[i] = float64(i + 1)
			}
		}

		ref, wantErr := newRefCholesky(a)
		got, err := linalg.NewCholesky(linalg.CSRFromDense(a))
		if (err == nil) != (wantErr == nil) || !errors.Is(err, wantErr) {
			t.Fatalf("factor err = %v, reference %v", err, wantErr)
		}
		if err != nil {
			return
		}
		piv := got.Pivots()
		for i := range piv {
			if math.Float64bits(piv[i]) != math.Float64bits(ref.l.At(i, i)) {
				t.Fatalf("pivot %d = %v, reference %v", i, piv[i], ref.l.At(i, i))
			}
		}
		want, x := make([]float64, n), make([]float64, n)
		ref.Solve(b, want)
		got.Solve(b, x)
		if !floats.AllFinite(want) {
			if floats.AllFinite(x) {
				t.Fatalf("reference solution %v overflows, CSR factor's %v does not", want, x)
			}
			return
		}
		for i := range x {
			if !sameValue(x[i], want[i]) {
				t.Fatalf("x[%d] = %v, reference %v", i, x[i], want[i])
			}
		}
		vref, err := newRefVerifiedCholesky(a, 0)
		if err != nil {
			t.Fatal(err)
		}
		v, err := linalg.NewVerifiedCholesky(linalg.CSRFromDense(a), 0)
		if err != nil {
			t.Fatal(err)
		}
		wantRefined, wantErr := vref.Solve(b, want)
		refined, err := v.Solve(b, x, make([]float64, n))
		if refined != wantRefined || (err == nil) != (wantErr == nil) {
			t.Fatalf("verified (refined=%v, err=%v), reference (refined=%v, err=%v)", refined, err, wantRefined, wantErr)
		}
		if err == nil {
			for i := range x {
				if !sameValue(x[i], want[i]) {
					t.Fatalf("verified x[%d] = %v, reference %v", i, x[i], want[i])
				}
			}
		}
	})
}
