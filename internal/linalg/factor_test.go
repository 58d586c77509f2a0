package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// randomSPD builds a random SPD matrix A = BᵀB + n·I.
func randomSPD(rng *rand.Rand, n int) *Dense {
	b := NewDense(n, n)
	for i := range b.Data {
		b.Data[i] = rng.NormFloat64()
	}
	a := b.Transpose().Mul(b)
	for i := 0; i < n; i++ {
		a.Add(i, i, float64(n))
	}
	return a
}

// randomDiagDominant builds a strictly diagonally dominant (hence nonsingular)
// possibly-asymmetric matrix, like a conductance matrix with Peltier terms.
func randomDiagDominant(rng *rand.Rand, n int) *Dense {
	a := NewDense(n, n)
	for i := 0; i < n; i++ {
		var sum float64
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			v := rng.NormFloat64()
			a.Set(i, j, v)
			sum += math.Abs(v)
		}
		a.Set(i, i, sum+1+rng.Float64())
	}
	return a
}

func residual(a *Dense, x, b []float64) float64 {
	ax := make([]float64, len(b))
	a.MulVec(x, ax)
	var mx float64
	for i := range b {
		if d := math.Abs(ax[i] - b[i]); d > mx {
			mx = d
		}
	}
	return mx
}

func TestCholeskySolveKnown(t *testing.T) {
	// A = [[4,2],[2,3]], b = [10, 9] → x = [1.5, 2].
	a := DenseFromRows([][]float64{{4, 2}, {2, 3}})
	ch, err := NewCholesky(csrFromDense(a))
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 2)
	ch.Solve([]float64{10, 9}, x)
	if !almostEqual(x[0], 1.5, 1e-12) || !almostEqual(x[1], 2, 1e-12) {
		t.Fatalf("x = %v, want [1.5 2]", x)
	}
	if ch.N() != 2 {
		t.Fatalf("N() = %d", ch.N())
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := DenseFromRows([][]float64{{1, 2}, {2, 1}}) // eigenvalues 3, -1
	if _, err := NewCholesky(csrFromDense(a)); err != ErrNotSPD {
		t.Fatalf("err = %v, want ErrNotSPD", err)
	}
}

func TestCholeskyRejectsNonSquare(t *testing.T) {
	// A 2×3 matrix: row 0 stores column 2, outside a 2×2 system.
	if _, err := NewCholesky(csrFromDense(DenseFromRows([][]float64{{1, 0, 1}, {0, 1, 0}}))); err != ErrShape {
		t.Fatalf("err = %v, want ErrShape", err)
	}
	for name, a := range map[string]*CSR{
		"short RowPtr":     {N: 2, RowPtr: []int{0, 1}, ColIdx: []int{0}, Vals: []float64{1}},
		"unsorted columns": {N: 2, RowPtr: []int{0, 2, 3}, ColIdx: []int{1, 0, 1}, Vals: []float64{1, 2, 2}},
		"missing values":   {N: 2, RowPtr: []int{0, 1, 2}, ColIdx: []int{0, 1}, Vals: []float64{1}},
	} {
		if _, err := NewCholesky(a); err != ErrShape {
			t.Fatalf("%s: err = %v, want ErrShape", name, err)
		}
	}
}

func TestCholeskyFactorProduct(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := randomSPD(rng, 6)
	ch, err := NewCholesky(csrFromDense(a))
	if err != nil {
		t.Fatal(err)
	}
	l := profileL(ch)
	llt := l.Mul(l.Transpose())
	for i := 0; i < 6; i++ {
		for j := 0; j < 6; j++ {
			if !almostEqual(llt.At(i, j), a.At(i, j), 1e-8*a.MaxAbs()) {
				t.Fatalf("L·Lᵀ ≠ A at (%d,%d): %v vs %v", i, j, llt.At(i, j), a.At(i, j))
			}
		}
	}
}

// profileL expands the row-packed factor into a dense lower-triangular L.
func profileL(ch *Cholesky) *Dense {
	l := NewDense(ch.n, ch.n)
	for i := 0; i < ch.n; i++ {
		copy(l.Row(i)[ch.first[i]:i+1], ch.l[ch.off[i]:ch.off[i+1]])
	}
	return l
}

// A banded (profile) SPD matrix factors inside its envelope: L·Lᵀ = A,
// L is zero left of each row's first nonzero, and the Lᵀ rows the back
// substitution reads hold exactly L's below-diagonal nonzeros.
func TestCholeskyProfileFactor(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	const n = 40
	a := NewDense(n, n)
	for i := 0; i < n; i++ {
		a.Set(i, i, 4+rng.Float64())
		for _, k := range []int{i - 1, i - 3} {
			if k >= 0 && rng.Intn(3) > 0 {
				v := -rng.Float64()
				a.Set(i, k, v)
				a.Set(k, i, v)
			}
		}
	}
	ch, err := NewCholesky(csrFromDense(a))
	if err != nil {
		t.Fatal(err)
	}
	if len(ch.l) >= n*(n+1)/2 {
		t.Fatalf("profile storage %d entries, want fewer than the dense %d", len(ch.l), n*(n+1)/2)
	}
	l := profileL(ch)
	llt := l.Mul(l.Transpose())
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if !almostEqual(llt.At(i, j), a.At(i, j), 1e-12*a.MaxAbs()) {
				t.Fatalf("L·Lᵀ ≠ A at (%d,%d): %v vs %v", i, j, llt.At(i, j), a.At(i, j))
			}
		}
	}
	nnz := 0
	for i := 0; i < n; i++ {
		for k := 0; k < i; k++ {
			if l.At(i, k) != 0 {
				nnz++
			}
		}
	}
	for i := 0; i < n; i++ {
		prev := i
		for k := ch.utOff[i]; k < ch.utOff[i+1]; k++ {
			r := ch.utRow[k]
			if r <= prev || ch.utVal[k] == 0 || ch.utVal[k] != l.At(r, i) {
				t.Fatalf("Lᵀ row %d: row %d after %d, value %v, L = %v", i, r, prev, ch.utVal[k], l.At(r, i))
			}
			prev = r
		}
	}
	if stored := len(ch.utVal); stored != nnz {
		t.Fatalf("Lᵀ rows hold %d entries, L has %d below-diagonal nonzeros", stored, nnz)
	}
}

// Property: Cholesky solves random SPD systems to tight residual.
func TestCholeskySolveProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(20)
		a := randomSPD(rng, n)
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64() * 10
		}
		ch, err := NewCholesky(csrFromDense(a))
		if err != nil {
			return false
		}
		x := make([]float64, n)
		ch.Solve(b, x)
		return residual(a, x, b) < 1e-7*(1+a.MaxAbs())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestCholeskySolveInPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randomSPD(rng, 5)
	ch, _ := NewCholesky(csrFromDense(a))
	b := []float64{1, 2, 3, 4, 5}
	orig := append([]float64(nil), b...)
	ch.Solve(b, b) // aliased
	if residual(a, b, orig) > 1e-8 {
		t.Fatal("in-place solve produced wrong result")
	}
}

func TestLUSolveKnown(t *testing.T) {
	// Requires pivoting: zero on the initial diagonal.
	a := DenseFromRows([][]float64{{0, 1}, {2, 0}})
	lu, err := NewLU(a)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 2)
	lu.Solve([]float64{3, 4}, x) // x = [2, 3]
	if !almostEqual(x[0], 2, 1e-12) || !almostEqual(x[1], 3, 1e-12) {
		t.Fatalf("x = %v, want [2 3]", x)
	}
	if !almostEqual(lu.Det(), -2, 1e-12) {
		t.Fatalf("det = %v, want -2", lu.Det())
	}
	if lu.N() != 2 {
		t.Fatalf("N() = %d", lu.N())
	}
}

func TestLUSingular(t *testing.T) {
	a := DenseFromRows([][]float64{{1, 2}, {2, 4}})
	if _, err := NewLU(a); err != ErrSingular {
		t.Fatalf("err = %v, want ErrSingular", err)
	}
}

func TestLURejectsNonSquare(t *testing.T) {
	if _, err := NewLU(NewDense(3, 2)); err != ErrShape {
		t.Fatalf("err = %v, want ErrShape", err)
	}
}

// Property: LU solves random diagonally-dominant systems.
func TestLUSolveProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(20)
		a := randomDiagDominant(rng, n)
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64() * 10
		}
		lu, err := NewLU(a)
		if err != nil {
			return false
		}
		x := make([]float64, n)
		lu.Solve(b, x)
		return residual(a, x, b) < 1e-7*(1+a.MaxAbs())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: LU and Cholesky agree on SPD systems.
func TestLUCholeskyAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 10; trial++ {
		n := 3 + rng.Intn(10)
		a := randomSPD(rng, n)
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		ch, _ := NewCholesky(csrFromDense(a))
		lu, _ := NewLU(a)
		x1 := make([]float64, n)
		x2 := make([]float64, n)
		ch.Solve(b, x1)
		lu.Solve(b, x2)
		for i := 0; i < n; i++ {
			if !almostEqual(x1[i], x2[i], 1e-7*(1+math.Abs(x1[i]))) {
				t.Fatalf("n=%d disagree at %d: chol %v vs lu %v", n, i, x1[i], x2[i])
			}
		}
	}
}

func TestLUDetSign(t *testing.T) {
	a := DenseFromRows([][]float64{{2, 0}, {0, 3}})
	lu, _ := NewLU(a)
	if !almostEqual(lu.Det(), 6, 1e-12) {
		t.Fatalf("det = %v, want 6", lu.Det())
	}
}
