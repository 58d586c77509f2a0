package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestDenseAtSet(t *testing.T) {
	m := NewDense(3, 4)
	m.Set(1, 2, 5.5)
	if got := m.At(1, 2); got != 5.5 {
		t.Fatalf("At(1,2) = %v, want 5.5", got)
	}
	m.Add(1, 2, 0.5)
	if got := m.At(1, 2); got != 6 {
		t.Fatalf("after Add, At(1,2) = %v, want 6", got)
	}
	if m.At(0, 0) != 0 {
		t.Fatalf("untouched element not zero")
	}
}

func TestDenseFromRowsRagged(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on ragged rows")
		}
	}()
	DenseFromRows([][]float64{{1, 2}, {3}})
}

func TestIdentityMulVec(t *testing.T) {
	id := NewDense(4, 4)
	for i := 0; i < 4; i++ {
		id.Set(i, i, 1)
	}
	x := []float64{1, -2, 3, 4}
	y := make([]float64, 4)
	id.MulVec(x, y)
	for i := range x {
		if y[i] != x[i] {
			t.Fatalf("I·x mismatch at %d: %v vs %v", i, y[i], x[i])
		}
	}
}

func TestDenseMul(t *testing.T) {
	a := DenseFromRows([][]float64{{1, 2}, {3, 4}})
	b := DenseFromRows([][]float64{{5, 6}, {7, 8}})
	c := a.Mul(b)
	want := [][]float64{{19, 22}, {43, 50}}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if c.At(i, j) != want[i][j] {
				t.Fatalf("C[%d][%d] = %v, want %v", i, j, c.At(i, j), want[i][j])
			}
		}
	}
}

func TestTranspose(t *testing.T) {
	a := DenseFromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	at := a.Transpose()
	if at.Rows != 3 || at.Cols != 2 {
		t.Fatalf("transpose shape %dx%d", at.Rows, at.Cols)
	}
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			if a.At(i, j) != at.At(j, i) {
				t.Fatalf("transpose mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestVectorOps(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{4, 5, 6}
	if got := Dot(a, b); got != 32 {
		t.Fatalf("Dot = %v, want 32", got)
	}
	y := []float64{1, 1, 1}
	Axpy(2, a, y)
	want := []float64{3, 5, 7}
	for i := range y {
		if y[i] != want[i] {
			t.Fatalf("Axpy[%d] = %v, want %v", i, y[i], want[i])
		}
	}
	if got := Norm2([]float64{3, 4}); !almostEqual(got, 5, 1e-12) {
		t.Fatalf("Norm2 = %v, want 5", got)
	}
	v := []float64{2, -4}
	Scale(0.5, v)
	if v[0] != 1 || v[1] != -2 {
		t.Fatalf("Scale result %v", v)
	}
	Fill(v, 9)
	if v[0] != 9 || v[1] != 9 {
		t.Fatalf("Fill result %v", v)
	}
}

func TestNorm2Overflow(t *testing.T) {
	big := math.MaxFloat64 / 4
	got := Norm2([]float64{big, big})
	if math.IsInf(got, 0) || math.IsNaN(got) {
		t.Fatalf("Norm2 overflowed: %v", got)
	}
	want := big * math.Sqrt2
	if math.Abs(got-want)/want > 1e-12 {
		t.Fatalf("Norm2 = %v, want %v", got, want)
	}
}

func TestNorm2Zero(t *testing.T) {
	if got := Norm2([]float64{0, 0, 0}); got != 0 {
		t.Fatalf("Norm2 of zero vector = %v", got)
	}
}

// Property: (Aᵀ)ᵀ = A for random matrices.
func TestTransposeInvolution(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows, cols := 1+rng.Intn(8), 1+rng.Intn(8)
		a := NewDense(rows, cols)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
		}
		att := a.Transpose().Transpose()
		for i := range a.Data {
			if a.Data[i] != att.Data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: dot product is symmetric and linear in its first argument.
func TestDotBilinear(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(16)
		a := make([]float64, n)
		b := make([]float64, n)
		c := make([]float64, n)
		for i := 0; i < n; i++ {
			a[i], b[i], c[i] = rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()
		}
		if !almostEqual(Dot(a, b), Dot(b, a), 1e-9) {
			return false
		}
		ac := make([]float64, n)
		copy(ac, a)
		Axpy(1, c, ac) // ac = a + c
		return almostEqual(Dot(ac, b), Dot(a, b)+Dot(c, b), 1e-6*(1+math.Abs(Dot(a, b))+math.Abs(Dot(c, b))))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: A·(x+y) = A·x + A·y.
func TestMulVecLinear(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(10)
		a := NewDense(n, n)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
		}
		x := make([]float64, n)
		y := make([]float64, n)
		for i := 0; i < n; i++ {
			x[i], y[i] = rng.NormFloat64(), rng.NormFloat64()
		}
		xy := make([]float64, n)
		copy(xy, x)
		Axpy(1, y, xy)
		ax := make([]float64, n)
		ay := make([]float64, n)
		axy := make([]float64, n)
		a.MulVec(x, ax)
		a.MulVec(y, ay)
		a.MulVec(xy, axy)
		for i := 0; i < n; i++ {
			if !almostEqual(axy[i], ax[i]+ay[i], 1e-8*(1+math.Abs(axy[i]))) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMulVecShapePanics(t *testing.T) {
	a := NewDense(2, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("expected shape panic")
		}
	}()
	a.MulVec(make([]float64, 2), make([]float64, 2))
}
