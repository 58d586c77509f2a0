package linalg

import "math"

// Dense reference kernels for the tests: matrix construction and products
// that build test systems and check factors, and a pivoting LU that the band
// solvers are compared against. None of them runs on a product path.

// DenseFromRows builds a matrix from a slice of equal-length rows.
func DenseFromRows(rows [][]float64) *Dense {
	if len(rows) == 0 {
		panic("linalg: empty row set")
	}
	m := NewDense(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.Cols {
			panic("linalg: ragged rows")
		}
		copy(m.Data[i*m.Cols:(i+1)*m.Cols], r)
	}
	return m
}

// Mul returns M·B as a new matrix.
func (m *Dense) Mul(b *Dense) *Dense {
	if m.Cols != b.Rows {
		panic(ErrShape)
	}
	out := NewDense(m.Rows, b.Cols)
	for i := 0; i < m.Rows; i++ {
		arow := m.Row(i)
		orow := out.Row(i)
		for k, a := range arow {
			if a == 0 {
				continue
			}
			brow := b.Row(k)
			for j, bv := range brow {
				orow[j] += a * bv
			}
		}
	}
	return out
}

// Transpose returns Mᵀ.
func (m *Dense) Transpose() *Dense {
	t := NewDense(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			t.Set(j, i, m.At(i, j))
		}
	}
	return t
}

// MaxAbs returns the largest absolute entry.
func (m *Dense) MaxAbs() float64 {
	var mx float64
	for _, v := range m.Data {
		if a := math.Abs(v); a > mx {
			mx = a
		}
	}
	return mx
}

// LU holds an LU factorization with partial pivoting, P·A = L·U: the dense
// reference for the nonsymmetric band systems BandLU and VerifiedBandLU
// solve without pivoting.
type LU struct {
	n    int
	lu   *Dense
	piv  []int
	sign int
}

// NewLU factors the square matrix a with partial pivoting.
func NewLU(a *Dense) (*LU, error) {
	if a.Rows != a.Cols {
		return nil, ErrShape
	}
	n := a.Rows
	f := &LU{n: n, lu: a.Clone(), piv: make([]int, n), sign: 1}
	lu := f.lu
	for i := range f.piv {
		f.piv[i] = i
	}
	for col := 0; col < n; col++ {
		// Pivot: largest magnitude in this column at or below the diagonal.
		p := col
		mx := math.Abs(lu.At(col, col))
		for r := col + 1; r < n; r++ {
			if a := math.Abs(lu.At(r, col)); a > mx {
				mx, p = a, r
			}
		}
		if !finiteNonzero(mx) {
			return nil, ErrSingular
		}
		if p != col {
			ri, rp := lu.Row(col), lu.Row(p)
			for j := range ri {
				ri[j], rp[j] = rp[j], ri[j]
			}
			f.piv[col], f.piv[p] = f.piv[p], f.piv[col]
			f.sign = -f.sign
		}
		d := lu.At(col, col)
		for r := col + 1; r < n; r++ {
			m := lu.At(r, col) / d
			lu.Set(r, col, m)
			if m == 0 {
				continue
			}
			rrow, crow := lu.Row(r), lu.Row(col)
			for j := col + 1; j < n; j++ {
				rrow[j] -= m * crow[j]
			}
		}
	}
	return f, nil
}

// Solve computes x such that A·x = b. x must have length n; b is untouched
// unless x aliases it.
func (f *LU) Solve(b, x []float64) {
	if len(b) != f.n || len(x) != f.n {
		panic(ErrShape)
	}
	tmp := make([]float64, f.n)
	for i, p := range f.piv {
		tmp[i] = b[p]
	}
	lu := f.lu
	// Forward: L·y = P·b (unit diagonal).
	for i := 0; i < f.n; i++ {
		s := tmp[i]
		row := lu.Row(i)
		for k := 0; k < i; k++ {
			s -= row[k] * tmp[k]
		}
		tmp[i] = s
	}
	// Backward: U·x = y.
	for i := f.n - 1; i >= 0; i-- {
		s := tmp[i]
		row := lu.Row(i)
		for k := i + 1; k < f.n; k++ {
			s -= row[k] * tmp[k]
		}
		tmp[i] = s / row[i]
	}
	copy(x, tmp)
}

// Det returns the determinant of the factored matrix.
func (f *LU) Det() float64 {
	d := float64(f.sign)
	for i := 0; i < f.n; i++ {
		d *= f.lu.At(i, i)
	}
	return d
}

// N returns the system size.
func (f *LU) N() int { return f.n }
