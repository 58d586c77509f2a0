package linalg

import "math"

// Cholesky holds the lower-triangular factor L of an SPD matrix A = L·Lᵀ.
// The thermal conductance matrix of a pure-resistance network is SPD once the
// ambient ground node is eliminated, so this is the default steady-state
// solver.
//
// The factor is stored in profile (envelope) form. Let first[i] be the
// first nonzero column of row i of A's lower triangle. By the envelope
// theorem L[i][k] is exactly zero for every k < first[i]: the fill-in of a
// Cholesky factorization never leaves A's row envelope. L is therefore kept
// row-packed over [first[i], i], and the elimination skips every product
// with a structural zero. On the 305-node SCC16 network that is 7 810
// nonzeros of L against 46 665 lower-triangle entries. A dense input has
// first[i] = 0 everywhere and factors with the plain dense loops.
//
// The back substitution reads L by columns, whose envelope is much wider
// than its nonzeros (each die column reaches down to its core's spreader
// row), so the nonzeros below the diagonal of each column of L are kept a
// second time as a sparse row of Lᵀ (row index + value, ascending). A
// forward and back substitution then cost O(nnz(L)).
//
// Every skipped term is a product with an exact zero, and the terms kept
// are summed in the dense algorithm's order (ascending k). For finite data
// subtracting a zero product leaves a nonzero sum unchanged, so pivots and
// solutions are bitwise those of the dense algorithm (only the sign of an
// exact zero could differ). The order is fixed on purpose: every simulated
// temperature, golden digest and committed result depends on these solves
// bit for bit, and a reordered sum would change them all.
type Cholesky struct {
	n     int
	first []int     // first nonzero column of row i of A's lower triangle
	off   []int     // row i of L is l[off[i] : off[i+1]], columns first[i]..i
	l     []float64 // row-packed L; each row ends with its pivot L[i][i]

	// Row i of Lᵀ below the diagonal: the nonzeros L[utRow[k]][i] = utVal[k]
	// for k in [utOff[i], utOff[i+1]), in ascending row order.
	utOff, utRow []int
	utVal        []float64
}

// NewCholesky factors the SPD matrix a. It returns ErrNotSPD if a pivot is
// not strictly positive. Only a's lower triangle is read.
func NewCholesky(a *Dense) (*Cholesky, error) {
	if a.Rows != a.Cols {
		return nil, ErrShape
	}
	n := a.Rows
	c := &Cholesky{n: n, first: make([]int, n), off: make([]int, n+1)}
	for i := 0; i < n; i++ {
		row := a.Row(i)[:i+1]
		f := i
		for k, v := range row {
			if v != 0 {
				f = k
				break
			}
		}
		c.first[i] = f
		c.off[i+1] = c.off[i] + i + 1 - f
	}
	c.l = make([]float64, c.off[n])
	for i := 0; i < n; i++ {
		copy(c.l[c.off[i]:c.off[i+1]], a.Row(i)[c.first[i]:i+1])
	}
	for j := 0; j < n; j++ {
		fj := c.first[j]
		rj := c.l[c.off[j]:c.off[j+1]]
		d := rj[j-fj]
		for _, v := range rj[:j-fj] {
			d -= v * v
		}
		if !finitePositive(d) {
			return nil, ErrNotSPD
		}
		d = math.Sqrt(d)
		rj[j-fj] = d
		inv := 1 / d
		for i := j + 1; i < n; i++ {
			fi := c.first[i]
			if fi > j {
				continue // L[i][j] is outside row i's envelope: exactly zero
			}
			ri := c.l[c.off[i]:c.off[i+1]]
			lo := max(fi, fj)
			s := ri[j-fi]
			li, lj := ri[lo-fi:j-fi], rj[lo-fj:j-fj]
			lj = lj[:len(li)]
			for k, v := range li {
				s -= v * lj[k]
			}
			ri[j-fi] = s * inv
		}
	}
	c.transpose()
	return c, nil
}

// transpose builds the sparse rows of Lᵀ from the row-packed L: one pass
// counts each column's nonzeros, a second scatters them. Rows are visited
// in ascending order, so each column's entries arrive in ascending row
// order.
func (c *Cholesky) transpose() {
	n := c.n
	c.utOff = make([]int, n+1)
	for k := 0; k < n; k++ {
		f := c.first[k]
		for r, v := range c.l[c.off[k] : c.off[k+1]-1] {
			if v != 0 {
				c.utOff[f+r+1]++
			}
		}
	}
	for i := 0; i < n; i++ {
		c.utOff[i+1] += c.utOff[i]
	}
	c.utRow = make([]int, c.utOff[n])
	c.utVal = make([]float64, c.utOff[n])
	next := append([]int(nil), c.utOff[:n]...) // per-column cursor
	for k := 0; k < n; k++ {
		f := c.first[k]
		for r, v := range c.l[c.off[k] : c.off[k+1]-1] {
			if v != 0 {
				i := f + r
				c.utRow[next[i]], c.utVal[next[i]] = k, v
				next[i]++
			}
		}
	}
}

// pivot returns L[i][i], the last entry of packed row i.
//
//tecfan:hotpath
func (c *Cholesky) pivot(i int) float64 { return c.l[c.off[i+1]-1] }

// Solve computes x such that A·x = b. b is not modified; x must have length n
// and may alias b.
func (c *Cholesky) Solve(b, x []float64) {
	if len(b) != c.n || len(x) != c.n {
		panic(ErrShape)
	}
	if &x[0] != &b[0] {
		copy(x, b)
	}
	// Forward substitution L·y = b over each packed row.
	for i := 0; i < c.n; i++ {
		row := c.l[c.off[i]:c.off[i+1]]
		d := row[len(row)-1]
		row = row[:len(row)-1]
		xs := x[c.first[i]:i]
		xs = xs[:len(row)]
		s := x[i]
		for k, v := range row {
			s -= v * xs[k]
		}
		x[i] = s / d
	}
	// Back substitution Lᵀ·x = y over each sparse row of Lᵀ.
	for i := c.n - 1; i >= 0; i-- {
		s := x[i]
		lo, hi := c.utOff[i], c.utOff[i+1]
		rows, vals := c.utRow[lo:hi], c.utVal[lo:hi]
		vals = vals[:len(rows)]
		for k, r := range rows {
			s -= vals[k] * x[r]
		}
		x[i] = s / c.pivot(i)
	}
}

// N returns the system size.
func (c *Cholesky) N() int { return c.n }

// LU holds an LU factorization with partial pivoting, P·A = L·U. It handles
// the mildly non-symmetric systems that arise when the Peltier term of an
// active TEC is folded into the conductance matrix.
type LU struct {
	n    int
	lu   *Dense
	piv  []int
	sign int
	// tmp is the permuted-rhs scratch for Solve, preallocated so per-step
	// solves stay allocation-free. Solve is therefore not safe for
	// concurrent use — same contract as the thermal.Network that owns it.
	tmp []float64
}

// NewLU factors the square matrix a with partial pivoting.
func NewLU(a *Dense) (*LU, error) {
	if a.Rows != a.Cols {
		return nil, ErrShape
	}
	n := a.Rows
	f := &LU{n: n, lu: a.Clone(), piv: make([]int, n), sign: 1, tmp: make([]float64, n)}
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
// unless x aliases it. Not safe for concurrent use (shared scratch).
func (f *LU) Solve(b, x []float64) {
	if len(b) != f.n || len(x) != f.n {
		panic(ErrShape)
	}
	tmp := f.tmp
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
