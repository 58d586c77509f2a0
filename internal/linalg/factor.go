package linalg

import (
	"math"
	"sync"
)

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
//
// The factor is built in two parts. The symbolic part (first, off and the
// row structure of Lᵀ) depends only on A's sparsity pattern; it is
// computed once per pattern and shared by every matrix built on it (see
// CSR.WithValues). The numeric part (l and the values of Lᵀ) is computed
// per matrix.
//
// SolveBlock is the multi-column form: BlockWidth right-hand sides stored
// column-interleaved go through the factor together, each column summed in
// exactly Solve's order. The order contract is per column, so a block
// solve gives every column Solve's bits; what it changes is only that the
// columns' independent chains of subtractions overlap in the pipeline,
// where one solve is a single dependent chain.
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

// symbolic is the structure of the Cholesky factor of every matrix with one
// sparsity pattern: the envelope (first, off) and, for each column of L,
// the rows its envelope reaches (utOff, utRow, ascending). The columns'
// rows are the structure of Lᵀ whenever no entry inside the envelope
// factors to an exact zero, which is the common case; a factor that has
// such a zero builds its own Lᵀ rows (Cholesky.transpose), since the
// back substitution must skip it as the dense algorithm does.
type symbolic struct {
	once         sync.Once
	err          error // ErrShape for a malformed pattern
	first, off   []int
	utOff, utRow []int
}

// analyse fills s from a's pattern. Each row's columns must be ascending;
// an explicit zero counts as structure.
func (s *symbolic) analyse(a *CSR) {
	n := a.N
	if n < 0 || len(a.RowPtr) != n+1 || a.RowPtr[0] != 0 || len(a.ColIdx) != a.RowPtr[n] {
		s.err = ErrShape
		return
	}
	s.first = make([]int, n)
	s.off = make([]int, n+1)
	s.utOff = make([]int, n+1)
	for i := 0; i < n; i++ {
		if a.RowPtr[i+1] < a.RowPtr[i] {
			s.err = ErrShape
			return
		}
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			if c := a.ColIdx[k]; c < 0 || c >= n || (k > a.RowPtr[i] && c <= a.ColIdx[k-1]) {
				s.err = ErrShape
				return
			}
		}
		f := i
		if lo := a.RowPtr[i]; lo < a.RowPtr[i+1] && a.ColIdx[lo] < i {
			f = a.ColIdx[lo]
		}
		s.first[i] = f
		s.off[i+1] = s.off[i] + i + 1 - f
		for k := f; k < i; k++ {
			s.utOff[k+1]++
		}
	}
	for k := 0; k < n; k++ {
		s.utOff[k+1] += s.utOff[k]
	}
	// Scatter each row into the columns of its envelope. Rows are visited
	// in ascending order, so every column's rows arrive ascending; utOff[k]
	// serves as column k's cursor and is shifted back afterwards.
	s.utRow = make([]int, s.utOff[n])
	for i := 0; i < n; i++ {
		for k := s.first[i]; k < i; k++ {
			s.utRow[s.utOff[k]] = i
			s.utOff[k]++
		}
	}
	copy(s.utOff[1:], s.utOff[:n])
	s.utOff[0] = 0
}

// NewCholesky factors the SPD matrix a. It returns ErrNotSPD if a pivot is
// not strictly positive and ErrShape if a is not a well-formed square CSR
// with ascending columns in each row. Only a's lower triangle is read. The
// symbolic analysis of a's pattern is done on the first factor of any
// matrix with that pattern and reused after.
func NewCholesky(a *CSR) (*Cholesky, error) {
	s := a.symbolic()
	if s.err != nil {
		return nil, s.err
	}
	if len(a.Vals) != len(a.ColIdx) {
		return nil, ErrShape
	}
	n := a.N
	c := &Cholesky{n: n, first: s.first, off: s.off, l: make([]float64, s.off[n])}
	for i := 0; i < n; i++ {
		ri := c.l[c.off[i]:c.off[i+1]]
		fi := c.first[i]
		for k := a.RowPtr[i]; k < a.RowPtr[i+1] && a.ColIdx[k] <= i; k++ {
			ri[a.ColIdx[k]-fi] = a.Vals[k]
		}
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
		// The rows whose envelope reaches column j, ascending: every
		// other L[i][j] is outside row i's envelope and exactly zero.
		for _, i := range s.utRow[s.utOff[j]:s.utOff[j+1]] {
			fi := c.first[i]
			ri := c.l[c.off[i]:c.off[i+1]]
			lo := max(fi, fj)
			sum := ri[j-fi]
			li, lj := ri[lo-fi:j-fi], rj[lo-fj:j-fj]
			lj = lj[:len(li)]
			for k, v := range li {
				sum -= v * lj[k]
			}
			ri[j-fi] = sum * inv
		}
	}
	if c.envelopeHasZero() {
		c.transpose()
		return c, nil
	}
	c.utOff, c.utRow = s.utOff, s.utRow
	c.utVal = make([]float64, len(s.utRow))
	for k := 0; k < n; k++ {
		for p := s.utOff[k]; p < s.utOff[k+1]; p++ {
			i := s.utRow[p]
			c.utVal[p] = c.l[c.off[i]+k-c.first[i]]
		}
	}
	return c, nil
}

// envelopeHasZero reports whether any entry of L below the diagonal and
// inside the envelope is exactly zero.
func (c *Cholesky) envelopeHasZero() bool {
	for i := 0; i < c.n; i++ {
		for _, v := range c.l[c.off[i] : c.off[i+1]-1] {
			if v == 0 {
				return true
			}
		}
	}
	return false
}

// transpose builds the sparse rows of Lᵀ from the row-packed L, leaving out
// the exact zeros inside the envelope: one pass counts each column's
// nonzeros, a second scatters them. Rows are visited in ascending order,
// so each column's entries arrive in ascending row order.
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

// BlockWidth is the column count of SolveBlock: the number of independent
// right-hand sides one block solve carries through the factor together.
const BlockWidth = 8

// SolveBlock solves A·X = B for BlockWidth right-hand sides at once, in
// place. x holds them column-interleaved: x[i*BlockWidth+j] is entry i of
// column j, so len(x) must be n·BlockWidth. Every column is summed in
// exactly Solve's order (the same terms, ascending k, the same division by
// the pivot), so column j comes out bitwise Solve's solution of column j:
// the columns share the factor's loads and never mix with each other. A
// single solve is one chain of dependent subtractions; eight independent
// chains keep the floating-point pipeline busy instead.
//
//tecfan:hotpath
func (c *Cholesky) SolveBlock(x []float64) {
	const w = BlockWidth
	if len(x) != c.n*w {
		panic(ErrShape)
	}
	// Forward substitution L·Y = B over each packed row.
	for i := 0; i < c.n; i++ {
		row := c.l[c.off[i]:c.off[i+1]]
		d := row[len(row)-1]
		row = row[:len(row)-1]
		xs := x[c.first[i]*w : i*w]
		xs = xs[:len(row)*w]
		xi := x[i*w : i*w+w : i*w+w]
		s0, s1, s2, s3, s4, s5, s6, s7 := xi[0], xi[1], xi[2], xi[3], xi[4], xi[5], xi[6], xi[7]
		for k, v := range row {
			xk := xs[k*w : k*w+w : k*w+w]
			s0 -= v * xk[0]
			s1 -= v * xk[1]
			s2 -= v * xk[2]
			s3 -= v * xk[3]
			s4 -= v * xk[4]
			s5 -= v * xk[5]
			s6 -= v * xk[6]
			s7 -= v * xk[7]
		}
		xi[0], xi[1], xi[2], xi[3] = s0/d, s1/d, s2/d, s3/d
		xi[4], xi[5], xi[6], xi[7] = s4/d, s5/d, s6/d, s7/d
	}
	// Back substitution Lᵀ·X = Y over each sparse row of Lᵀ.
	for i := c.n - 1; i >= 0; i-- {
		xi := x[i*w : i*w+w : i*w+w]
		s0, s1, s2, s3, s4, s5, s6, s7 := xi[0], xi[1], xi[2], xi[3], xi[4], xi[5], xi[6], xi[7]
		lo, hi := c.utOff[i], c.utOff[i+1]
		rows, vals := c.utRow[lo:hi], c.utVal[lo:hi]
		vals = vals[:len(rows)]
		for k, r := range rows {
			v := vals[k]
			xr := x[r*w : r*w+w : r*w+w]
			s0 -= v * xr[0]
			s1 -= v * xr[1]
			s2 -= v * xr[2]
			s3 -= v * xr[3]
			s4 -= v * xr[4]
			s5 -= v * xr[5]
			s6 -= v * xr[6]
			s7 -= v * xr[7]
		}
		d := c.pivot(i)
		xi[0], xi[1], xi[2], xi[3] = s0/d, s1/d, s2/d, s3/d
		xi[4], xi[5], xi[6], xi[7] = s4/d, s5/d, s6/d, s7/d
	}
}

// N returns the system size.
func (c *Cholesky) N() int { return c.n }
