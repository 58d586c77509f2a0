package linalg

import "sort"

// Coord is one (row, col, value) triplet used while assembling a sparse
// matrix.
type Coord struct {
	Row, Col int
	Val      float64
}

// CSR is a compressed-sparse-row matrix: row r holds the columns
// ColIdx[RowPtr[r]:RowPtr[r+1]], ascending, with their values in Vals. The
// thermal network assembles its systems straight into CSR and factors them
// with NewCholesky; the fine grid model solves its CSR with SolveCG.
type CSR struct {
	N       int // square dimension
	RowPtr  []int
	ColIdx  []int
	Vals    []float64
	diagIdx []int // index into Vals of each diagonal entry, -1 if absent

	// sym is the symbolic Cholesky analysis of the pattern, built by the
	// first NewCholesky on it and shared by every CSR made from this one
	// with WithValues. NewCSRFromRows sets it; a CSR from NewCSR or a
	// literal has none and is analysed afresh on every factor.
	sym *symbolic
}

// NewCSRFromRows wraps rows already in CSR form: rowPtr of length n+1 and,
// for each row, its column indices ascending in colIdx with their values
// in vals. The slices are kept, not copied, and must not be changed after.
func NewCSRFromRows(n int, rowPtr, colIdx []int, vals []float64) *CSR {
	m := &CSR{N: n, RowPtr: rowPtr, ColIdx: colIdx, Vals: vals, sym: new(symbolic)}
	m.indexDiag()
	return m
}

// WithValues returns the matrix with m's sparsity pattern and the values
// vals, one per stored entry in m's order. The two share the pattern and
// its symbolic Cholesky analysis, so factoring many matrices of one
// pattern analyses it once. vals is kept, not copied.
func (m *CSR) WithValues(vals []float64) *CSR {
	if len(vals) != len(m.ColIdx) {
		panic(ErrShape)
	}
	return &CSR{N: m.N, RowPtr: m.RowPtr, ColIdx: m.ColIdx, Vals: vals, diagIdx: m.diagIdx, sym: m.sym}
}

// symbolic returns the symbolic Cholesky analysis of m's pattern.
func (m *CSR) symbolic() *symbolic {
	s := m.sym
	if s == nil {
		s = new(symbolic)
		s.analyse(m)
		return s
	}
	s.once.Do(func() { s.analyse(m) })
	return s
}

// NewCSR builds an n×n CSR matrix from triplets. Duplicate (row, col) entries
// are summed, matching finite-difference assembly semantics.
func NewCSR(n int, items []Coord) *CSR {
	sorted := make([]Coord, len(items))
	copy(sorted, items)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Row != sorted[j].Row {
			return sorted[i].Row < sorted[j].Row
		}
		return sorted[i].Col < sorted[j].Col
	})
	m := &CSR{N: n, RowPtr: make([]int, n+1)}
	for i := 0; i < len(sorted); {
		j := i + 1
		v := sorted[i].Val
		for j < len(sorted) && sorted[j].Row == sorted[i].Row && sorted[j].Col == sorted[i].Col {
			v += sorted[j].Val
			j = j + 1
		}
		m.ColIdx = append(m.ColIdx, sorted[i].Col)
		m.Vals = append(m.Vals, v)
		m.RowPtr[sorted[i].Row+1]++
		i = j
	}
	for r := 0; r < n; r++ {
		m.RowPtr[r+1] += m.RowPtr[r]
	}
	m.indexDiag()
	return m
}

// indexDiag fills diagIdx from the assembled rows.
func (m *CSR) indexDiag() {
	n := m.N
	m.diagIdx = make([]int, n)
	for r := 0; r < n; r++ {
		m.diagIdx[r] = -1
		for k := m.RowPtr[r]; k < m.RowPtr[r+1]; k++ {
			if m.ColIdx[k] == r {
				m.diagIdx[r] = k
				break
			}
		}
	}
}

// NNZ returns the number of stored entries.
func (m *CSR) NNZ() int { return len(m.Vals) }

// At returns element (i, j); zero if not stored. O(row nnz).
func (m *CSR) At(i, j int) float64 {
	for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
		if m.ColIdx[k] == j {
			return m.Vals[k]
		}
	}
	return 0
}

// Diag returns the stored diagonal entry of row i (0 if absent).
func (m *CSR) Diag(i int) float64 {
	if k := m.diagIdx[i]; k >= 0 {
		return m.Vals[k]
	}
	return 0
}

// MulVec computes y = M·x serially. y must not alias x.
func (m *CSR) MulVec(x, y []float64) {
	if len(x) != m.N || len(y) != m.N {
		panic(ErrShape)
	}
	for r := 0; r < m.N; r++ {
		lo, hi := m.RowPtr[r], m.RowPtr[r+1]
		cols, vals := m.ColIdx[lo:hi], m.Vals[lo:hi]
		vals = vals[:len(cols)]
		var s float64
		for k, c := range cols {
			s += vals[k] * x[c]
		}
		y[r] = s
	}
}

// Dense expands the matrix to dense form (for factorization or debugging).
func (m *CSR) Dense() *Dense {
	d := NewDense(m.N, m.N)
	for r := 0; r < m.N; r++ {
		for k := m.RowPtr[r]; k < m.RowPtr[r+1]; k++ {
			d.Add(r, m.ColIdx[k], m.Vals[k])
		}
	}
	return d
}

// CGOptions configure the conjugate-gradient solver.
type CGOptions struct {
	MaxIter int     // 0 means 4·n
	Tol     float64 // relative residual target; 0 means 1e-10
}

// CGResult reports solver convergence.
type CGResult struct {
	Iterations int
	Residual   float64 // final relative residual ‖b−Ax‖/‖b‖
	Converged  bool
}

// SolveCG solves A·x = b for SPD A with Jacobi-preconditioned conjugate
// gradients. x is both the initial guess and the result.
func (m *CSR) SolveCG(b, x []float64, opt CGOptions) CGResult {
	if len(b) != m.N || len(x) != m.N {
		panic(ErrShape)
	}
	maxIter := opt.MaxIter
	if maxIter <= 0 {
		maxIter = 4 * m.N
	}
	tol := opt.Tol
	if tol <= 0 {
		tol = 1e-10
	}
	nb := Norm2(b)
	if nb == 0 {
		Fill(x, 0)
		return CGResult{Converged: true}
	}
	inv := make([]float64, m.N) // Jacobi preconditioner
	for i := range inv {
		d := m.Diag(i)
		if d == 0 {
			d = 1
		}
		inv[i] = 1 / d
	}
	r := make([]float64, m.N)
	z := make([]float64, m.N)
	p := make([]float64, m.N)
	ap := make([]float64, m.N)
	m.MulVec(x, r)
	for i := range r {
		r[i] = b[i] - r[i]
		z[i] = inv[i] * r[i]
	}
	copy(p, z)
	rz := Dot(r, z)
	res := CGResult{}
	for it := 0; it < maxIter; it++ {
		res.Iterations = it + 1
		m.MulVec(p, ap)
		den := Dot(p, ap)
		if den == 0 {
			break
		}
		alpha := rz / den
		Axpy(alpha, p, x)
		Axpy(-alpha, ap, r)
		rn := Norm2(r)
		res.Residual = rn / nb
		if res.Residual < tol {
			res.Converged = true
			return res
		}
		for i := range z {
			z[i] = inv[i] * r[i]
		}
		rzNew := Dot(r, z)
		beta := rzNew / rz
		rz = rzNew
		for i := range p {
			p[i] = z[i] + beta*p[i]
		}
	}
	return res
}
