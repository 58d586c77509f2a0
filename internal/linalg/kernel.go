package linalg

// The block solve's three inner loops, in Go. Each carries the BlockWidth
// columns of one row of a column-interleaved block and sums every column in
// the single-column loops' order: one product per term, subtracted (or
// added) in ascending term order, the pivot division last. They are the
// kernels on every architecture without an assembly version
// (kernel_other.go) and the bitwise reference the amd64 assembly
// (kernel_amd64.s) is tested against.

// blockForwardRowGo is one row of the forward substitution L·Y = B:
// xi[j] = (xi[j] − Σₖ row[k]·xs[k·w+j]) / d for every column j, where xs
// holds the len(row) solved rows the row's envelope reaches, contiguous.
//
//tecfan:hotpath
func blockForwardRowGo(xi *[BlockWidth]float64, row, xs []float64, d float64) {
	const w = BlockWidth
	xs = xs[:len(row)*w]
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

// blockBackRowGo is one row of the back substitution Lᵀ·X = Y:
// xi[j] = (xi[j] − Σₖ vals[k]·x[rows[k]·w+j]) / d for every column j.
//
//tecfan:hotpath
func blockBackRowGo(xi *[BlockWidth]float64, rows []int, vals, x []float64, d float64) {
	const w = BlockWidth
	vals = vals[:len(rows)]
	s0, s1, s2, s3, s4, s5, s6, s7 := xi[0], xi[1], xi[2], xi[3], xi[4], xi[5], xi[6], xi[7]
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
	xi[0], xi[1], xi[2], xi[3] = s0/d, s1/d, s2/d, s3/d
	xi[4], xi[5], xi[6], xi[7] = s4/d, s5/d, s6/d, s7/d
}

// blockResidualRowGo sets s[j] = Σₜ vals[t]·blk[cols[t]·w+j] for every
// column j, summed from +0 in ascending t: one row of A·X.
//
//tecfan:hotpath
func blockResidualRowGo(s *[BlockWidth]float64, cols []int, vals, blk []float64) {
	const w = BlockWidth
	vals = vals[:len(cols)]
	var s0, s1, s2, s3, s4, s5, s6, s7 float64
	for t, c := range cols {
		av := vals[t]
		xc := blk[c*w : c*w+w : c*w+w]
		s0 += av * xc[0]
		s1 += av * xc[1]
		s2 += av * xc[2]
		s3 += av * xc[3]
		s4 += av * xc[4]
		s5 += av * xc[5]
		s6 += av * xc[6]
		s7 += av * xc[7]
	}
	*s = [w]float64{s0, s1, s2, s3, s4, s5, s6, s7}
}
