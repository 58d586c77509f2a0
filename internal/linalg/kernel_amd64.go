package linalg

// SSE2 versions of the Go kernels in kernel.go (kernel_amd64.s), bitwise
// equal to them. They trust their callers' bounds: len(xs) = len(row)·w,
// len(vals) ≥ len(rows) or len(cols), and every row or column index
// addressing a whole row of the block, which Cholesky.SolveBlock and
// VerifiedCholesky.blockResidual guarantee from the factor's and the
// CSR's validated structure.

//go:noescape
func blockForwardRow(xi *[BlockWidth]float64, row, xs []float64, d float64)

//go:noescape
func blockBackRow(xi *[BlockWidth]float64, rows []int, vals, x []float64, d float64)

//go:noescape
func blockResidualRow(s *[BlockWidth]float64, cols []int, vals, blk []float64)
