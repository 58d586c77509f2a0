//go:build !amd64

package linalg

// Without an assembly version the block solve runs the Go kernels.

func blockForwardRow(xi *[BlockWidth]float64, row, xs []float64, d float64) {
	blockForwardRowGo(xi, row, xs, d)
}

func blockBackRow(xi *[BlockWidth]float64, rows []int, vals, x []float64, d float64) {
	blockBackRowGo(xi, rows, vals, x, d)
}

func blockResidualRow(s *[BlockWidth]float64, cols []int, vals, blk []float64) {
	blockResidualRowGo(s, cols, vals, blk)
}
