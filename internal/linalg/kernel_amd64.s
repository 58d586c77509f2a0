#include "textflag.h"

// The block solve's inner loops in SSE2 (the amd64 baseline, GOAMD64=v1),
// bitwise the Go kernels in kernel.go. The BlockWidth = 8 columns of a row
// ride in four packed pairs, X0..X3. Every term is one MULPD followed by
// one SUBPD (ADDPD in the residual), in ascending term order, and the row
// ends with one DIVPD by the broadcast pivot; no FMA, no reassociation. A
// packed operation rounds each lane exactly as the scalar MULSD, SUBSD,
// ADDSD or DIVSD on the same operands under the same MXCSR, so each column
// keeps the scalar loop's bits. Loads are MOVUPD: a Go []float64 is only
// 8-byte aligned, and a packed memory operand would fault on it.

// func blockForwardRow(xi *[BlockWidth]float64, row []float64, xs []float64, d float64)
TEXT ·blockForwardRow(SB), NOSPLIT, $0-64
	MOVQ   xi+0(FP), DI
	MOVQ   row_base+8(FP), SI
	MOVQ   row_len+16(FP), CX
	MOVQ   xs_base+32(FP), DX
	MOVUPD 0(DI), X0
	MOVUPD 16(DI), X1
	MOVUPD 32(DI), X2
	MOVUPD 48(DI), X3
	TESTQ  CX, CX
	JEQ    fwddiv

fwdloop:
	MOVSD    (SI), X4
	UNPCKLPD X4, X4
	MOVUPD   0(DX), X5
	MOVUPD   16(DX), X6
	MOVUPD   32(DX), X7
	MOVUPD   48(DX), X8
	MULPD    X4, X5
	MULPD    X4, X6
	MULPD    X4, X7
	MULPD    X4, X8
	SUBPD    X5, X0
	SUBPD    X6, X1
	SUBPD    X7, X2
	SUBPD    X8, X3
	ADDQ     $8, SI
	ADDQ     $64, DX
	DECQ     CX
	JNE      fwdloop

fwddiv:
	MOVSD    d+56(FP), X4
	UNPCKLPD X4, X4
	DIVPD    X4, X0
	DIVPD    X4, X1
	DIVPD    X4, X2
	DIVPD    X4, X3
	MOVUPD   X0, 0(DI)
	MOVUPD   X1, 16(DI)
	MOVUPD   X2, 32(DI)
	MOVUPD   X3, 48(DI)
	RET

// func blockBackRow(xi *[BlockWidth]float64, rows []int, vals []float64, x []float64, d float64)
TEXT ·blockBackRow(SB), NOSPLIT, $0-88
	MOVQ   xi+0(FP), DI
	MOVQ   rows_base+8(FP), SI
	MOVQ   rows_len+16(FP), CX
	MOVQ   vals_base+32(FP), BX
	MOVQ   x_base+56(FP), DX
	MOVUPD 0(DI), X0
	MOVUPD 16(DI), X1
	MOVUPD 32(DI), X2
	MOVUPD 48(DI), X3
	TESTQ  CX, CX
	JEQ    backdiv

backloop:
	MOVQ     (SI), AX
	SHLQ     $6, AX
	ADDQ     DX, AX
	MOVSD    (BX), X4
	UNPCKLPD X4, X4
	MOVUPD   0(AX), X5
	MOVUPD   16(AX), X6
	MOVUPD   32(AX), X7
	MOVUPD   48(AX), X8
	MULPD    X4, X5
	MULPD    X4, X6
	MULPD    X4, X7
	MULPD    X4, X8
	SUBPD    X5, X0
	SUBPD    X6, X1
	SUBPD    X7, X2
	SUBPD    X8, X3
	ADDQ     $8, SI
	ADDQ     $8, BX
	DECQ     CX
	JNE      backloop

backdiv:
	MOVSD    d+80(FP), X4
	UNPCKLPD X4, X4
	DIVPD    X4, X0
	DIVPD    X4, X1
	DIVPD    X4, X2
	DIVPD    X4, X3
	MOVUPD   X0, 0(DI)
	MOVUPD   X1, 16(DI)
	MOVUPD   X2, 32(DI)
	MOVUPD   X3, 48(DI)
	RET

// func blockResidualRow(s *[BlockWidth]float64, cols []int, vals []float64, blk []float64)
TEXT ·blockResidualRow(SB), NOSPLIT, $0-80
	MOVQ  s+0(FP), DI
	MOVQ  cols_base+8(FP), SI
	MOVQ  cols_len+16(FP), CX
	MOVQ  vals_base+32(FP), BX
	MOVQ  blk_base+56(FP), DX
	XORPS X0, X0
	XORPS X1, X1
	XORPS X2, X2
	XORPS X3, X3
	TESTQ CX, CX
	JEQ   resstore

resloop:
	MOVQ     (SI), AX
	SHLQ     $6, AX
	ADDQ     DX, AX
	MOVSD    (BX), X4
	UNPCKLPD X4, X4
	MOVUPD   0(AX), X5
	MOVUPD   16(AX), X6
	MOVUPD   32(AX), X7
	MOVUPD   48(AX), X8
	MULPD    X4, X5
	MULPD    X4, X6
	MULPD    X4, X7
	MULPD    X4, X8
	ADDPD    X5, X0
	ADDPD    X6, X1
	ADDPD    X7, X2
	ADDPD    X8, X3
	ADDQ     $8, SI
	ADDQ     $8, BX
	DECQ     CX
	JNE      resloop

resstore:
	MOVUPD X0, 0(DI)
	MOVUPD X1, 16(DI)
	MOVUPD X2, 32(DI)
	MOVUPD X3, 48(DI)
	RET
