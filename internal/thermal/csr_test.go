package thermal

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"tecfan/internal/fan"
	"tecfan/internal/floorplan"
	"tecfan/internal/linalg"
)

// denseFromCond is the reference assembly the CSR replaced: a dense matrix
// that accumulates the conduction list entry by entry, then the fan leg at
// the sink, then C/dt on the diagonal when dt > 0.
func denseFromCond(nw *Network, cond []linalg.Coord, fanLevel int, dt float64) *linalg.Dense {
	g := linalg.NewDense(nw.n, nw.n)
	for _, c := range cond {
		g.Add(c.Row, c.Col, c.Val)
	}
	g.Add(nw.sinkNode, nw.sinkNode, nw.Fan.Conductance(fanLevel))
	if dt > 0 {
		for i := 0; i < nw.n; i++ {
			g.Add(i, i, nw.capn[i]/dt)
		}
	}
	return g
}

// denseScan returns d's nonzeros, row by row in ascending column order: the
// CSR a dense matrix was scanned into before the network assembled its own.
func denseScan(d *linalg.Dense) *linalg.CSR {
	rowPtr := make([]int, d.Rows+1)
	var cols []int
	var vals []float64
	for r := 0; r < d.Rows; r++ {
		for c, v := range d.Row(r) {
			if v != 0 {
				cols, vals = append(cols, c), append(vals, v)
			}
		}
		rowPtr[r+1] = len(vals)
	}
	return linalg.NewCSRFromRows(d.Rows, rowPtr, cols, vals)
}

func csrDiff(got, want *linalg.CSR) string {
	if got.N != want.N || len(got.RowPtr) != len(want.RowPtr) || len(got.Vals) != len(want.Vals) || len(got.ColIdx) != len(got.Vals) {
		return fmt.Sprintf("n=%d nnz=%d, want n=%d nnz=%d", got.N, len(got.Vals), want.N, len(want.Vals))
	}
	for i := range want.RowPtr {
		if got.RowPtr[i] != want.RowPtr[i] {
			return fmt.Sprintf("RowPtr[%d] = %d, want %d", i, got.RowPtr[i], want.RowPtr[i])
		}
	}
	for k := range want.Vals {
		if got.ColIdx[k] != want.ColIdx[k] || math.Float64bits(got.Vals[k]) != math.Float64bits(want.Vals[k]) {
			return fmt.Sprintf("entry %d = (col %d, %v), want (col %d, %v)", k, got.ColIdx[k], got.Vals[k], want.ColIdx[k], want.Vals[k])
		}
	}
	return ""
}

// doctoredNetwork returns an SCC16 network whose conduction list has one
// lateral coupling cancelled: the entries +g at (a, b) and (b, a) make that
// pair sum to exactly zero while the diagonals keep their g. It also
// returns the doctored list.
func doctoredNetwork(t *testing.T) (*Network, []linalg.Coord) {
	t.Helper()
	nw := NewNetwork(floorplan.NewSCC16(), fan.DynatronR16(), DefaultParams())
	cond := nw.assemble()
	for _, c := range cond {
		if c.Row != c.Col {
			cond = append(cond,
				linalg.Coord{Row: c.Row, Col: c.Col, Val: -c.Val},
				linalg.Coord{Row: c.Col, Col: c.Row, Val: -c.Val})
			nw.setConduction(cond)
			return nw, cond
		}
	}
	t.Fatal("no off-diagonal conduction entry")
	return nil, nil
}

// TestSystemCSRMatchesDenseAssembly: for every fan level, steady and at the
// sim's 100 µs step, the CSR the network assembles is bit for bit the
// nonzeros of the dense reference assembly, and the factor the network
// caches for it solves bit for bit like a factor of that dense scan, with
// the same condition estimate. It holds for the SCC16 network and for a
// doctored one where an assembled entry cancels to exactly zero, which the
// CSR must drop as the dense scan does. AssembleG and DiagG are the dense
// reference's too.
func TestSystemCSRMatchesDenseAssembly(t *testing.T) {
	plain := NewNetwork(floorplan.NewSCC16(), fan.DynatronR16(), DefaultParams())
	doctored, doctoredCond := doctoredNetwork(t)
	cases := []struct {
		name string
		nw   *Network
		cond []linalg.Coord
	}{
		{"scc16", plain, plain.assemble()},
		{"doctored", doctored, doctoredCond},
	}
	rng := rand.New(rand.NewSource(3))
	for _, c := range cases {
		nw := c.nw
		for f := 0; f < nw.Fan.NumLevels(); f++ {
			g := denseFromCond(nw, c.cond, f, 0)
			if i := sameBitsAt(nw.AssembleG(f).Data, g.Data); i >= 0 {
				t.Fatalf("%s: AssembleG(%d) entry %d = %v, reference %v", c.name, f, i, nw.AssembleG(f).Data[i], g.Data[i])
			}
			diag := nw.DiagG(f)
			for i := range diag {
				if math.Float64bits(diag[i]) != math.Float64bits(g.At(i, i)) {
					t.Fatalf("%s: DiagG(%d)[%d] = %v, reference %v", c.name, f, i, diag[i], g.At(i, i))
				}
			}
			for _, dt := range []float64{0, 100e-6} {
				name := fmt.Sprintf("%s/fan=%d/dt=%g", c.name, f, dt)
				want := denseScan(denseFromCond(nw, c.cond, f, dt))
				got := nw.SystemCSR(f, dt)
				if d := csrDiff(got, want); d != "" {
					t.Fatalf("%s: CSR differs from the dense scan: %s", name, d)
				}
				if c.name == "doctored" && got.NNZ() >= nw.cond.NNZ() {
					t.Fatalf("%s: %d entries stored, pattern %d: no entry dropped, the case checks nothing", name, got.NNZ(), nw.cond.NNZ())
				}
				var factor *linalg.VerifiedCholesky
				var err error
				if dt == 0 {
					factor, err = nw.steadyFactor(f)
				} else {
					var tr *Transient
					tr, err = nw.NewTransient(f, dt)
					if tr != nil {
						factor = tr.factor
					}
				}
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				ref, err := linalg.NewVerifiedCholesky(want, 0)
				if err != nil {
					t.Fatalf("%s: reference factor: %v", name, err)
				}
				if math.Float64bits(factor.Cond()) != math.Float64bits(ref.Cond()) {
					t.Fatalf("%s: Cond() = %v, reference %v", name, factor.Cond(), ref.Cond())
				}
				n := nw.n
				b, x, xr, r := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
				for trial := 0; trial < 50; trial++ {
					for i := range b {
						b[i] = 100 * rng.NormFloat64()
					}
					refined, err := factor.Solve(b, x, r)
					wantRefined, wantErr := ref.Solve(b, xr, r)
					if refined != wantRefined || err != nil || wantErr != nil {
						t.Fatalf("%s: (refined=%v, err=%v), reference (refined=%v, err=%v)", name, refined, err, wantRefined, wantErr)
					}
					if i := sameBitsAt(x, xr); i >= 0 {
						t.Fatalf("%s: x[%d] = %v, reference %v", name, i, x[i], xr[i])
					}
				}
			}
		}
	}
}

func sameBitsAt(a, b []float64) int {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// TestColdTransientAllocBound: the first NewTransient on a fresh SCC16
// network (its symbolic analysis, numeric factor, CSR and integrator
// scratch) allocates at most 300 KB. Assembling through a dense 305×305
// matrix cost about 1 MB.
func TestColdTransientAllocBound(t *testing.T) {
	const bound = 300 << 10
	chip, fm := floorplan.NewSCC16(), fan.DynatronR16()
	best := uint64(math.MaxUint64)
	for i := 0; i < 3; i++ {
		nw := NewNetwork(chip, fm, DefaultParams())
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		if _, err := nw.NewTransient(1, 100e-6); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&m1)
		best = min(best, m1.TotalAlloc-m0.TotalAlloc)
	}
	if best > bound {
		t.Fatalf("a cold NewTransient allocates %d B, want at most %d", best, bound)
	}
}
