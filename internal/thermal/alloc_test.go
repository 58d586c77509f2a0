package thermal

import (
	"testing"

	"tecfan/internal/linalg"
	"tecfan/internal/tec"
)

// Dynamic proofs of the hot-path allocation discipline (DESIGN.md §18) for
// the thermal substrate: the solvers the 2 ms loop leans on must be
// allocation-free once their factor caches and scratch are warm.

func TestTransientStepZeroAllocs(t *testing.T) {
	nw, p := benchNetwork16()
	tr, err := nw.NewTransient(0, 100e-6)
	if err != nil {
		t.Fatal(err)
	}
	temps := make([]float64, nw.NumNodes())
	for i := range temps {
		temps[i] = 70
	}
	for i := 0; i < 5; i++ {
		if err := tr.Step(temps, p, nil); err != nil {
			t.Fatal(err)
		}
	}
	var stepErr error
	allocs := testing.AllocsPerRun(100, func() {
		if err := tr.Step(temps, p, nil); err != nil {
			stepErr = err
		}
	})
	if stepErr != nil {
		t.Fatal(stepErr)
	}
	if allocs != 0 {
		t.Fatalf("Transient.Step allocates %.1f per call; the simulation inner loop must be allocation-free", allocs)
	}
}

func TestSteadyIntoZeroAllocs(t *testing.T) {
	nw, p := benchNetwork16()
	ts := tec.NewState(tec.Array(nw.Chip, tec.DefaultDevice()))
	for _, l := range ts.CoreDevices(5) {
		ts.Set(l, true)
	}
	ts.Advance(1)
	temps := make([]float64, nw.NumNodes())
	for i := range temps {
		temps[i] = 75
	}
	sc := nw.NewSteadyScratch()
	// Warm both factor-cache entries the alternation below touches.
	for i := 0; i < 4; i++ {
		if err := nw.SteadyInto(temps, p, i%2, ts, sc); err != nil {
			t.Fatal(err)
		}
	}
	var solveErr error
	i := 0
	allocs := testing.AllocsPerRun(100, func() {
		if err := nw.SteadyInto(temps, p, i%2, ts, sc); err != nil {
			solveErr = err
		}
		i++
	})
	if solveErr != nil {
		t.Fatal(solveErr)
	}
	if allocs != 0 {
		t.Fatalf("SteadyInto allocates %.1f per call with a warm factor cache; candidate evaluation must be allocation-free", allocs)
	}
}

// TestSteadyBatchZeroAllocs: a warm lease, block solve and return cycle
// allocates nothing; the free list keeps the block between batches.
func TestSteadyBatchZeroAllocs(t *testing.T) {
	nw, p := benchNetwork16()
	ts := engagedCores(nw)
	batch := func() error {
		b := nw.LeaseSteadyBlock()
		defer nw.ReturnSteadyBlock(b)
		for j := 0; j < linalg.BlockWidth; j++ {
			for i, v := range p {
				b.Power[j][i] = v * (0.6 + 0.1*float64(j))
			}
			linalg.Fill(b.T[j], 75)
		}
		nw.SteadyBatch(b, linalg.BlockWidth, 1, ts)
		for _, err := range b.Err {
			if err != nil {
				return err
			}
		}
		return nil
	}
	if err := batch(); err != nil {
		t.Fatal(err)
	}
	var solveErr error
	allocs := testing.AllocsPerRun(100, func() {
		if err := batch(); err != nil {
			solveErr = err
		}
	})
	if solveErr != nil {
		t.Fatal(solveErr)
	}
	if allocs != 0 {
		t.Fatalf("a warm SteadyBatch cycle allocates %.1f per batch", allocs)
	}
}
