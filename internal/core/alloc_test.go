package core

import (
	"math"
	"runtime"
	"testing"

	"tecfan/internal/testenv"
)

// These tests are the dynamic half of the hot-path allocation discipline
// (DESIGN.md §18): the analyzers prove the kernels clean statically, and
// AllocsPerRun proves the scratch reuse actually works at runtime.

// TestEstimateIntoZeroAllocs proves the per-candidate kernel of the
// down-hill walk is allocation-free once its caller's Estimate buffer has
// grown to size.
func TestEstimateIntoZeroAllocs(t *testing.T) {
	e := testenv.NewQuad()
	b := testenv.MiniBench(4, 3.0, 2)
	obs := obsFor(t, e, b, 100, 1)
	est := newEstimator(e)
	c := baseCandidate(e, obs)
	var r Estimate
	est.EstimateInto(&r, obs, c) // first-use growth
	allocs := testing.AllocsPerRun(100, func() {
		est.EstimateInto(&r, obs, c)
	})
	if allocs != 0 {
		t.Fatalf("EstimateInto allocates %.1f per call; candidate evaluation must be allocation-free", allocs)
	}
}

// TestControlSteadyStateZeroAllocs proves one full lower-level control
// period — candidate construction, the hot/cool iteration's trial loop,
// the decision — allocates nothing once the controller's scratch buffers
// are warm.
func TestControlSteadyStateZeroAllocs(t *testing.T) {
	e := testenv.NewQuad()
	b := testenv.MiniBench(4, 3.0, 2)
	obs := obsFor(t, e, b, 100, 1)
	est := newEstimator(e)
	ctl := NewController(est)
	for i := 0; i < 3; i++ {
		ctl.Control(obs) // warm the scratch candidates and estimates
	}
	allocs := testing.AllocsPerRun(100, func() {
		ctl.Control(obs)
	})
	if allocs != 0 {
		t.Fatalf("Control allocates %.1f per period in steady state", allocs)
	}
}

// TestSteadyPeakZeroAllocs covers the higher-level fan loop's estimator
// entry point.
func TestSteadyPeakZeroAllocs(t *testing.T) {
	e := testenv.NewQuad()
	b := testenv.MiniBench(4, 3.0, 2)
	obs := obsFor(t, e, b, 100, 1)
	est := newEstimator(e)
	c := baseCandidate(e, obs)
	est.SteadyPeak(obs, c)
	allocs := testing.AllocsPerRun(100, func() {
		est.SteadyPeak(obs, c)
	})
	if allocs != 0 {
		t.Fatalf("SteadyPeak allocates %.1f per call", allocs)
	}
}

// TestEstimatorTausMatchDenseG pins the RC constants of Eq. (5) bitwise to
// the ones read off the dense conductance matrix, and proves NewEstimator
// no longer builds that matrix: it allocates less than one n×n float64
// block per call (the dense G is 744 KB on the SCC16 network).
func TestEstimatorTausMatchDenseG(t *testing.T) {
	for _, e := range []*testenv.Env{testenv.NewQuad(), testenv.NewSCC16()} {
		est := newEstimator(e)
		nw := e.NW
		g := nw.AssembleG(0)
		for i := 0; i < nw.NumNodes(); i++ {
			gi := g.At(i, i)
			if gi <= 0 {
				gi = 1
			}
			tau := nw.Capacity(i) / gi
			if tau <= 0 {
				tau = 1e-4
			}
			if math.Float64bits(est.taus[i]) != math.Float64bits(tau) {
				t.Fatalf("%d nodes: tau[%d] = %v, dense-G path %v", nw.NumNodes(), i, est.taus[i], tau)
			}
		}

		const calls = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < calls; i++ {
			newEstimator(e)
		}
		runtime.ReadMemStats(&after)
		n := uint64(nw.NumNodes())
		if per := (after.TotalAlloc - before.TotalAlloc) / calls; per >= 8*n*n {
			t.Fatalf("%d nodes: NewEstimator allocates %d B per call, at least an n×n matrix (%d B)", n, per, 8*n*n)
		}
	}
}
