package sim

import (
	"context"
	"math"
	"testing"

	"tecfan/internal/numguard"
)

// newTestStepLoop builds a fresh loop over the quad chip with TECs and the
// given controller, positioned at t=0.
func newTestStepLoop(t testing.TB, ctl Controller) *stepLoop {
	t.Helper()
	e := newEnv()
	b := testBench(2.0)
	r, err := NewRunner(e.config(b, 120), ctl)
	if err != nil {
		t.Fatal(err)
	}
	init, err := r.initialTemps()
	if err != nil {
		t.Fatal(err)
	}
	guard := numguard.New()
	s, err := r.newStepLoop(init, nil, nil, 0, math.Inf(1), nil, guard)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestStepZeroAllocs proves the acceptance criterion of the hot-path
// allocation discipline (DESIGN.md §18): the per-step simulation kernel —
// power evaluation, audited thermal step, instruction progress, metrics,
// observation accumulation — performs zero heap allocations in the
// fault-free steady state. The allocfree/scratchalias/hotcall analyzers
// keep this true statically; this test is the dynamic proof.
func TestStepZeroAllocs(t *testing.T) {
	s := newTestStepLoop(t, &noop{})
	ctx := context.Background()
	// Warm up through several control boundaries so every lazily grown
	// buffer has reached its steady size.
	for i := 0; i < 50; i++ {
		if err := s.step(); err != nil {
			t.Fatal(err)
		}
		if _, err := s.boundaries(ctx); err != nil {
			t.Fatal(err)
		}
	}
	var stepErr error
	allocs := testing.AllocsPerRun(200, func() {
		if err := s.step(); err != nil {
			stepErr = err
		}
	})
	if stepErr != nil {
		t.Fatal(stepErr)
	}
	if allocs != 0 {
		t.Fatalf("stepLoop.step allocates %.1f per call; the 2 ms control loop must be allocation-free", allocs)
	}
}

// TestBoundariesObservationReuse proves the boundary observation buffers
// are actually reused: across many control boundaries with a controller in
// the loop, per-boundary allocations stay bounded (the noop controller and
// the runner's own boundary path allocate nothing once warm).
func TestBoundariesObservationReuse(t *testing.T) {
	s := newTestStepLoop(t, &noop{})
	ctx := context.Background()
	for i := 0; i < 50; i++ {
		if err := s.step(); err != nil {
			t.Fatal(err)
		}
		if _, err := s.boundaries(ctx); err != nil {
			t.Fatal(err)
		}
	}
	var loopErr error
	allocs := testing.AllocsPerRun(50, func() {
		if err := s.step(); err != nil {
			loopErr = err
			return
		}
		if _, err := s.boundaries(ctx); err != nil {
			loopErr = err
		}
	})
	if loopErr != nil {
		t.Fatal(loopErr)
	}
	if allocs != 0 {
		t.Fatalf("step+boundaries allocates %.1f per iteration with a stateless controller; observation buffers are not being reused", allocs)
	}
}

// BenchmarkStep measures the per-step simulation kernel in isolation — the
// number the bench gate (scripts/bench_gate.sh) judges against the parent for
// the inner loop, allocs/op included.
func BenchmarkStep(b *testing.B) {
	s := newTestStepLoop(b, &noop{})
	ctx := context.Background()
	for i := 0; i < 50; i++ {
		if err := s.step(); err != nil {
			b.Fatal(err)
		}
		if _, err := s.boundaries(ctx); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.step(); err != nil {
			b.Fatal(err)
		}
	}
}
