package tecfan

// One benchmark per table and figure of the paper's evaluation (§V), plus
// micro-benchmarks for the controller's per-period cost (the overhead claim
// of §III-D/E). Run with:
//
//	go test -bench=. -benchmem
//
// The table/figure benchmarks execute the same drivers as cmd/tecfan-bench
// at a reduced instruction-budget scale per iteration; BENCH_SCALE-style
// tuning is deliberate (the paper's own runs are tens of milliseconds of
// simulated time, ours replay them faithfully but cost real CPU).

import (
	"io"
	"testing"

	"tecfan/internal/core"
	"tecfan/internal/exp"
	"tecfan/internal/fan"
	"tecfan/internal/floorplan"
	"tecfan/internal/linalg"
	"tecfan/internal/server"
	"tecfan/internal/sim"
	"tecfan/internal/thermal"
)

// benchScale trades fidelity for iteration speed in the testing.B loops.
const benchScale = 0.1

func benchEnv(b *testing.B) *System {
	b.Helper()
	sys, err := New(WithScale(benchScale))
	if err != nil {
		b.Fatal(err)
	}
	return sys
}

// BenchmarkTable1 regenerates the Table I base scenarios.
func BenchmarkTable1(b *testing.B) {
	sys := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := sys.Table1()
		if err != nil {
			b.Fatal(err)
		}
		WriteTable1(io.Discard, rows)
	}
}

// BenchmarkFig4 regenerates the §V-B Fan-only vs Fan+TEC comparison
// (Fig. 4 a, b, and c).
func BenchmarkFig4(b *testing.B) {
	sys := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cases, err := sys.Fig4()
		if err != nil {
			b.Fatal(err)
		}
		WriteFig4(io.Discard, cases)
	}
}

// BenchmarkFig5 regenerates the §V-C cooling-performance comparison
// (Fig. 5 a and b). Fig. 5 and Fig. 6 share runs; both writers execute.
func BenchmarkFig5(b *testing.B) {
	sys := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := sys.Fig56()
		if err != nil {
			b.Fatal(err)
		}
		WriteFig5(io.Discard, r)
	}
}

// BenchmarkFig6 regenerates the §V-D energy/performance comparison
// (Fig. 6 a–d).
func BenchmarkFig6(b *testing.B) {
	sys := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := sys.Fig56()
		if err != nil {
			b.Fatal(err)
		}
		WriteFig6(io.Discard, r)
	}
}

// BenchmarkFig7 regenerates the §V-E OFTEC/Oracle comparison on a 60 s
// trace slice per iteration (the full paper run is 600 s; see
// cmd/tecfan-bench).
func BenchmarkFig7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := Fig7(60)
		if err != nil {
			b.Fatal(err)
		}
		WriteFig7(io.Discard, rows)
	}
}

// BenchmarkHardwareCost regenerates the §III-E analysis.
func BenchmarkHardwareCost(b *testing.B) {
	sys := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := sys.HardwareCost()
		if err != nil {
			b.Fatal(err)
		}
		WriteHardwareCost(io.Discard, r)
	}
}

// --- micro-benchmarks for the §III-D/E overhead claims ---

// BenchmarkSteadySolve measures one Eq. (1) steady-state solve on the
// 16-core network — the inner operation of every model-based estimate.
func BenchmarkSteadySolve(b *testing.B) {
	chip := floorplan.NewSCC16()
	nw := thermal.NewNetwork(chip, fan.DynatronR16(), thermal.DefaultParams())
	p := make([]float64, nw.NumDie())
	for i, c := range chip.Components {
		p[i] = 120 * c.Area() / chip.Area()
	}
	t := make([]float64, nw.NumNodes())
	for i := range t {
		t[i] = 70
	}
	sc := nw.NewSteadyScratch()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := nw.SteadyInto(t, p, 0, nil, sc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSteadyBatch measures the block form of BenchmarkSteadySolve: a
// full block of linalg.BlockWidth candidates on the 16-core network, one
// lockstep fixed point per op, as the down-hill walk's per-core DVFS trials
// run it. It reports the cost per candidate; a warm block lease allocates
// nothing.
func BenchmarkSteadyBatch(b *testing.B) {
	chip := floorplan.NewSCC16()
	nw := thermal.NewNetwork(chip, fan.DynatronR16(), thermal.DefaultParams())
	p := make([]float64, nw.NumDie())
	for i, c := range chip.Components {
		p[i] = 120 * c.Area() / chip.Area()
	}
	// Warm-start every column at the solution, as BenchmarkSteadySolve's
	// reused vector is after its first op: one solve per candidate.
	warm, err := nw.Steady(p, 0, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blk := nw.LeaseSteadyBlock()
		for j := 0; j < linalg.BlockWidth; j++ {
			copy(blk.Power[j], p)
			copy(blk.T[j], warm)
		}
		nw.SteadyBatch(blk, linalg.BlockWidth, 0, nil)
		for _, err := range blk.Err {
			if err != nil {
				b.Fatal(err)
			}
		}
		nw.ReturnSteadyBlock(blk)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*linalg.BlockWidth), "ns/candidate")
}

// BenchmarkTransientStep measures one backward-Euler step of the 16-core
// network (the simulation inner loop).
func BenchmarkTransientStep(b *testing.B) {
	chip := floorplan.NewSCC16()
	nw := thermal.NewNetwork(chip, fan.DynatronR16(), thermal.DefaultParams())
	tr, err := nw.NewTransient(0, 100e-6)
	if err != nil {
		b.Fatal(err)
	}
	p := make([]float64, nw.NumDie())
	for i, c := range chip.Components {
		p[i] = 120 * c.Area() / chip.Area()
	}
	t := make([]float64, nw.NumNodes())
	for i := range t {
		t[i] = 70
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Step(t, p, nil)
	}
}

// BenchmarkSystolic measures the band mat-vec the §III-E hardware performs
// per core temperature evaluation (M=18 components).
func BenchmarkSystolic(b *testing.B) {
	chip := floorplan.NewSCC16()
	nw := thermal.NewNetwork(chip, fan.DynatronR16(), thermal.DefaultParams())
	m, err := core.NewCoreBandModel(nw, 0)
	if err != nil {
		b.Fatal(err)
	}
	x := make([]float64, len(floorplan.TileComponents()))
	q := make([]float64, len(floorplan.TileComponents()))
	for i := range x {
		x[i] = 70 + float64(i)
	}
	b.ReportMetric(float64(m.MACsPerEval), "MACs/eval")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.EvalTemp(x, q)
	}
}

// BenchmarkTECfanControl measures one lower-level control period of the
// TECfan heuristic on the 16-core system — the O(NL + N²M) walk whose low
// overhead is the paper's third contribution.
func BenchmarkTECfanControl(b *testing.B) {
	env := exp.NewEnv()
	est := core.NewEstimator(env.NW, env.DVFS, env.Leak, env.Fan, env.TECs, 2e-3)
	ctl := core.NewController(est)
	nComp := len(env.Chip.Components)
	nCores := env.Chip.NumCores()
	dyn := make([]float64, nComp)
	for i, c := range env.Chip.Components {
		dyn[i] = 100 * c.Area() / env.Chip.Area()
	}
	temps := make([]float64, env.NW.NumNodes())
	for i := range temps {
		temps[i] = 85
	}
	obs := makeObs(temps, dyn, nCores, env.DVFS.Max(), len(env.TECs), 88)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctl.Control(obs)
	}
}

// BenchmarkTECfanServerDecide measures one TECfan decision on the 4-core
// server — the complexity contrast the paper draws between O(M^N·2^N·F)
// exhaustive search (BenchmarkOracleDecide in internal/server) and the
// O(NL + N²M) heuristic.
func BenchmarkTECfanServerDecide(b *testing.B) {
	benchServerPolicy(b, server.TECfan{})
}

// helpers

func benchServerPolicy(b *testing.B, p server.Policy) {
	b.Helper()
	m := server.NewMachine()
	nCores := m.Chip.NumCores()
	temps := make([]float64, m.NW.NumNodes())
	for i := range temps {
		temps[i] = 75
	}
	st := &server.State{
		Temps:     temps,
		DVFS:      make([]int, nCores),
		Banks:     make([]bool, nCores),
		Demand:    []float64{0.5, 0.4, 0.6, 0.45},
		Backlog:   make([]float64, nCores),
		Threshold: m.Threshold,
	}
	for i := range st.DVFS {
		st.DVFS[i] = m.Platform.DVFS.Max()
	}
	// Warm the superposition-basis cache so the measurement reflects the
	// per-decision cost, not one-time setup.
	p.Decide(st, m)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Decide(st, m)
	}
}

func makeObs(temps, dyn []float64, nCores, maxLevel, nTECs int, threshold float64) *sim.Observation {
	ips := make([]float64, nCores)
	dvfs := make([]int, nCores)
	for i := 0; i < nCores; i++ {
		ips[i] = 1e9
		dvfs[i] = maxLevel
	}
	return &sim.Observation{
		Temps: temps, DynPower: dyn, CoreIPS: ips, DVFS: dvfs,
		TECOn: make([]bool, nTECs), Threshold: threshold,
	}
}

// BenchmarkAblation runs the knob ablation (one variant set on cholesky) —
// the design-choice study DESIGN.md calls out.
func BenchmarkAblation(b *testing.B) {
	sys := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, _, err := sys.Ablations("cholesky", nil)
		if err != nil {
			b.Fatal(err)
		}
		WriteAblation(io.Discard, "knob ablation", rows)
	}
}

// BenchmarkBandEstimatorEval measures the §III-E per-core evaluation — one
// band solve against frozen boundary sensors, the exact operation the
// priced systolic hardware performs per core per control period.
func BenchmarkBandEstimatorEval(b *testing.B) {
	env := exp.NewEnv()
	be, err := core.NewBandEstimator(env.NW)
	if err != nil {
		b.Fatal(err)
	}
	p := make([]float64, len(env.Chip.Components))
	for i, c := range env.Chip.Components {
		p[i] = 120 * c.Area() / env.Chip.Area()
	}
	temps := make([]float64, env.NW.NumNodes())
	for i := range temps {
		temps[i] = 75
	}
	out := make([]float64, len(floorplan.TileComponents()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := be.EvalCore(i%16, p, temps, out); err != nil {
			b.Fatal(err)
		}
	}
}
