package thermal

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"tecfan/internal/fan"
	"tecfan/internal/floorplan"
	"tecfan/internal/tec"
)

func newTestNetwork(t *testing.T, chip *floorplan.Chip) *Network {
	t.Helper()
	return NewNetwork(chip, fan.DynatronR16(), DefaultParams())
}

// uniformPower spreads total watts over die components proportionally to area.
func uniformPower(nw *Network, total float64) []float64 {
	p := make([]float64, nw.NumDie())
	chipArea := nw.Chip.Area()
	for i, c := range nw.Chip.Components {
		p[i] = total * c.Area() / chipArea
	}
	return p
}

func TestGMatrixSymmetricSPD(t *testing.T) {
	nw := newTestNetwork(t, floorplan.NewQuad())
	for level := 0; level < nw.Fan.NumLevels(); level++ {
		g := nw.AssembleG(level)
		for i := 0; i < g.Rows; i++ {
			for j := 0; j < i; j++ {
				if math.Abs(g.At(i, j)-g.At(j, i)) > 1e-12 {
					t.Fatalf("G(fan=%d) not symmetric at (%d,%d)", level, i, j)
				}
			}
		}
		// Row sums must be ≥ 0, strictly positive only at the sink row
		// (the only node connected to ambient).
		for i := 0; i < nw.NumNodes(); i++ {
			var sum float64
			for j := 0; j < nw.NumNodes(); j++ {
				sum += g.At(i, j)
			}
			if i == nw.sinkNode {
				if sum <= 0 {
					t.Fatalf("sink row sum %v, want > 0", sum)
				}
			} else if math.Abs(sum) > 1e-9 {
				t.Fatalf("row %d sum %v, want 0 (pure conduction)", i, sum)
			}
		}
	}
}

func TestSteadyUniformOrdering(t *testing.T) {
	nw := newTestNetwork(t, floorplan.NewQuad())
	temps, err := nw.Steady(uniformPower(nw, 30), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	amb := nw.Params.AmbientC
	sink := temps[nw.sinkNode]
	if sink <= amb {
		t.Fatalf("sink %.2f °C not above ambient %.2f", sink, amb)
	}
	for core := 0; core < 4; core++ {
		sp := temps[nw.SpreaderNode(core)]
		if sp <= sink {
			t.Fatalf("spreader %d (%.2f) not above sink (%.2f)", core, sp, sink)
		}
		_, peak := nw.CorePeak(temps, core)
		if peak <= sp {
			t.Fatalf("core %d peak (%.2f) not above its spreader (%.2f)", core, peak, sp)
		}
	}
}

func TestSteadyEnergyBalance(t *testing.T) {
	nw := newTestNetwork(t, floorplan.NewQuad())
	total := 42.0
	temps, err := nw.Steady(uniformPower(nw, total), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	// All injected heat must leave through the sink: g_conv·(T_sink − T_amb).
	out := nw.Fan.Conductance(1) * (temps[nw.sinkNode] - nw.Params.AmbientC)
	if math.Abs(out-total)/total > 1e-6 {
		t.Fatalf("energy balance: in %.4f W, out %.4f W", total, out)
	}
}

func TestSteadyEnergyBalanceWithTEC(t *testing.T) {
	chip := floorplan.NewQuad()
	nw := newTestNetwork(t, chip)
	ts := tec.NewState(tec.Array(chip, tec.DefaultDevice()))
	for _, l := range ts.CoreDevices(0) {
		ts.Set(l, true)
	}
	ts.Advance(1) // past engagement
	total := 42.0
	temps, err := nw.Steady(uniformPower(nw, total), 1, ts)
	if err != nil {
		t.Fatal(err)
	}
	// Heat out = die power + Joule heat of the 9 active devices (the Peltier
	// pump only relocates heat; the model deposits the extracted heat plus
	// I²R on the spreader side).
	joule := float64(tec.DevicesPerCore) * tec.DefaultDevice().JouleHeat(tec.DriveCurrent)
	out := nw.Fan.Conductance(1) * (temps[nw.sinkNode] - nw.Params.AmbientC)
	want := total + joule
	if math.Abs(out-want)/want > 1e-4 {
		t.Fatalf("energy balance with TEC: out %.4f W, want %.4f W", out, want)
	}
}

func TestFanLevelMonotone(t *testing.T) {
	nw := newTestNetwork(t, floorplan.NewQuad())
	p := uniformPower(nw, 40)
	var prevPeak float64 = -1
	for level := 0; level < nw.Fan.NumLevels(); level++ {
		temps, err := nw.Steady(p, level, nil)
		if err != nil {
			t.Fatal(err)
		}
		_, peak := nw.PeakDie(temps)
		if peak <= prevPeak {
			t.Fatalf("slower fan level %d did not raise peak: %.2f vs %.2f", level, peak, prevPeak)
		}
		prevPeak = peak
	}
}

// Property: temperatures are monotone in injected power.
func TestSteadyMonotoneInPower(t *testing.T) {
	nw := newTestNetwork(t, floorplan.NewQuad())
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p1 := make([]float64, nw.NumDie())
		p2 := make([]float64, nw.NumDie())
		for i := range p1 {
			p1[i] = rng.Float64() * 0.3
			p2[i] = p1[i] + rng.Float64()*0.2 // p2 ≥ p1 everywhere
		}
		t1, err1 := nw.Steady(p1, 2, nil)
		t2, err2 := nw.Steady(p2, 2, nil)
		if err1 != nil || err2 != nil {
			return false
		}
		for i := range t1 {
			if t2[i] < t1[i]-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestTECCoolsHotCore(t *testing.T) {
	chip := floorplan.NewQuad()
	nw := newTestNetwork(t, chip)
	// Core 0 hot: all its power in the logic blocks; other cores idle.
	p := make([]float64, nw.NumDie())
	for _, i := range chip.CoreComponents(0) {
		c := chip.Components[i]
		if c.Kind == floorplan.KindLogic {
			p[i] = 6.0 * c.Area() / 3.0 // ≈ 6 W over the logic area
		}
	}
	base, err := nw.Steady(p, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, basePeak := nw.CorePeak(base, 0)

	ts := tec.NewState(tec.Array(chip, tec.DefaultDevice()))
	for _, l := range ts.CoreDevices(0) {
		ts.Set(l, true)
	}
	ts.Advance(1)
	cooled, err := nw.Steady(p, 1, ts)
	if err != nil {
		t.Fatal(err)
	}
	_, coolPeak := nw.CorePeak(cooled, 0)
	drop := basePeak - coolPeak
	if drop < 1.5 || drop > 30 {
		t.Fatalf("9 TECs dropped the hot-core peak by %.2f °C; want a few degrees", drop)
	}
	// The relocated heat warms the sink slightly.
	if cooled[nw.sinkNode] <= base[nw.sinkNode] {
		t.Fatal("TEC Joule heat should warm the sink")
	}
}

func TestUnengagedTECOnlyHeats(t *testing.T) {
	chip := floorplan.NewQuad()
	nw := newTestNetwork(t, chip)
	p := uniformPower(nw, 20)
	base, _ := nw.Steady(p, 1, nil)
	ts := tec.NewState(tec.Array(chip, tec.DefaultDevice()))
	for _, l := range ts.CoreDevices(0) {
		ts.Set(l, true)
	}
	// Do NOT advance past the engagement delay: devices draw power and
	// dissipate Joule heat but pump nothing.
	hot, err := nw.Steady(p, 1, ts)
	if err != nil {
		t.Fatal(err)
	}
	_, basePeak := nw.CorePeak(base, 0)
	_, hotPeak := nw.CorePeak(hot, 0)
	if hotPeak < basePeak {
		t.Fatalf("unengaged TECs cooled the core: %.3f < %.3f", hotPeak, basePeak)
	}
}

func TestTransientConvergesToSteady(t *testing.T) {
	chip := floorplan.NewQuad()
	nw := newTestNetwork(t, chip)
	p := uniformPower(nw, 35)
	steady, err := nw.Steady(p, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := nw.NewTransient(1, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	temps := make([]float64, nw.NumNodes())
	for i := range temps {
		temps[i] = nw.Params.AmbientC
	}
	// Integrate well past the sink time constant.
	for step := 0; step < 6000; step++ {
		tr.Step(temps, p, nil)
	}
	for i := range temps {
		if math.Abs(temps[i]-steady[i]) > 0.1 {
			t.Fatalf("node %d: transient %.3f vs steady %.3f", i, temps[i], steady[i])
		}
	}
}

func TestTransientMonotoneWarmup(t *testing.T) {
	chip := floorplan.NewQuad()
	nw := newTestNetwork(t, chip)
	p := uniformPower(nw, 35)
	tr, _ := nw.NewTransient(0, 0.01)
	temps := make([]float64, nw.NumNodes())
	for i := range temps {
		temps[i] = nw.Params.AmbientC
	}
	_, prev := nw.PeakDie(temps)
	for step := 0; step < 50; step++ {
		tr.Step(temps, p, nil)
		_, peak := nw.PeakDie(temps)
		if peak < prev-1e-9 {
			t.Fatalf("warm-up not monotone at step %d: %.4f < %.4f", step, peak, prev)
		}
		prev = peak
	}
}

func TestTransientBadDT(t *testing.T) {
	nw := newTestNetwork(t, floorplan.NewQuad())
	if _, err := nw.NewTransient(0, 0); err == nil {
		t.Fatal("expected error for dt=0")
	}
	if _, err := nw.NewTransient(0, -1); err == nil {
		t.Fatal("expected error for dt<0")
	}
}

func TestTransientFactorCacheReuse(t *testing.T) {
	nw := newTestNetwork(t, floorplan.NewQuad())
	a, err := nw.NewTransient(2, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	b, err := nw.NewTransient(2, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	if a.factor != b.factor || &a.capDt[0] != &b.capDt[0] {
		t.Fatal("transient factor or its C/dt not cached")
	}
	for i, c := range a.capDt {
		if math.Float64bits(c) != math.Float64bits(nw.Capacity(i)/0.001) {
			t.Fatalf("C/dt[%d] = %v, want %v", i, c, nw.Capacity(i)/0.001)
		}
	}
	c, _ := nw.NewTransient(3, 0.001)
	if c.factor == a.factor {
		t.Fatal("distinct fan levels must not share a factor")
	}
	if a.FanLevel() != 2 {
		t.Fatal("accessors wrong")
	}
}

func TestTECPowerEq9(t *testing.T) {
	chip := floorplan.NewQuad()
	nw := newTestNetwork(t, chip)
	ts := tec.NewState(tec.Array(chip, tec.DefaultDevice()))
	temps := make([]float64, nw.NumNodes())
	linFill(temps, 60)
	temps[nw.SpreaderNode(0)] = 65 // Δθ = 5 over core 0
	if got := nw.TECPower(temps, nil); got != 0 {
		t.Fatalf("nil state TEC power = %v", got)
	}
	if got := nw.TECPower(temps, ts); got != 0 {
		t.Fatalf("all-off TEC power = %v", got)
	}
	devs := ts.CoreDevices(0)
	ts.Set(devs[0], true)
	d := tec.DefaultDevice()
	want := d.Power(tec.DriveCurrent, 5)
	if got := nw.TECPower(temps, ts); math.Abs(got-want) > 1e-9 {
		t.Fatalf("TEC power = %v, want %v", got, want)
	}
	// Negative Δθ clamps to zero: power is pure Joule.
	temps[nw.SpreaderNode(0)] = 50
	if got := nw.TECPower(temps, ts); math.Abs(got-d.JouleHeat(tec.DriveCurrent)) > 1e-9 {
		t.Fatalf("TEC power with adverse Δθ = %v", got)
	}
}

func linFill(v []float64, x float64) {
	for i := range v {
		v[i] = x
	}
}

func TestRCInterp(t *testing.T) {
	// At dt → 0 the temperature stays put; at dt ≫ τ it reaches steady.
	if got := RCInterp(100, 50, 1.0, 1e-9); math.Abs(got-50) > 1e-6 {
		t.Fatalf("tiny step moved temperature to %v", got)
	}
	if got := RCInterp(100, 50, 1.0, 100); math.Abs(got-100) > 1e-6 {
		t.Fatalf("long step reached %v, want 100", got)
	}
	// One time constant covers 1 − 1/e of the gap.
	got := RCInterp(100, 50, 2.0, 2.0)
	want := 100 - 50*math.Exp(-1)
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("one-τ step = %v, want %v", got, want)
	}
}

// dieTimeConstant returns a representative die-node RC time constant:
// node capacity divided by its total conductance.
func dieTimeConstant(nw *Network, comp int) float64 {
	return nw.capn[comp] / nw.cond.Diag(comp)
}

func TestDieTimeConstantRange(t *testing.T) {
	nw := newTestNetwork(t, floorplan.NewQuad())
	for i := 0; i < nw.NumDie(); i++ {
		tau := dieTimeConstant(nw, i)
		// Die-node constants are sub-millisecond to a few ms, far below the
		// 2 ms control period — the basis for the paper's Eq. (5) usage.
		if tau <= 0 || tau > 0.05 {
			t.Fatalf("component %d time constant %.4g s implausible", i, tau)
		}
	}
}

func TestSCC16PeakInCalibratedRange(t *testing.T) {
	// With ~126 W concentrated in core logic (the cholesky-16 base
	// scenario), the peak at fan level 1 must land in the high-80s/low-90s
	// and clear 95 °C at fan level 2 minus a margin — the regime Table I
	// and Fig. 4 operate in. Full calibration against Table I lives in the
	// workload/exp packages; this is the thermal-stack sanity band.
	chip := floorplan.NewSCC16()
	nw := newTestNetwork(t, chip)
	p := make([]float64, nw.NumDie())
	perCore := 126.0 / 16
	for core := 0; core < 16; core++ {
		for _, i := range chip.CoreComponents(core) {
			c := chip.Components[i]
			switch c.Kind {
			case floorplan.KindLogic:
				p[i] = perCore * 0.55 * c.Area() / 3.0
			case floorplan.KindArray:
				p[i] = perCore * 0.35 * c.Area() / 5.155
			default:
				p[i] = perCore * 0.10 * c.Area() / 1.205
			}
		}
	}
	temps, err := nw.Steady(p, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, peak := nw.PeakDie(temps)
	if peak < 75 || peak > 100 {
		t.Fatalf("SCC16 base peak %.2f °C outside the calibration band", peak)
	}
	temps2, _ := nw.Steady(p, 1, nil)
	_, peak2 := nw.PeakDie(temps2)
	if peak2-peak < 1 || peak2-peak > 15 {
		t.Fatalf("fan level 1→2 peak delta %.2f °C outside the Fig. 4 band", peak2-peak)
	}
}

// The backward-Euler integrator must track the closed-form single-node RC
// response T(t) = Ts + (T0 − Ts)·e^(−t/τ) that the paper's Eq. (4)/(5)
// interpolation is built on. We validate on the sink node after the fast
// states have equilibrated: its trajectory is a single exponential with
// τ = C_sink/G_conv.
func TestTransientMatchesAnalyticRC(t *testing.T) {
	chip := floorplan.NewQuad()
	nw := newTestNetwork(t, chip)
	p := uniformPower(nw, 30)
	steady, err := nw.Steady(p, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	dt := 0.05
	tr, err := nw.NewTransient(1, dt)
	if err != nil {
		t.Fatal(err)
	}
	temps := make([]float64, nw.NumNodes())
	for i := range temps {
		temps[i] = nw.Params.AmbientC
	}
	// Let the die/spreader states settle (they are ~1000× faster).
	for i := 0; i < 40; i++ {
		tr.Step(temps, p, nil)
	}
	sink := nw.sinkNode
	t0 := temps[sink]
	ts := steady[sink]
	tau := nw.Fan.SinkCapacity / nw.Fan.Conductance(1)
	// March one time constant and compare against the exponential. The
	// backward-Euler discretization factor (1+dt/τ)^-n replaces e^(−t/τ);
	// at dt = τ/400 they differ by <0.2 %.
	steps := int(tau / dt)
	for i := 0; i < steps; i++ {
		tr.Step(temps, p, nil)
	}
	elapsed := float64(steps) * dt
	want := ts + (t0-ts)*math.Exp(-elapsed/tau)
	if math.Abs(temps[sink]-want) > 0.05*(ts-t0) {
		t.Fatalf("sink after 1τ: %.3f, analytic %.3f (T0=%.3f Ts=%.3f)", temps[sink], want, t0, ts)
	}
}

func TestSteadyFactorCachedPerFanLevel(t *testing.T) {
	nw := newTestNetwork(t, floorplan.NewQuad())
	p := uniformPower(nw, 20)
	// Two solves at the same level share the factorization (same result,
	// exercised via the cache map); a different level yields different
	// temperatures.
	t1, err := nw.Steady(p, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := nw.Steady(p, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range t1 {
		if t1[i] != t2[i] {
			t.Fatal("repeated steady solve not deterministic")
		}
	}
	t3, _ := nw.Steady(p, 3, nil)
	if t3[nw.sinkNode] <= t1[nw.sinkNode] {
		t.Fatal("slower fan level did not warm the sink")
	}
}

func TestAmbientShiftsEverything(t *testing.T) {
	chip := floorplan.NewQuad()
	p1 := DefaultParams()
	p2 := DefaultParams()
	p2.AmbientC = p1.AmbientC + 10
	nw1 := NewNetwork(chip, fan.DynatronR16(), p1)
	nw2 := NewNetwork(chip, fan.DynatronR16(), p2)
	pw := uniformPower(nw1, 25)
	t1, _ := nw1.Steady(pw, 1, nil)
	t2, _ := nw2.Steady(pw, 1, nil)
	// A pure-conduction network shifts rigidly with ambient (Peltier off).
	for i := range t1 {
		if math.Abs((t2[i]-t1[i])-10) > 1e-6 {
			t.Fatalf("node %d shifted by %.4f, want 10", i, t2[i]-t1[i])
		}
	}
}

func TestSteadyIntoWarmStartFewerIterations(t *testing.T) {
	chip := floorplan.NewQuad()
	nw := newTestNetwork(t, chip)
	ts := tec.NewState(tec.Array(chip, tec.DefaultDevice()))
	for _, l := range ts.CoreDevices(0) {
		ts.Set(l, true)
	}
	ts.Advance(1)
	p := uniformPower(nw, 30)
	cold, err := nw.Steady(p, 1, ts)
	if err != nil {
		t.Fatal(err)
	}
	// Warm start from the solution: SteadyInto must converge immediately
	// and leave the answer unchanged.
	warm := append([]float64(nil), cold...)
	if err := nw.SteadyInto(warm, p, 1, ts, nw.NewSteadyScratch()); err != nil {
		t.Fatal(err)
	}
	for i := range warm {
		// One Peltier refinement pass from the converged point moves the
		// solution by at most the fixed-point tolerance.
		if math.Abs(warm[i]-cold[i]) > 2e-3 {
			t.Fatalf("warm start drifted at node %d: %v vs %v", i, warm[i], cold[i])
		}
	}
}
