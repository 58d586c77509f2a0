// Package thermal implements the HotSpot-like compact thermal model the
// paper's models and experiments stand on (§III-A, §IV-B): a layered RC
// network over the chip floorplan with
//
//   - one die node per floorplan component (lateral silicon conduction
//     between edge-adjacent components, vertical conduction through silicon
//     and the TIM layer),
//   - one heat-spreader node per core tile (lateral copper spreading,
//     vertical conduction into the sink base),
//   - a single heat-sink node coupled to ambient through the fan-dependent
//     convective conductance.
//
// Active TECs embedded in the TIM layer add linear Peltier heat pumping
// between a die node and its core's spreader node plus resistive Joule heat
// (see package tec). The package offers the steady-state solve of Eq. (1),
// G·Ts = P, and a backward-Euler transient integrator that realizes Eq. (3);
// the paper's interpolation Eq. (5) is provided for the controller side.
//
// Temperatures are in °C; ambient is folded into the right-hand side.
package thermal

import (
	"fmt"
	"math"

	"tecfan/internal/fan"
	"tecfan/internal/floorplan"
	"tecfan/internal/linalg"
	"tecfan/internal/tec"
)

const mm = 1e-3 // metres per millimetre

// Params are the package/material constants of the thermal stack.
type Params struct {
	DieThickness    float64 // m
	DieConductivity float64 // W/(m·K)
	DieVolHeat      float64 // J/(m³·K)

	// DieCapScale multiplies the die node heat capacity to lump the on-die
	// metal stack and interface-material capacitance into the silicon node
	// (standard compact-model practice); it slows component transients to
	// the few-millisecond constants HotSpot exhibits without altering the
	// steady state.
	DieCapScale float64

	TIMThickness    float64 // m
	TIMConductivity float64 // W/(m·K); TEC film layer included

	SpreaderThickness    float64 // m
	SpreaderConductivity float64 // W/(m·K)
	SpreaderVolHeat      float64 // J/(m³·K)
	// SpreaderAreaScale is the ratio of effective spreader region area to
	// die tile area (the spreader overhangs the die).
	SpreaderAreaScale float64
	// RegionSinkConductance is the vertical conductance from one spreader
	// region into the sink base, W/K (includes constriction).
	RegionSinkConductance float64
	// SpreaderLateralScale multiplies the geometric lateral conductance
	// between adjacent spreader regions (accounts for overhang paths).
	SpreaderLateralScale float64

	AmbientC float64 // in-case ambient air temperature, °C
}

// DefaultParams returns the calibrated stack used in all experiments. The
// values reproduce the paper's Table I base-scenario temperatures within a
// few degrees given the calibrated workload power maps.
func DefaultParams() Params {
	return Params{
		DieThickness:    0.15 * mm,
		DieConductivity: 100, // silicon near 80 °C
		DieVolHeat:      1.75e6,
		DieCapScale:     5.0,

		TIMThickness:    0.020 * mm,
		TIMConductivity: 1.33, // grease with embedded TEC films

		SpreaderThickness:     1.0 * mm,
		SpreaderConductivity:  400, // copper
		SpreaderVolHeat:       3.4e6,
		SpreaderAreaScale:     4.0,
		RegionSinkConductance: 5.0,
		SpreaderLateralScale:  2.0,

		AmbientC: 45,
	}
}

// Network is the assembled RC network for one chip and fan model.
type Network struct {
	Chip   *floorplan.Chip
	Fan    *fan.Model
	Params Params

	n            int
	spreaderBase int // first spreader node
	sinkNode     int

	// Conduction graph, excluding the fan-dependent sink→ambient leg.
	cond []linalg.Coord // off-diagonal −g and diagonal +g entries
	capn []float64      // per-node heat capacity, J/K

	// Cached factors are the verified kind: every solve through them is
	// residual-checked, refined once when degraded, and refused with a
	// typed linalg.NumError rather than returning garbage temperatures.
	steadyCache    map[int]*linalg.VerifiedCholesky
	transientCache map[transientKey]*linalg.VerifiedCholesky

	// Fixed-point scratch for SteadyInto, preallocated so per-candidate
	// steady solves stay allocation-free. The Network is already not safe
	// for concurrent use (shared factor caches); the scratch keeps that
	// contract rather than tightening it.
	steadyRHS  []float64
	steadyNext []float64
}

type transientKey struct {
	fanLevel int
	dtNanos  int64
}

// NewNetwork assembles the network for a chip. The fan model supplies the
// convective conductance per speed level and the sink capacity.
func NewNetwork(chip *floorplan.Chip, fm *fan.Model, p Params) *Network {
	nc := len(chip.Components)
	cores := chip.NumCores()
	nw := &Network{
		Chip:           chip,
		Fan:            fm,
		Params:         p,
		n:              nc + cores + 1,
		spreaderBase:   nc,
		sinkNode:       nc + cores,
		capn:           make([]float64, nc+cores+1),
		steadyCache:    map[int]*linalg.VerifiedCholesky{},
		transientCache: map[transientKey]*linalg.VerifiedCholesky{},
		steadyRHS:      make([]float64, nc+cores+1),
		steadyNext:     make([]float64, nc+cores+1),
	}
	nw.assemble()
	return nw
}

// addCond appends a symmetric conductance g between nodes a and b.
func (nw *Network) addCond(a, b int, g float64) {
	nw.cond = append(nw.cond,
		linalg.Coord{Row: a, Col: a, Val: g},
		linalg.Coord{Row: b, Col: b, Val: g},
		linalg.Coord{Row: a, Col: b, Val: -g},
		linalg.Coord{Row: b, Col: a, Val: -g},
	)
}

func (nw *Network) assemble() {
	p := nw.Params
	chip := nw.Chip

	// Lateral die conduction between edge-adjacent components:
	// g = k_si · t_die · L_shared / d_centroid.
	for _, e := range chip.Adjacency() {
		a, b := chip.Components[e.A], chip.Components[e.B]
		dx := a.CenterX() - b.CenterX()
		dy := a.CenterY() - b.CenterY()
		d := math.Hypot(dx, dy) * mm
		if d <= 0 {
			continue
		}
		g := p.DieConductivity * p.DieThickness * (e.Length * mm) / d
		nw.addCond(e.A, e.B, g)
	}

	// Vertical die → spreader region through silicon + TIM, per component.
	rVert := p.DieThickness/p.DieConductivity + p.TIMThickness/p.TIMConductivity // K·m²/W
	for i, c := range chip.Components {
		area := c.Area() * mm * mm
		nw.addCond(i, nw.SpreaderNode(c.Core), area/rVert)
		nw.capn[i] = p.DieVolHeat * area * p.DieThickness * p.DieCapScale
	}

	// Spreader regions: lateral copper conduction between adjacent tiles and
	// vertical conduction into the sink.
	tileArea := floorplan.TileW * floorplan.TileH * mm * mm
	for core := 0; core < chip.NumCores(); core++ {
		row := core / chip.TileCols
		col := core % chip.TileCols
		sp := nw.SpreaderNode(core)
		nw.capn[sp] = p.SpreaderVolHeat * tileArea * p.SpreaderAreaScale * p.SpreaderThickness
		nw.addCond(sp, nw.sinkNode, p.RegionSinkConductance)
		// Right neighbour.
		if col+1 < chip.TileCols {
			l := floorplan.TileH * mm
			d := floorplan.TileW * mm
			g := p.SpreaderConductivity * p.SpreaderThickness * l / d * p.SpreaderLateralScale
			nw.addCond(sp, nw.SpreaderNode(core+1), g)
		}
		// Down neighbour.
		if row+1 < chip.TileRows {
			l := floorplan.TileW * mm
			d := floorplan.TileH * mm
			g := p.SpreaderConductivity * p.SpreaderThickness * l / d * p.SpreaderLateralScale
			nw.addCond(sp, nw.SpreaderNode(core+chip.TileCols), g)
		}
	}
	nw.capn[nw.sinkNode] = nw.Fan.SinkCapacity
}

// NumNodes returns the total node count.
func (nw *Network) NumNodes() int { return nw.n }

// NumDie returns the number of die (component) nodes.
func (nw *Network) NumDie() int { return nw.spreaderBase }

// DieNode returns the node index of floorplan component comp (identity).
func (nw *Network) DieNode(comp int) int { return comp }

// SpreaderNode returns the node index of core's spreader region.
func (nw *Network) SpreaderNode(core int) int { return nw.spreaderBase + core }

// SinkNode returns the heat-sink node index.
func (nw *Network) SinkNode() int { return nw.sinkNode }

// Capacity returns the heat capacity of node i (J/K).
func (nw *Network) Capacity(i int) float64 { return nw.capn[i] }

// AssembleG builds the dense conductance matrix Ĝ of Eq. (1) for a fan
// level, without TEC terms (those are linear-in-T source terms handled by
// the solvers). Exposed for tests and for the controller's model extraction.
func (nw *Network) AssembleG(fanLevel int) *linalg.Dense {
	g := linalg.NewDense(nw.n, nw.n)
	for _, c := range nw.cond {
		g.Add(c.Row, c.Col, c.Val)
	}
	g.Add(nw.sinkNode, nw.sinkNode, nw.Fan.Conductance(fanLevel))
	return g
}

// DiagG returns the diagonal of AssembleG(fanLevel) without building the
// dense matrix. Entries are summed in the same order AssembleG sums them
// (the conduction graph's order, then the fan leg at the sink), so the
// values are bitwise AssembleG's.
func (nw *Network) DiagG(fanLevel int) []float64 {
	d := make([]float64, nw.n)
	for _, c := range nw.cond {
		if c.Row == c.Col {
			d[c.Row] += c.Val
		}
	}
	d[nw.sinkNode] += nw.Fan.Conductance(fanLevel)
	return d
}

// TransientMatrix builds the dense backward-Euler system matrix C/dt + Ĝ
// that NewTransient factors for a fan level and time step.
func (nw *Network) TransientMatrix(fanLevel int, dt float64) *linalg.Dense {
	m := nw.AssembleG(fanLevel)
	for i := 0; i < nw.n; i++ {
		m.Add(i, i, nw.capn[i]/dt)
	}
	return m
}

// steadyFactor returns the cached verified Cholesky factor of G(fanLevel).
func (nw *Network) steadyFactor(fanLevel int) (*linalg.VerifiedCholesky, error) {
	if f, ok := nw.steadyCache[fanLevel]; ok {
		return f, nil
	}
	f, err := linalg.NewVerifiedCholesky(nw.AssembleG(fanLevel), 0)
	if err != nil {
		return nil, fmt.Errorf("thermal: factoring G(fan=%d): %w", fanLevel, err)
	}
	nw.steadyCache[fanLevel] = f
	return f, nil
}

// peltierRHS adds the TEC source terms for the given temperature estimate to
// rhs: Peltier extraction at covered die nodes, deposition at the core
// spreader node, and the split Joule heat. Only engaged devices pump; all
// switched-on devices dissipate Joule heat.
func (nw *Network) peltierRHS(rhs, t []float64, ts *tec.State) {
	if ts == nil {
		return
	}
	for l := 0; l < ts.Len(); l++ {
		i := ts.Current(l)
		if i <= 0 {
			continue
		}
		p := ts.Placement(l)
		sp := nw.SpreaderNode(p.Core)
		joule := p.Device.JouleHeat(i)
		rhs[sp] += 0.5 * joule
		pump := ts.Engaged(l)
		// CoverList, not the Cover map: rhs[sp] accumulates across covered
		// components, and map-order float sums are not reproducible.
		for _, ce := range p.CoverList {
			comp, frac := ce.Comp, ce.Frac
			rhs[comp] += 0.5 * joule * frac
			if pump {
				q := p.Device.PumpCoefficient(i) * frac * (t[comp] + 273.15)
				rhs[comp] -= q
				rhs[sp] += q
			}
		}
	}
}

// baseRHS fills rhs with die power plus the ambient source at the sink. A
// wrong-length power vector is a model-construction defect reported as a
// structured error, not a panic: the sim boundary turns it into a failed
// run instead of a crashed process.
func (nw *Network) baseRHS(rhs, power []float64, fanLevel int) error {
	if len(power) != nw.NumDie() {
		//lint:tecfan-ignore allocfree -- model-construction defect path: formats the diagnosis at most once per failed run
		return fmt.Errorf("thermal: power vector length %d, want %d", len(power), nw.NumDie()) //lint:tecfan-ignore hotcall -- defect path: fmt runs at most once per failed run
	}
	linalg.Fill(rhs, 0)
	copy(rhs, power)
	rhs[nw.sinkNode] += nw.Fan.Conductance(fanLevel) * nw.Params.AmbientC
	return nil
}

// steadyTol is the fixed-point convergence tolerance (°C) for the Peltier
// source iteration.
const steadyTol = 1e-3

// Steady solves Eq. (1) for the steady-state temperature vector (°C). The
// TEC Peltier terms, linear in T, are converged by a short fixed-point
// iteration (they are small relative to the conduction terms, so 2–4 rounds
// suffice). ts may be nil for a TEC-less solve.
func (nw *Network) Steady(power []float64, fanLevel int, ts *tec.State) ([]float64, error) {
	t := make([]float64, nw.n)
	linalg.Fill(t, nw.Params.AmbientC)
	if err := nw.SteadyInto(t, power, fanLevel, ts); err != nil {
		return nil, err
	}
	return t, nil
}

// SteadyInto is Steady with a caller-provided initial guess/output vector,
// enabling warm starts across control periods.
func (nw *Network) SteadyInto(t, power []float64, fanLevel int, ts *tec.State) error {
	f, err := nw.steadyFactor(fanLevel)
	if err != nil {
		return err
	}
	rhs, next := nw.steadyRHS, nw.steadyNext
	for iter := 0; iter < 50; iter++ {
		if err := nw.baseRHS(rhs, power, fanLevel); err != nil {
			return err
		}
		nw.peltierRHS(rhs, t, ts)
		if _, err := f.Solve(rhs, next); err != nil {
			//lint:tecfan-ignore allocfree -- solver refusal path: formats the diagnosis at most once per rejected solve
			return fmt.Errorf("thermal: steady solve (fan=%d): %w", fanLevel, err) //lint:tecfan-ignore hotcall -- refusal path: fmt runs at most once per rejected solve
		}
		var delta float64
		for i := range t {
			if d := math.Abs(next[i] - t[i]); d > delta {
				delta = d
			}
		}
		copy(t, next)
		if delta < steadyTol {
			return nil
		}
	}
	//lint:tecfan-ignore allocfree -- non-convergence refusal path: formats the diagnosis at most once per failed solve
	return fmt.Errorf("thermal: Peltier fixed point did not converge") //lint:tecfan-ignore hotcall -- refusal path: fmt runs at most once per failed solve
}

// Transient is a backward-Euler integrator with a fixed fan level and step.
type Transient struct {
	nw       *Network
	fanLevel int
	dt       float64
	factor   *linalg.VerifiedCholesky
	rhs      []float64
	next     []float64
	// refines counts iterative-refinement steps the verified solve needed,
	// per Transient instance (the factor cache is shared across instances,
	// so the counter cannot live there without leaking across runs).
	refines int
}

// NewTransient factors (C/dt + G) for the given fan level and time step.
// Refactorization happens only when the fan level changes, matching the
// paper's observation that fan actuation is orders of magnitude slower than
// TEC/DVFS actuation.
func (nw *Network) NewTransient(fanLevel int, dt float64) (*Transient, error) {
	if dt <= 0 {
		return nil, fmt.Errorf("thermal: non-positive dt %v", dt)
	}
	key := transientKey{fanLevel: fanLevel, dtNanos: int64(dt * 1e9)}
	f, ok := nw.transientCache[key]
	if !ok {
		var err error
		f, err = linalg.NewVerifiedCholesky(nw.TransientMatrix(fanLevel, dt), 0)
		if err != nil {
			return nil, fmt.Errorf("thermal: factoring transient matrix: %w", err)
		}
		nw.transientCache[key] = f
	}
	return &Transient{
		nw:       nw,
		fanLevel: fanLevel,
		dt:       dt,
		factor:   f,
		rhs:      make([]float64, nw.n),
		next:     make([]float64, nw.n),
	}, nil
}

// DT returns the integration step in seconds.
func (tr *Transient) DT() float64 { return tr.dt }

// FanLevel returns the fan level the integrator was factored for.
func (tr *Transient) FanLevel() int { return tr.fanLevel }

// Step advances t (in place) by one dt with the given die power vector and
// TEC state. Peltier terms use the pre-step temperatures (semi-implicit),
// which is stable because the pump coefficients are tiny relative to C/dt.
// On error t is left untouched (the solve goes into a scratch vector), so
// callers can retry or hold the last good state.
func (tr *Transient) Step(t, power []float64, ts *tec.State) error {
	nw := tr.nw
	if err := nw.baseRHS(tr.rhs, power, tr.fanLevel); err != nil {
		return err
	}
	nw.peltierRHS(tr.rhs, t, ts)
	for i := 0; i < nw.n; i++ {
		tr.rhs[i] += nw.capn[i] / tr.dt * t[i]
	}
	refined, err := tr.factor.Solve(tr.rhs, tr.next)
	if refined {
		tr.refines++
	}
	if err != nil {
		return err
	}
	copy(t, tr.next)
	return nil
}

// TakeRefinements returns the refinement count accumulated since the last
// call and resets it — a delta, so the sim can attribute refinement work to
// the exact step window it audited.
func (tr *Transient) TakeRefinements() int {
	n := tr.refines
	tr.refines = 0
	return n
}

// PeakDie returns the hottest die component index and its temperature.
func (nw *Network) PeakDie(t []float64) (comp int, tC float64) {
	comp, tC = -1, math.Inf(-1)
	for i := 0; i < nw.NumDie(); i++ {
		if t[i] > tC {
			comp, tC = i, t[i]
		}
	}
	return comp, tC
}

// CorePeak returns the hottest component of one core and its temperature.
func (nw *Network) CorePeak(t []float64, core int) (comp int, tC float64) {
	comp, tC = -1, math.Inf(-1)
	for _, i := range nw.Chip.CoreComponents(core) {
		if t[i] > tC {
			comp, tC = i, t[i]
		}
	}
	return comp, tC
}

// TECPower evaluates Eq. (9) for every switched-on device given the current
// temperature field: P = r·I² + α·I·Δθ with Δθ the spreader-minus-die
// temperature difference seen by the device.
func (nw *Network) TECPower(t []float64, ts *tec.State) float64 {
	if ts == nil {
		return 0
	}
	var total float64
	for l := 0; l < ts.Len(); l++ {
		i := ts.Current(l)
		if i <= 0 {
			continue
		}
		p := ts.Placement(l)
		sp := nw.SpreaderNode(p.Core)
		var cold float64
		for _, ce := range p.CoverList {
			cold += t[ce.Comp] * ce.Frac
		}
		dTheta := t[sp] - cold
		if dTheta < 0 {
			dTheta = 0 // the pump has not yet established a gradient
		}
		total += p.Device.Power(i, dTheta)
	}
	return total
}

// RCInterp implements the paper's Eq. (5): one step of the discretized RC
// response, T(k) = (1−β)·Ts + β·T(k−1) with β = exp(−Δk/(Rth·Cth)). The
// controller uses it to estimate how far the transient moves toward the
// predicted steady state within one control period.
func RCInterp(ts, tPrev, tauSeconds, dtSeconds float64) float64 {
	beta := math.Exp(-dtSeconds / tauSeconds)
	return (1-beta)*ts + beta*tPrev
}

// DieTimeConstant returns a representative die-node RC time constant for the
// controller's Eq. (5): node capacity divided by its total conductance.
func (nw *Network) DieTimeConstant(comp int) float64 {
	var g float64
	for _, c := range nw.cond {
		if c.Row == comp && c.Col == comp {
			g += c.Val
		}
	}
	if g <= 0 {
		return 1e-3
	}
	return nw.capn[comp] / g
}
