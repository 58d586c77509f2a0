// Package core implements TECfan itself: the paper's hierarchical runtime
// optimization framework (§III). The lower level runs the multi-step
// down-hill heuristic every 2 ms control period — hot iterations engage TECs
// first and throttle DVFS only as a last resort; cool iterations restore
// DVFS toward maximum and then shed TEC power — always selecting the
// single-step adjustment with the least estimated per-instruction energy.
// The higher level adjusts the fan speed on a seconds time scale from
// average power and TEC duty. Predictions use the paper's own model stack:
// Eq. (1) steady state, Eq. (5) RC interpolation, Eq. (6) linear leakage,
// Eq. (7) dynamic scaling, and Eq. (9)–(11) for the EPI objective.
package core

import (
	"math"

	"tecfan/internal/fan"
	"tecfan/internal/floorplan"
	"tecfan/internal/linalg"
	"tecfan/internal/perf"
	"tecfan/internal/power"
	"tecfan/internal/sim"
	"tecfan/internal/tec"
	"tecfan/internal/thermal"
)

// Candidate is one actuator configuration under evaluation. TECAmps, when
// non-nil, supersedes TECOn and drives each device at the given current —
// the variable-current extension of §III.
type Candidate struct {
	DVFS     []int
	TECOn    []bool
	TECAmps  []float64
	FanLevel int
}

// copyFrom deep-copies src into c, reusing c's buffers and preserving
// src's slice nil-ness (TECAmps vs TECOn selects the actuation mode).
func (c *Candidate) copyFrom(src *Candidate) {
	c.DVFS = copyInts(c.DVFS, src.DVFS)
	c.TECOn = copyBools(c.TECOn, src.TECOn)
	c.TECAmps = copyFloats(c.TECAmps, src.TECAmps)
	c.FanLevel = src.FanLevel
}

// clone deep-copies the candidate.
func (c Candidate) clone() Candidate {
	return Candidate{
		DVFS:     append([]int(nil), c.DVFS...),
		TECOn:    append([]bool(nil), c.TECOn...),
		TECAmps:  append([]float64(nil), c.TECAmps...),
		FanLevel: c.FanLevel,
	}
}

// Estimate is the model-predicted outcome of applying a candidate for one
// control period. Temps is empty (nil for a fresh Estimate) when the steady
// solver refused the candidate — the infeasible marker ft.go keys on.
type Estimate struct {
	Temps     []float64 // predicted die temperatures at the end of the period
	PeakTemp  float64
	PeakComp  int
	ChipPower float64
	ChipIPS   float64
	EPI       float64
	Feasible  bool
}

// Estimator evaluates candidates with the §III-A/B models. It is the
// software stand-in for the systolic temperature-evaluation hardware priced
// in §III-E.
type Estimator struct {
	Network    *thermal.Network
	Chip       *floorplan.Chip
	DVFS       *power.DVFSTable
	Leak       power.Leakage
	Fan        *fan.Model
	Placements []tec.Placement
	// Period is the lower-level control period Δk of Eq. (5).
	Period float64

	taus    []float64 // per-node RC constants for Eq. (5)
	scratch struct {
		pow, leak, steady []float64
		solve             *thermal.SteadyScratch
	}
	// tecST is the reusable drive state tecState hands out: one State per
	// estimator instead of one per evaluated candidate. Like the scratch
	// buffers it makes the estimator not safe for concurrent use; estimators
	// on different goroutines may share one Network.
	tecST *tec.State
	// peakEst is SteadyPeak's reusable estimate buffer.
	peakEst Estimate
	// Evaluations counts evaluated candidates, one per EstimateInto call
	// and one per candidate of an EstimateBatch — the complexity metric
	// backing the O(NL + N²M) claim.
	Evaluations int
}

// NewEstimator builds an estimator over the given models.
func NewEstimator(nw *thermal.Network, table *power.DVFSTable, leak power.Leakage, fm *fan.Model, placements []tec.Placement, period float64) *Estimator {
	e := &Estimator{
		Network:    nw,
		Chip:       nw.Chip,
		DVFS:       table,
		Leak:       leak,
		Fan:        fm,
		Placements: placements,
		Period:     period,
	}
	n := nw.NumNodes()
	// τᵢ = Cᵢ/Gᵢᵢ, computed in place over G's diagonal.
	e.taus = nw.DiagG(0)
	for i, gi := range e.taus {
		if gi <= 0 {
			gi = 1
		}
		tau := nw.Capacity(i) / gi
		if tau <= 0 {
			tau = 1e-4
		}
		e.taus[i] = tau
	}
	e.scratch.pow = make([]float64, nw.NumDie())
	e.scratch.leak = make([]float64, nw.NumDie())
	e.scratch.steady = make([]float64, n)
	e.scratch.solve = nw.NewSteadyScratch()
	return e
}

// tecState materializes a TEC state from a candidate's currents (preferred)
// or on/off mask, with every driven device treated as engaged (20 µs ≪ the
// 2 ms period). The returned state is owned by the estimator and is
// overwritten by the next call.
//
//tecfan:hotpath
func (e *Estimator) tecState(cand Candidate) *tec.State {
	if cand.TECAmps == nil && cand.TECOn == nil {
		return nil
	}
	if e.tecST == nil {
		//lint:tecfan-ignore allocfree -- built once per estimator; every later candidate reuses it (cold, amortized)
		e.tecST = tec.NewState(e.Placements) //lint:tecfan-ignore hotcall -- one-time construction of the reusable state
	}
	st := e.tecST
	st.Reset()
	if cand.TECAmps != nil {
		for l, amps := range cand.TECAmps {
			st.SetCurrent(l, amps)
		}
	} else {
		st.SetMask(cand.TECOn)
	}
	st.Advance(1) // past any engagement delay
	return st
}

// EstimateInto predicts the next control period under cand, given the
// previous-interval measurements in obs, writing the outcome into est. It
// is the down-hill walk's per-candidate kernel: est's Temps buffer is
// reused across calls (allocated only on first use), so a controller that
// keeps its Estimate values alive evaluates candidates allocation-free. On
// a solver failure est is marked infeasible with empty Temps.
//
//tecfan:hotpath
func (e *Estimator) EstimateInto(est *Estimate, obs *sim.Observation, cand Candidate) {
	e.Evaluations++
	nw := e.Network
	// Eq. (6): linear leakage at the previous-interval temperatures.
	e.Leak.PerComponent(e.Chip, obs.Temps, power.ModelLinear, e.scratch.leak)
	chipPower := e.candidatePower(e.scratch.pow, obs, cand.DVFS)

	// Eq. (1): steady state under the candidate, warm-started from the
	// current temperatures for fast Peltier convergence.
	st := e.tecState(cand)
	copy(e.scratch.steady, obs.Temps)
	if err := nw.SteadyInto(e.scratch.steady, e.scratch.pow, cand.FanLevel, st, e.scratch.solve); err != nil {
		// A solver failure marks the candidate infeasible rather than
		// crashing the control loop.
		refused(est)
		return
	}
	e.finish(est, obs, cand.DVFS, cand.FanLevel, st, e.scratch.steady, chipPower)
}

// EstimateBatch is EstimateInto for the k = len(dvfs) ≤ linalg.BlockWidth
// candidates that differ from base only in their DVFS levels: ests[j]
// receives, bit for bit, what EstimateInto writes for base with its DVFS
// levels replaced by dvfs[j]. The candidates share base's fan level and TEC
// drive, so Eq. (7) runs per candidate, the Eq. (6) leakage once, and Eq.
// (1) as one lockstep block of steady solves, before EstimateInto's tail
// runs per candidate. It leases its block from the Network, so it is as
// allocation-free as EstimateInto once the block exists and each
// Estimate's Temps has grown.
//
//tecfan:hotpath
func (e *Estimator) EstimateBatch(ests []Estimate, obs *sim.Observation, base Candidate, dvfs [][]int) {
	k := len(dvfs)
	if k > linalg.BlockWidth || len(ests) != k {
		panic("core: EstimateBatch takes one estimate per candidate, at most linalg.BlockWidth")
	}
	e.Evaluations += k
	nw := e.Network
	blk := nw.LeaseSteadyBlock()

	// Eq. (6) once: the leakage depends only on the previous-interval
	// temperatures, which every candidate shares.
	e.Leak.PerComponent(e.Chip, obs.Temps, power.ModelLinear, e.scratch.leak)
	var chipPower [linalg.BlockWidth]float64
	for j, levels := range dvfs {
		chipPower[j] = e.candidatePower(blk.Power[j], obs, levels)
		copy(blk.T[j], obs.Temps)
	}

	// Eq. (1) for the whole set in one block.
	st := e.tecState(base)
	nw.SteadyBatch(blk, k, base.FanLevel, st)
	for j, levels := range dvfs {
		if blk.Err[j] != nil {
			refused(&ests[j])
			continue
		}
		e.finish(&ests[j], obs, levels, base.FanLevel, st, blk.T[j], chipPower[j])
	}
	nw.ReturnSteadyBlock(blk)
}

// candidatePower fills pow with a candidate's die power, the Eq. (7)
// dynamic power at its DVFS levels plus the leakage in e.scratch.leak, and
// returns the chip total, summed in component order.
//
//tecfan:hotpath
func (e *Estimator) candidatePower(pow []float64, obs *sim.Observation, levels []int) float64 {
	nDie := e.Network.NumDie()
	for i := 0; i < nDie; i++ {
		core := e.Chip.CoreOf(i)
		pow[i] = obs.DynPower[i] * e.DVFS.DynScale(obs.DVFS[core], levels[core])
	}
	var chipPower float64
	for i := 0; i < nDie; i++ {
		pow[i] += e.scratch.leak[i]
		chipPower += pow[i]
	}
	return chipPower
}

// refused marks est as a candidate the steady solver refused: infeasible,
// with empty Temps.
//
//tecfan:hotpath
func refused(est *Estimate) {
	est.Temps = est.Temps[:0]
	est.PeakComp, est.PeakTemp = -1, math.Inf(1)
	est.ChipPower, est.ChipIPS = 0, 0
	est.EPI = math.Inf(1)
	est.Feasible = false
}

// finish is the tail EstimateInto and EstimateBatch share once a
// candidate's steady field is solved: the Eq. (5) interpolation, Eq. (8)
// and (9) chip power on top of the die power chipPower, and the Eq. (10)
// and (11) EPI. levels and fanLevel are the candidate's, st its TEC drive.
//
//tecfan:hotpath
func (e *Estimator) finish(est *Estimate, obs *sim.Observation, levels []int, fanLevel int, st *tec.State, steady []float64, chipPower float64) {
	nw := e.Network
	nDie := nw.NumDie()
	// Eq. (5): interpolate one period toward the steady state.
	if cap(est.Temps) < nDie {
		//lint:tecfan-ignore allocfree -- first-use growth of the caller's reusable buffer (cold, amortized)
		est.Temps = make([]float64, nDie)
	}
	est.Temps = est.Temps[:nDie]
	est.PeakComp, est.PeakTemp = -1, math.Inf(-1)
	for i := 0; i < nDie; i++ {
		t := thermal.RCInterp(steady[i], obs.Temps[i], e.taus[i], e.Period)
		est.Temps[i] = t
		if t > est.PeakTemp {
			est.PeakComp, est.PeakTemp = i, t
		}
	}

	// Eq. (8)+(9): chip power including TEC and fan, the TEC power priced
	// at the steady field.
	chipPower += nw.TECPower(steady, st)
	chipPower += e.Fan.Power(fanLevel)
	est.ChipPower = chipPower

	// Eq. (10)+(11): IPS prediction from the previous interval.
	var ips float64
	for core, prev := range obs.CoreIPS {
		ips += perf.ScaleIPS(prev, e.DVFS.FreqRatio(obs.DVFS[core], levels[core]))
	}
	est.ChipIPS = ips
	est.EPI = perf.EPI(chipPower, ips)
	est.Feasible = est.PeakTemp <= obs.Threshold
}

// Estimate is the value-returning convenience form of EstimateInto; it
// allocates a fresh Temps per call, so per-candidate loops should hold an
// Estimate and use EstimateInto instead.
func (e *Estimator) Estimate(obs *sim.Observation, cand Candidate) Estimate {
	var est Estimate
	e.EstimateInto(&est, obs, cand)
	return est
}

// SteadyPeak predicts the eventual steady-state peak die temperature of a
// candidate — what the higher-level fan loop cares about, since fan effects
// outlive any single control period. A candidate the steady solver refuses
// reads as unboundedly hot.
func (e *Estimator) SteadyPeak(obs *sim.Observation, cand Candidate) float64 {
	e.EstimateInto(&e.peakEst, obs, cand)
	if len(e.peakEst.Temps) == 0 {
		return math.Inf(1)
	}
	peak := math.Inf(-1)
	for i := 0; i < e.Network.NumDie(); i++ {
		if v := e.scratch.steady[i]; v > peak {
			peak = v
		}
	}
	return peak
}
