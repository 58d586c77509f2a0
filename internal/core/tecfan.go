package core

import (
	"math"

	"tecfan/internal/floats"
	"tecfan/internal/linalg"
	"tecfan/internal/sim"
)

// Controller is the TECfan hierarchical controller (§III-D, Fig. 2). It
// implements sim.Controller for the lower level and sim.FanController for
// the higher level.
type Controller struct {
	Est *Estimator
	// Margin is the safety band (°C) subtracted from the threshold in the
	// controller's own feasibility checks: predictions carry model error
	// (linear vs quadratic leakage, last-interval power under activity
	// jitter), and the paper's <0.5 % violation ratio implies conservatism.
	Margin float64
	// ChipLevelDVFS restricts DVFS to a single chip-wide level (§III-E:
	// "TECfan does not rely on per-core DVFS ... can be integrated with
	// chip-level DVFS seamlessly"). Hot iterations lower and cool
	// iterations raise every core together.
	ChipLevelDVFS bool
	// CurrentLevels, when non-empty, switches the TEC knob to graded
	// per-device current control over these drive points (see current.go).
	CurrentLevels []float64
	// NoTEC removes the TEC knob (ablation: fan+DVFS coordination only).
	NoTEC bool
	// NoDVFS removes the DVFS knob (ablation: cooling coordination only).
	NoDVFS bool
	// Disabled, when non-nil, marks per-device TECs the controller must not
	// drive (de-rated banks under fault-tolerant operation). Disabled
	// devices are forced off in every candidate, so the estimator's
	// predictions match the de-rated hardware instead of assuming cooling
	// that will never arrive.
	Disabled []bool

	// lastObs is the controller-owned deep copy of the latest lower-level
	// observation, reused across periods (sim reuses its boundary buffers,
	// so retaining the argument itself would alias live state). haveObs
	// distinguishes "no observation yet" from a zero-valued one.
	lastObs sim.Observation
	haveObs bool
	// scratch holds the down-hill walk's reusable candidate and estimate
	// buffers: one Control call evaluates O(N·L + N·M) candidates, and with
	// these held across calls the walk is allocation-free after warm-up.
	scratch struct {
		cand, trial      Candidate
		est, te, bestEst Estimate
		// One block of a per-core DVFS trial set: trial j moves core
		// trialCore[j] to the levels trialDVFS[j] and is estimated into
		// trialEst[j].
		trialDVFS [linalg.BlockWidth][]int
		trialCore [linalg.BlockWidth]int
		trialEst  [linalg.BlockWidth]Estimate
	}
}

// fanGuard is the margin (°C) below threshold required before the fan loop
// probes a slower level, preventing level flapping.
const fanGuard = 1.0

// NewController builds a TECfan controller over an estimator.
func NewController(est *Estimator) *Controller {
	return &Controller{Est: est, Margin: 1.0}
}

// maxIterations bounds one control period's down-hill walk: the paper's
// NL + NM (all TECs plus all DVFS steps).
func (c *Controller) maxIterations() int {
	n := c.Est.Chip.NumCores()
	return n*len(c.Est.Placements) + n*c.Est.DVFS.Num()
}

// Name implements sim.Controller.
func (c *Controller) Name() string { return "TECfan" }

// Reset implements sim.Controller.
func (c *Controller) Reset() { c.haveObs = false }

// Control implements the lower level: one multi-step down-hill walk per
// control period, returning the best feasible configuration visited. The
// decision's slices alias the controller's reusable candidate buffers and
// are valid until the next Control call — the simulator applies them
// immediately, per the sim.Decision contract.
func (c *Controller) Control(obs *sim.Observation) sim.Decision {
	cloneObsInto(&c.lastObs, obs)
	c.haveObs = true
	cand := &c.scratch.cand
	cand.DVFS = append(cand.DVFS[:0], obs.DVFS...)
	cand.FanLevel = obs.FanLevel
	if c.usingCurrents() {
		cand.TECAmps = append(cand.TECAmps[:0], obs.TECAmps...)
		cand.TECOn = nil
	} else {
		cand.TECOn = append(cand.TECOn[:0], obs.TECOn...)
		cand.TECAmps = nil
	}
	c.applyDisabled(cand)
	// Tighten the threshold by the safety margin for all internal
	// feasibility decisions.
	mobs := *obs
	mobs.Threshold = obs.Threshold - c.Margin
	est := &c.scratch.est
	c.Est.EstimateInto(est, &mobs, *cand)
	if !est.Feasible {
		c.hotIteration(&mobs, cand, est)
	} else {
		c.coolIteration(&mobs, cand, est)
	}
	return sim.Decision{DVFS: cand.DVFS, TECOn: cand.TECOn, TECAmps: cand.TECAmps}
}

// hotIteration reduces the predicted peak below the threshold: first engage
// the TEC above the hottest uncovered hot spot; once every hot spot's TECs
// are on, lower DVFS levels, each step picking the core whose single-step
// throttle yields the least per-instruction energy. cand and est are
// updated in place (est may be left pointing at stale contents — callers
// read cand only).
func (c *Controller) hotIteration(obs *sim.Observation, cand *Candidate, est *Estimate) {
	bestEst := &c.scratch.bestEst
	for iter, maxIter := 0, c.maxIterations(); iter < maxIter; iter++ {
		if est.Feasible {
			return
		}
		if l := c.offTECOverHottestSpot(cand, est, obs.Threshold); l >= 0 {
			c.raiseTEC(cand, l)
			c.Est.EstimateInto(est, obs, *cand)
			continue
		}
		if c.NoDVFS {
			return // throttling disabled: best effort with TECs
		}
		// All TECs above hot spots are on: throttle. Choose the single-step
		// DVFS reduction with the smallest estimated EPI (Fig. 2's "select
		// the adjustment that has the smallest energy consumption"). In
		// chip-level mode the only candidate lowers every core together.
		if c.ChipLevelDVFS {
			lowered := false
			for core := range cand.DVFS {
				if cand.DVFS[core] > 0 {
					cand.DVFS[core]--
					lowered = true
				}
			}
			if !lowered {
				return
			}
			c.Est.EstimateInto(est, obs, *cand)
			continue
		}
		bestCore := c.bestDVFSStep(obs, cand, -1, bestEst)
		if bestCore < 0 {
			return // every knob exhausted; apply best effort
		}
		cand.DVFS[bestCore]--
		est, bestEst = bestEst, est
	}
}

// bestDVFSStep evaluates the single-step DVFS move of every core that can
// take one (step −1 throttles a core above level 0, +1 raises a core below
// the maximum) and returns the core whose move has the smallest estimated
// EPI, or -1 when no core can move. The trials go to the estimator in
// blocks of linalg.BlockWidth and are scanned in core order with a strict
// <, so the winner, and its estimate left in *bestEst, are the ones a scan
// of single estimates would pick.
func (c *Controller) bestDVFSStep(obs *sim.Observation, cand *Candidate, step int, bestEst *Estimate) int {
	s := &c.scratch
	maxLevel := c.Est.DVFS.Max()
	bestCore, bestEPI := -1, math.Inf(1)
	k := 0
	for core, l := range cand.DVFS {
		if (step < 0 && l == 0) || (step > 0 && l >= maxLevel) {
			continue
		}
		s.trialDVFS[k] = append(s.trialDVFS[k][:0], cand.DVFS...)
		s.trialDVFS[k][core] += step
		s.trialCore[k] = core
		if k++; k == linalg.BlockWidth {
			bestCore, bestEPI = c.scanTrials(obs, cand, k, bestCore, bestEPI, bestEst)
			k = 0
		}
	}
	if k > 0 {
		bestCore, _ = c.scanTrials(obs, cand, k, bestCore, bestEPI, bestEst)
	}
	return bestCore
}

// scanTrials estimates the first k trials of the block and folds them into
// the running best, moving a new winner's estimate into *bestEst and
// handing the loser's buffers to the trial slot.
func (c *Controller) scanTrials(obs *sim.Observation, cand *Candidate, k, bestCore int, bestEPI float64, bestEst *Estimate) (int, float64) {
	s := &c.scratch
	ests := s.trialEst[:k]
	c.Est.EstimateBatch(ests, obs, *cand, s.trialDVFS[:k])
	for j := range ests {
		if ests[j].EPI < bestEPI {
			bestEPI, bestCore = ests[j].EPI, s.trialCore[j]
			*bestEst, ests[j] = ests[j], *bestEst
		}
	}
	return bestCore, bestEPI
}

// offTECOverHottestSpot returns the index of a TEC with cooling headroom
// covering the hottest component whose predicted temperature violates the
// threshold, or -1 when every violating component's TECs are maxed. Among a
// component's devices, the one with the largest coverage engages first. An
// estimate the solver refused has no temperatures and names no hot spot, so
// it also returns -1 and the walk falls through to throttling.
func (c *Controller) offTECOverHottestSpot(cand *Candidate, est *Estimate, threshold float64) int {
	if c.NoTEC || len(est.Temps) == 0 {
		return -1
	}
	bestL := -1
	bestT := threshold // only components above the threshold qualify
	bestCover := 0.0
	for l, pl := range c.Est.Placements {
		if c.tecMaxed(cand, l) || c.disabled(l) {
			continue
		}
		// CoverList keeps the scan order deterministic: exact (t, cover)
		// ties would otherwise resolve by randomized map order.
		for _, ce := range pl.CoverList {
			t := est.Temps[ce.Comp]
			if t < bestT || (floats.Same(t, bestT) && ce.Frac <= bestCover) {
				continue
			}
			bestL, bestT, bestCover = l, t, ce.Frac
		}
	}
	return bestL
}

// coolIteration exploits headroom: raise DVFS toward maximum (choosing the
// core whose step has the least EPI), then switch off the TEC above the
// coolest covered spot, stopping one step before a predicted violation.
// cand and est are updated in place, same contract as hotIteration.
func (c *Controller) coolIteration(obs *sim.Observation, cand *Candidate, est *Estimate) {
	trial, te, bestEst := &c.scratch.trial, &c.scratch.te, &c.scratch.bestEst
	maxLevel := c.Est.DVFS.Max()
	for iter, maxIter := 0, c.maxIterations(); iter < maxIter; iter++ {
		allMax := true
		for _, l := range cand.DVFS {
			if l < maxLevel {
				allMax = false
				break
			}
		}
		if !allMax && c.NoDVFS {
			allMax = true // skip the DVFS-raising branch entirely
		}
		if !allMax {
			if c.ChipLevelDVFS {
				// Raise every core together, stopping before a violation.
				trial.copyFrom(cand)
				for core := range trial.DVFS {
					if trial.DVFS[core] < maxLevel {
						trial.DVFS[core]++
					}
				}
				c.Est.EstimateInto(te, obs, *trial)
				if !te.Feasible {
					return
				}
				cand.copyFrom(trial)
				est, te = te, est
				continue
			}
			// Raise the best core by one step.
			bestCore := c.bestDVFSStep(obs, cand, +1, bestEst)
			if bestCore < 0 || !bestEst.Feasible {
				return // raising anything would violate: stop
			}
			cand.DVFS[bestCore]++
			est, bestEst = bestEst, est
			continue
		}
		// All cores at max: shed TEC power from the coolest covered spot,
		// but only while the estimate stays feasible AND the EPI improves
		// (switching a TEC off always sheds its electrical power, but may
		// raise leakage via higher temperature).
		l := c.onTECOverCoolestSpot(cand, est)
		if l < 0 || c.NoTEC {
			return
		}
		trial.copyFrom(cand)
		c.lowerTEC(trial, l)
		c.Est.EstimateInto(te, obs, *trial)
		if !te.Feasible || te.EPI > est.EPI {
			return
		}
		cand.copyFrom(trial)
		est, te = te, est
	}
}

// onTECOverCoolestSpot returns the switched-on TEC whose covered components
// are coolest (by their hottest covered component), or -1 if none are on.
func (c *Controller) onTECOverCoolestSpot(cand *Candidate, est *Estimate) int {
	best := -1
	bestT := math.Inf(1)
	for l, pl := range c.Est.Placements {
		if !c.tecActive(cand, l) {
			continue
		}
		spotMax := math.Inf(-1)
		for _, ce := range pl.CoverList {
			if t := est.Temps[ce.Comp]; t > spotMax {
				spotMax = t
			}
		}
		if spotMax < bestT {
			bestT, best = spotMax, l
		}
	}
	return best
}

// FanControl implements the higher level (§III-D last paragraph): raise the
// fan while steady-state hot spots persist, probe one level slower when
// there is guard-band headroom. It uses the cached lower-level measurements
// as the power reading, like the paper's "average power of the last
// interval".
func (c *Controller) FanControl(obs *sim.Observation) int {
	if !c.haveObs {
		return obs.FanLevel
	}
	// Shallow copy: freshest temperatures and configuration from obs,
	// last-interval power from the cached observation. The aliases live
	// only for the duration of this call, and the cached copy itself stays
	// untouched (the historical pointer-write here silently corrupted it).
	m := c.lastObs
	m.Temps = obs.Temps
	m.DVFS = obs.DVFS
	m.TECOn = obs.TECOn
	cand := &c.scratch.cand
	cand.DVFS = append(cand.DVFS[:0], obs.DVFS...)
	cand.FanLevel = obs.FanLevel
	if c.usingCurrents() {
		cand.TECAmps = append(cand.TECAmps[:0], obs.TECAmps...)
		cand.TECOn = nil
	} else {
		cand.TECOn = append(cand.TECOn[:0], obs.TECOn...)
		cand.TECAmps = nil
	}
	c.applyDisabled(cand)
	peak := c.Est.SteadyPeak(&m, *cand)
	if peak > obs.Threshold {
		// Hot: speed up (lower index) until the prediction clears.
		level := obs.FanLevel
		for level > 0 && peak > obs.Threshold {
			level--
			cand.FanLevel = level
			peak = c.Est.SteadyPeak(&m, *cand)
		}
		return level
	}
	// Cool: probe one level slower.
	if obs.FanLevel+1 < c.Est.Fan.NumLevels() {
		cand.FanLevel = obs.FanLevel + 1
		if c.Est.SteadyPeak(&m, *cand) <= obs.Threshold-fanGuard {
			return obs.FanLevel + 1
		}
	}
	return obs.FanLevel
}

// disabled reports whether device l is administratively off.
func (c *Controller) disabled(l int) bool {
	return c.Disabled != nil && l < len(c.Disabled) && c.Disabled[l]
}

// applyDisabled forces every disabled device off in a candidate.
func (c *Controller) applyDisabled(cand *Candidate) {
	if c.Disabled == nil {
		return
	}
	for l, off := range c.Disabled {
		if !off {
			continue
		}
		if cand.TECOn != nil && l < len(cand.TECOn) {
			cand.TECOn[l] = false
		}
		if cand.TECAmps != nil && l < len(cand.TECAmps) {
			cand.TECAmps[l] = 0
		}
	}
}

// cloneObs deep-copies the slices of an observation the controller retains
// across periods.
func cloneObs(obs *sim.Observation) *sim.Observation {
	c := &sim.Observation{}
	cloneObsInto(c, obs)
	return c
}

// cloneObsInto deep-copies obs into dst, reusing dst's buffers. Nil slices
// stay nil (a fan-boundary observation is recognized by DynPower == nil).
func cloneObsInto(dst, obs *sim.Observation) {
	dst.Time = obs.Time
	dst.Temps = copyFloats(dst.Temps, obs.Temps)
	dst.DynPower = copyFloats(dst.DynPower, obs.DynPower)
	dst.CoreIPS = copyFloats(dst.CoreIPS, obs.CoreIPS)
	dst.DVFS = copyInts(dst.DVFS, obs.DVFS)
	dst.TECOn = copyBools(dst.TECOn, obs.TECOn)
	dst.TECAmps = copyFloats(dst.TECAmps, obs.TECAmps)
	dst.FanLevel = obs.FanLevel
	dst.Threshold = obs.Threshold
}

// copyFloats/copyInts/copyBools copy src into dst's storage, preserving
// src's nil-ness: slice presence is meaningful throughout the control
// surface (TECAmps vs TECOn selects the actuation mode, DynPower marks a
// lower-level observation).
func copyFloats(dst, src []float64) []float64 {
	if src == nil {
		return nil
	}
	return append(dst[:0], src...)
}

func copyInts(dst, src []int) []int {
	if src == nil {
		return nil
	}
	return append(dst[:0], src...)
}

func copyBools(dst, src []bool) []bool {
	if src == nil {
		return nil
	}
	return append(dst[:0], src...)
}
