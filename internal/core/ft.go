package core

import (
	"math"
	"sort"

	"tecfan/internal/floats"
	"tecfan/internal/numguard"
	"tecfan/internal/sim"
	"tecfan/internal/tec"
)

// The fault-tolerant controller's detection thresholds and its degradation
// budget.
const (
	// ftTempMin/ftTempMax bound plausible die readings (°C); outside them a
	// sensor is distrusted immediately.
	ftTempMin, ftTempMax = 5, 130
	// freezeStreak is how many consecutive control periods a sensor may
	// repeat its reading bit-for-bit — while other trusted sensors move —
	// before it is declared stuck.
	freezeStreak = 12
	// jumpLimit is the |measured − predicted| residual (°C) that counts as
	// a jump; jumpStreak consecutive jumps distrust the sensor.
	jumpLimit  = 8
	jumpStreak = 3
	// noiseLimit distrusts a sensor whose EWMA of |differential residual|
	// exceeds it (°C). Residuals are scored after subtracting the median
	// residual of all trusted sensors: model error (the power measurement
	// lags one period, so ramps are mispredicted chip-wide) is common-mode,
	// while a faulty sensor deviates from its peers. A healthy sensor tracks
	// the prediction differentially to well under a degree; a noisy one
	// cannot.
	noiseLimit = 2
	// responseMargin/responseWindow de-rate a TEC bank whose covered
	// components sit more than responseMargin °C above prediction for
	// responseWindow consecutive periods while the bank is commanded on —
	// cooling that never arrives.
	responseMargin = 5
	responseWindow = 15
	// mismatchStreak is how many net readback mismatches an actuator (TEC
	// drive, DVFS level, fan level) may accumulate before it is declared
	// failed. A matching readback decays the count by one rather than
	// clearing it: a partially-failed path (e.g. a DVFS rail that refuses
	// only deep levels) reads back correctly between clamps, and a single
	// good sample must not amnesty it.
	mismatchStreak = 3
	// budget is the degradation score at which the controller abandons
	// optimization and enters fail-safe. Each distrusted sensor scores
	// sensorWeight, each de-rated bank bankWeight, and a failed DVFS or fan
	// actuator actuatorWeight.
	budget         = 4
	sensorWeight   = 1
	bankWeight     = 1
	actuatorWeight = 4
	// extraMargin widens the inner controller's safety band (°C): with
	// substituted estimates standing in for distrusted sensors, predictions
	// carry more error than the healthy controller assumes.
	extraMargin = 1
	// defensiveMargin widens the band further per detected fault (°C per
	// degradation point, capped at defensiveCap): a controller flying on
	// substituted readings or de-rated banks buys back the headroom the
	// §IV-C fan selection traded away for energy.
	defensiveMargin = 1.5
	defensiveCap    = 6
	// substMargin is added to every substituted reading (°C): an unobserved
	// die must be assumed hotter than the model says, since prediction error
	// accumulates with no measurement to correct it.
	substMargin = 3
	// warmupPeriods suspends the model-residual detectors (jump, noise,
	// thermal no-response) for the first control periods of each iteration:
	// right after a (re)start the controller slews every actuator hard and
	// the one-period prediction error transiently exceeds the fault limits.
	// Hard checks — NaN/∞, range, freeze, actuator readback — stay live.
	warmupPeriods = 5
)

// FTStats exposes the detection and recovery telemetry of one run. Times are
// simulation seconds; -1 means "never happened".
type FTStats struct {
	// FirstDetection is when the first fault (sensor distrust, bank
	// de-rate, or actuator failure) was flagged.
	FirstDetection float64
	// FailSafeAt is when the degradation budget was crossed.
	FailSafeAt float64
	// RecoveredAt is the first time after fail-safe entry with the
	// (sanitized) peak back under the threshold.
	RecoveredAt float64
	FailSafe    bool

	DistrustedSensors int
	DeratedBanks      int
	DVFSFailed        bool
	FanFailed         bool
	// Substitutions counts sensor readings replaced by model estimates.
	Substitutions int

	// NumericEscalations counts confirmed numeric divergences the simulator
	// escalated into this controller; NumericDiagnosis keeps the first
	// structured diagnosis (which invariant, which step, which actuators).
	NumericEscalations int
	NumericDiagnosis   string
}

// FT is TECfan-FT: the paper's hierarchical controller wrapped in a
// fault-detection and graceful-degradation layer (the robustness extension
// of §III). Every observation passes plausibility checks — NaN/∞, range,
// frozen readings, and jump/noise residuals against the previous period's
// RC-model prediction; distrusted sensors are replaced by that prediction so
// the optimizer keeps running on the estimator's view of the chip. Actuator
// readbacks are compared against issued commands: TEC banks that stop
// responding (electrically or thermally) are de-rated out of the search via
// Controller.Disabled, and failed DVFS or fan paths are flagged. When the
// accumulated degradation crosses the budget, the controller abandons
// optimization for a sticky fail-safe: fan to maximum, DVFS to a safe
// level, TECs off — minimum-heat, maximum-airflow, no reliance on any
// distrusted input.
type FT struct {
	Inner *Controller

	nDie, nCores, nDev int
	// safeDVFS is the fail-safe chip-wide level: half of maximum.
	safeDVFS int

	stats FTStats

	// Per-sensor state.
	distrust []bool
	lastRaw  []float64
	lastGood []float64
	freeze   []int
	jumps    []int
	residEW  []float64
	haveRaw  bool

	// Prediction of the current period's die temperatures, from last
	// period's estimate under the decision actually issued.
	pred      []float64
	predValid bool
	// predict's reusable scratch: the forecast candidate (with its slice
	// backing), the projection observation's temperature buffer, and the
	// estimate the RC model writes into.
	predCand Candidate
	ampsBuf  []float64
	onBuf    []bool
	ptemps   []float64
	estBuf   Estimate
	// unpad holds this period's die temperatures with substitutions but
	// without the substMargin padding — the predictor's input, so the
	// padding doesn't compound through the prediction chain.
	unpad []float64
	// commonResid is this period's median raw−pred residual over trusted
	// sensors — the common-mode model error subtracted before any residual
	// detector scores a sensor. residScratch is its sort buffer.
	commonResid  float64
	residScratch []float64

	// Actuator shadow: what the levels should read back as.
	expDVFS      []int
	expTECOn     []bool
	expAmps      []float64
	haveShadow   bool
	dvfsMismatch int
	fanMismatch  int
	tecMismatch  []int // per bank
	bankNoResp   []int // per bank
	derated      []bool

	fanReq      int
	fanReqValid bool

	// periods counts Control calls since the last Reset; the model-residual
	// detectors stay disarmed until it passes warmupPeriods.
	periods int

	baseMargin float64 // inner margin before any defensive widening
	failSafe   bool
}

var (
	_ sim.Controller       = (*FT)(nil)
	_ sim.FanController    = (*FT)(nil)
	_ sim.NumericEscalator = (*FT)(nil)
)

// NewFT wraps a fresh TECfan controller in the fault-tolerance layer.
func NewFT(est *Estimator) *FT {
	inner := NewController(est)
	inner.Margin += extraMargin
	f := &FT{
		Inner:      inner,
		nDie:       est.Network.NumDie(),
		nCores:     est.Chip.NumCores(),
		nDev:       len(est.Placements),
		safeDVFS:   est.DVFS.Max() / 2,
		baseMargin: inner.Margin,
	}
	f.alloc()
	f.Clear()
	return f
}

func (f *FT) alloc() {
	f.distrust = make([]bool, f.nDie)
	f.lastRaw = make([]float64, f.nDie)
	f.lastGood = make([]float64, f.nDie)
	f.freeze = make([]int, f.nDie)
	f.jumps = make([]int, f.nDie)
	f.residEW = make([]float64, f.nDie)
	f.pred = make([]float64, f.nDie)
	f.unpad = make([]float64, f.nDie)
	f.residScratch = make([]float64, 0, f.nDie)
	f.tecMismatch = make([]int, f.nCores)
	f.bankNoResp = make([]int, f.nCores)
	f.derated = make([]bool, f.nCores)
}

// Name implements sim.Controller.
func (f *FT) Name() string { return "TECfan-FT" }

// Stats returns the run's detection/recovery telemetry, cumulative across
// warm-start iterations (the fault log persists through Reset).
func (f *FT) Stats() FTStats { return f.stats }

// Reset implements sim.Controller. Only the transient estimation state —
// streak counters, residual filters, the actuator shadow, the prediction
// chain — clears between warm-start iterations: those track in-run dynamics
// and must restart with the run. Confirmed fault state (distrusted sensors,
// de-rated banks, failed actuators, fail-safe) persists, like a production
// controller's fault log: a hardware fault does not heal because the
// benchmark restarted, and re-entering each iteration blind would have the
// converged "thermal cycle" alternate between detecting and forgetting.
func (f *FT) Reset() {
	f.Inner.Reset()
	for i := range f.distrust {
		f.freeze[i] = 0
		f.jumps[i] = 0
		f.residEW[i] = 0
	}
	for c := range f.tecMismatch {
		f.tecMismatch[c] = 0
		f.bankNoResp[c] = 0
	}
	f.haveRaw = false
	f.predValid = false
	f.haveShadow = false
	f.dvfsMismatch = 0
	f.fanMismatch = 0
	f.fanReqValid = false
	f.periods = 0
}

// armed reports whether the model-residual detectors are live: prediction
// error right after a (re)start reflects actuator slew, not sensor faults.
func (f *FT) armed() bool { return f.periods > warmupPeriods }

// Clear drops the persistent fault log too — the state a fresh controller
// would have. NewFT calls it; tests may use it to reuse one instance.
func (f *FT) Clear() {
	f.Reset()
	f.Inner.Disabled = nil
	f.Inner.Margin = f.baseMargin
	f.stats = FTStats{FirstDetection: -1, FailSafeAt: -1, RecoveredAt: -1}
	for i := range f.distrust {
		f.distrust[i] = false
	}
	for c := range f.derated {
		f.derated[c] = false
	}
	f.failSafe = false
}

// mark records the first detection time.
func (f *FT) mark(t float64) {
	if f.stats.FirstDetection < 0 {
		f.stats.FirstDetection = t
	}
}

func finite(v float64) bool { return floats.Finite(v) }

// EscalateNumeric implements sim.NumericEscalator: a confirmed numeric
// divergence is a total loss of trust in the model pipeline, so the
// controller jumps straight to the sticky fail-safe — maximum airflow, safe
// DVFS, TECs off — exactly as if the degradation budget had been crossed.
func (f *FT) EscalateNumeric(v numguard.Violation) {
	f.mark(v.Time)
	f.stats.NumericEscalations++
	if f.stats.NumericDiagnosis == "" {
		f.stats.NumericDiagnosis = v.String()
	}
	if f.failSafe {
		return
	}
	f.failSafe = true
	f.stats.FailSafe = true
	f.stats.FailSafeAt = v.Time
}

// median of vs, which it sorts in place; 0 when empty.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sort.Float64s(vs)
	if n := len(vs); n%2 == 1 {
		return vs[n/2]
	} else {
		return 0.5 * (vs[n/2-1] + vs[n/2])
	}
}

// Control implements sim.Controller: sanitize, cross-check actuators, score
// degradation, then either delegate to the inner optimizer or hold the
// fail-safe configuration.
func (f *FT) Control(obs *sim.Observation) sim.Decision {
	f.periods++
	s := cloneObs(obs)
	raw := append([]float64(nil), s.Temps[:f.nDie]...)
	f.sanitize(s, raw)
	f.checkActuators(s)
	f.checkResponse(s, raw)
	f.score(s)

	var dec sim.Decision
	if f.failSafe {
		f.trackRecovery(s)
		dec = f.failSafeDecision()
	} else {
		f.applyDefensiveMargin()
		dec = f.Inner.Control(s)
	}
	f.updateShadow(s, dec)
	f.predict(s, dec)
	return dec
}

// sanitize runs the plausibility checks on the die sensors of s (in place)
// and substitutes model estimates for every distrusted reading.
func (f *FT) sanitize(s *sim.Observation, raw []float64) {
	// Did any currently-trusted sensor move this period? Needed by the
	// freeze check: a chip fully settled at steady state legitimately
	// repeats readings, two frozen sensors on a moving chip do not.
	moved := false
	if f.haveRaw {
		for i := 0; i < f.nDie; i++ {
			if !f.distrust[i] && !floats.Same(raw[i], f.lastRaw[i]) {
				moved = true
				break
			}
		}
	}
	f.commonResid = 0
	if f.predValid {
		f.residScratch = f.residScratch[:0]
		for i := 0; i < f.nDie; i++ {
			if !f.distrust[i] && finite(raw[i]) {
				f.residScratch = append(f.residScratch, raw[i]-f.pred[i])
			}
		}
		f.commonResid = median(f.residScratch)
	}
	for i := 0; i < f.nDie; i++ {
		if !f.distrust[i] {
			switch {
			case !finite(raw[i]) || raw[i] < ftTempMin || raw[i] > ftTempMax:
				f.distrustSensor(i, s.Time)
			case f.haveRaw && floats.Same(raw[i], f.lastRaw[i]) && moved:
				f.freeze[i]++
				if f.freeze[i] >= freezeStreak {
					f.distrustSensor(i, s.Time)
				}
			default:
				f.freeze[i] = 0
			}
		}
		if !f.distrust[i] && f.predValid && f.armed() {
			resid := math.Abs(raw[i] - f.pred[i] - f.commonResid)
			f.residEW[i] = 0.9*f.residEW[i] + 0.1*resid
			if resid > jumpLimit {
				f.jumps[i]++
			} else {
				f.jumps[i] = 0
			}
			if f.jumps[i] >= jumpStreak || f.residEW[i] > noiseLimit {
				f.distrustSensor(i, s.Time)
			}
		}
		switch {
		case f.distrust[i]:
			v := f.substitute(i, raw)
			f.unpad[i] = v
			// The optimizer sees the stand-in padded by substMargin: an
			// unobserved die must be assumed hotter than the model says.
			s.Temps[i] = v + substMargin
			f.stats.Substitutions++
		case f.jumps[i] > 0 && f.predValid && finite(f.pred[i]):
			// A jump pending confirmation reads as the model prediction, so
			// the predictor doesn't re-anchor to a step-biased sensor and
			// erase the residual before jumpStreak can confirm it.
			s.Temps[i] = f.pred[i]
			f.unpad[i] = f.pred[i]
			f.stats.Substitutions++
		case finite(raw[i]):
			f.lastGood[i] = raw[i]
			f.unpad[i] = raw[i]
		default:
			f.unpad[i] = s.Temps[i]
		}
		f.lastRaw[i] = raw[i]
	}
	f.haveRaw = true
}

func (f *FT) distrustSensor(i int, t float64) {
	if f.distrust[i] {
		return
	}
	f.distrust[i] = true
	f.stats.DistrustedSensors++
	f.mark(t)
}

// substitute returns the unpadded stand-in value for a distrusted sensor:
// the RC prediction when available, else the last good reading, else the
// mean of the trusted sensors. Control-path consumers add substMargin on
// top; the predictor must use the unpadded value or the margin would
// compound period over period.
func (f *FT) substitute(i int, raw []float64) float64 {
	if f.predValid && finite(f.pred[i]) {
		return f.pred[i]
	}
	if f.haveRaw && finite(f.lastGood[i]) && f.lastGood[i] != 0 {
		return f.lastGood[i]
	}
	var sum float64
	n := 0
	for j := 0; j < f.nDie; j++ {
		if !f.distrust[j] && finite(raw[j]) {
			sum += raw[j]
			n++
		}
	}
	if n > 0 {
		return sum / float64(n)
	}
	return 75 // nothing trustworthy on the chip: a nominal die temperature
}

// checkActuators compares actuator readbacks against the shadow of what was
// commanded. The first observation seeds the shadow.
func (f *FT) checkActuators(s *sim.Observation) {
	if !f.haveShadow {
		f.expDVFS = append([]int(nil), s.DVFS...)
		f.expTECOn = append([]bool(nil), s.TECOn...)
		f.expAmps = append([]float64(nil), s.TECAmps...)
		f.haveShadow = true
		return
	}
	// DVFS readback.
	if !f.stats.DVFSFailed {
		mismatch := false
		for c := range s.DVFS {
			if c < len(f.expDVFS) && s.DVFS[c] != f.expDVFS[c] {
				mismatch = true
				break
			}
		}
		if mismatch {
			f.dvfsMismatch++
			if f.dvfsMismatch >= mismatchStreak {
				f.stats.DVFSFailed = true
				f.mark(s.Time)
			}
		} else if f.dvfsMismatch > 0 {
			f.dvfsMismatch--
		}
	}
	// TEC readback, aggregated per bank.
	if f.nDev > 0 && len(s.TECOn) == f.nDev {
		for c := 0; c < f.nCores; c++ {
			if f.derated[c] {
				continue
			}
			mismatch := false
			for l, pl := range f.Inner.Est.Placements {
				if pl.Core != c {
					continue
				}
				if l < len(f.expTECOn) && s.TECOn[l] != f.expTECOn[l] {
					mismatch = true
					break
				}
				if l < len(f.expAmps) && l < len(s.TECAmps) &&
					math.Abs(s.TECAmps[l]-f.expAmps[l]) > 1e-9 {
					mismatch = true
					break
				}
			}
			if mismatch {
				f.tecMismatch[c]++
				if f.tecMismatch[c] >= mismatchStreak {
					f.derate(c, s.Time)
				}
			} else if f.tecMismatch[c] > 0 {
				f.tecMismatch[c]--
			}
		}
	}
}

// checkFan verifies the previous fan request against the level in force. A
// requested level only applies at the next fan boundary, and the boundary
// observation handed to FanControl is the first one built after it — so this
// is the one place a stale reading cannot be mistaken for a stuck fan.
func (f *FT) checkFan(obs *sim.Observation) {
	if !f.fanReqValid || f.stats.FanFailed {
		return
	}
	if obs.FanLevel != f.fanReq {
		f.fanMismatch++
		if f.fanMismatch >= mismatchStreak {
			f.stats.FanFailed = true
			f.mark(obs.Time)
		}
	} else if f.fanMismatch > 0 {
		f.fanMismatch--
	}
}

// checkResponse de-rates banks whose covered components stay hot despite
// being driven: the thermal no-response path for faults invisible to
// electrical readback.
func (f *FT) checkResponse(s *sim.Observation, raw []float64) {
	if !f.predValid || f.nDev == 0 || !f.armed() {
		return
	}
	for c := 0; c < f.nCores; c++ {
		if f.derated[c] {
			continue
		}
		driven := false
		var residSum float64
		n := 0
		for l, pl := range f.Inner.Est.Placements {
			if pl.Core != c {
				continue
			}
			if (l < len(f.expTECOn) && f.expTECOn[l]) ||
				(l < len(f.expAmps) && f.expAmps[l] > 0) {
				driven = true
			}
			// CoverList: residSum is a float accumulation, so the iteration
			// order must be reproducible for checkpoint/resume determinism.
			for _, ce := range pl.CoverList {
				comp := ce.Comp
				if comp < f.nDie && !f.distrust[comp] && finite(raw[comp]) {
					residSum += raw[comp] - f.pred[comp] - f.commonResid
					n++
				}
			}
		}
		if driven && n > 0 && residSum/float64(n) > responseMargin {
			f.bankNoResp[c]++
			if f.bankNoResp[c] >= responseWindow {
				f.derate(c, s.Time)
			}
		} else {
			f.bankNoResp[c] = 0
		}
	}
}

// derate removes a bank from the inner controller's search space.
func (f *FT) derate(c int, t float64) {
	if f.derated[c] {
		return
	}
	f.derated[c] = true
	f.stats.DeratedBanks++
	f.mark(t)
	if f.Inner.Disabled == nil {
		f.Inner.Disabled = make([]bool, f.nDev)
	}
	for l, pl := range f.Inner.Est.Placements {
		if pl.Core == c {
			f.Inner.Disabled[l] = true
		}
	}
}

// degradation is the current degradation score: the same weighting the
// fail-safe budget uses.
func (f *FT) degradation() int {
	d := sensorWeight*f.stats.DistrustedSensors +
		bankWeight*f.stats.DeratedBanks
	if f.stats.DVFSFailed {
		d += actuatorWeight
	}
	if f.stats.FanFailed {
		d += actuatorWeight
	}
	return d
}

// applyDefensiveMargin widens the inner safety band with the degradation
// score: substituted readings and de-rated banks mean the optimizer is
// partially blind, so it must stop farther from the threshold.
func (f *FT) applyDefensiveMargin() {
	extra := defensiveMargin * float64(f.degradation())
	if extra > defensiveCap {
		extra = defensiveCap
	}
	f.Inner.Margin = f.baseMargin + extra
}

// score crosses into fail-safe when the degradation budget is spent.
func (f *FT) score(s *sim.Observation) {
	if f.failSafe {
		return
	}
	score := f.degradation()
	if score >= budget {
		f.failSafe = true
		f.stats.FailSafe = true
		f.stats.FailSafeAt = s.Time
	}
}

// trackRecovery records when the sanitized peak first returns below the
// threshold after fail-safe entry.
func (f *FT) trackRecovery(s *sim.Observation) {
	if f.stats.RecoveredAt >= 0 {
		return
	}
	peak := math.Inf(-1)
	for i := 0; i < f.nDie; i++ {
		if s.Temps[i] > peak {
			peak = s.Temps[i]
		}
	}
	if peak <= s.Threshold {
		f.stats.RecoveredAt = s.Time
	}
}

// failSafeDecision is the sticky minimum-heat configuration.
func (f *FT) failSafeDecision() sim.Decision {
	dec := sim.Decision{DVFS: make([]int, f.nCores)}
	for c := range dec.DVFS {
		dec.DVFS[c] = f.safeDVFS
	}
	if f.nDev > 0 {
		if f.Inner.usingCurrents() {
			dec.TECAmps = make([]float64, f.nDev)
		} else {
			dec.TECOn = make([]bool, f.nDev)
		}
	}
	return dec
}

// updateShadow applies the issued decision to the readback expectation,
// mirroring the simulator's clamping.
func (f *FT) updateShadow(s *sim.Observation, dec sim.Decision) {
	if dec.DVFS != nil {
		for c, l := range dec.DVFS {
			if c < len(f.expDVFS) {
				f.expDVFS[c] = f.Inner.Est.DVFS.Clamp(l)
			}
		}
	}
	switch {
	case dec.TECAmps != nil:
		for l, amps := range dec.TECAmps {
			if l < len(f.expAmps) {
				f.expAmps[l] = amps
			}
			if l < len(f.expTECOn) {
				f.expTECOn[l] = amps > 0
			}
		}
	case dec.TECOn != nil:
		for l, on := range dec.TECOn {
			if l < len(f.expTECOn) {
				f.expTECOn[l] = on
			}
			if l < len(f.expAmps) {
				if on {
					f.expAmps[l] = tec.DriveCurrent
				} else {
					f.expAmps[l] = 0
				}
			}
		}
	}
}

// predict stores the RC-model forecast of the next observation's die
// temperatures under the decision just issued — next period's reference for
// the jump, noise, and no-response detectors, and the substitution source
// for distrusted sensors.
func (f *FT) predict(s *sim.Observation, dec sim.Decision) {
	if s.DynPower == nil || s.CoreIPS == nil {
		return // fan-boundary observation: no power measurement to project
	}
	cand := &f.predCand
	cand.FanLevel = s.FanLevel
	if dec.DVFS != nil {
		cand.DVFS = append(cand.DVFS[:0], dec.DVFS...)
	} else {
		cand.DVFS = append(cand.DVFS[:0], s.DVFS...)
	}
	switch {
	case dec.TECAmps != nil:
		f.ampsBuf = append(f.ampsBuf[:0], dec.TECAmps...)
		cand.TECAmps, cand.TECOn = f.ampsBuf, nil
	case dec.TECOn != nil:
		f.onBuf = append(f.onBuf[:0], dec.TECOn...)
		cand.TECOn, cand.TECAmps = f.onBuf, nil
	case s.TECAmps != nil && f.Inner.usingCurrents():
		f.ampsBuf = append(f.ampsBuf[:0], s.TECAmps...)
		cand.TECAmps, cand.TECOn = f.ampsBuf, nil
	case s.TECOn != nil:
		f.onBuf = append(f.onBuf[:0], s.TECOn...)
		cand.TECOn, cand.TECAmps = f.onBuf, nil
	default:
		cand.TECOn, cand.TECAmps = nil, nil
	}
	// Project from the unpadded temperatures: the substMargin padding is a
	// control-side safety device, not a state estimate.
	p := *s
	f.ptemps = append(f.ptemps[:0], s.Temps...)
	copy(f.ptemps[:f.nDie], f.unpad)
	p.Temps = f.ptemps
	f.Inner.Est.EstimateInto(&f.estBuf, &p, *cand)
	if len(f.estBuf.Temps) == 0 {
		f.predValid = false
		return
	}
	copy(f.pred, f.estBuf.Temps[:f.nDie])
	f.predValid = true
}

// FanControl implements sim.FanController: fail-safe drives the fan to
// maximum; otherwise the sanitized observation feeds the inner fan loop.
func (f *FT) FanControl(obs *sim.Observation) int {
	f.checkFan(obs)
	s := cloneObs(obs)
	for i := 0; i < f.nDie && i < len(s.Temps); i++ {
		if f.distrust[i] || !finite(s.Temps[i]) {
			s.Temps[i] = f.substitute(i, s.Temps[:f.nDie]) + substMargin
		}
	}
	req := 0 // fail-safe: maximum airflow
	if !f.failSafe {
		req = f.Inner.FanControl(s)
		if f.degradation() > 0 && req > 0 {
			req-- // degraded: bias one level faster for cooling headroom
		}
	}
	req = f.Inner.Est.Fan.Clamp(req)
	f.fanReq = req
	f.fanReqValid = true
	return req
}
