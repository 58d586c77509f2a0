package server

import (
	"context"
	"fmt"
	"math"

	"tecfan/internal/fan"
	"tecfan/internal/floorplan"
	"tecfan/internal/perf"
	"tecfan/internal/tec"
	"tecfan/internal/thermal"
)

// State is the observable system state handed to a server policy at each
// control period: previous-interval measurements plus the pending demand.
type State struct {
	Time      float64
	Temps     []float64 // thermal node temperatures, °C
	DVFS      []int     // current per-core levels
	Banks     []bool    // per-core TEC bank state
	FanLevel  int
	Demand    []float64 // predicted demand per core for the next period (work/s)
	Backlog   []float64 // queued work per core (max-capacity seconds)
	Threshold float64
}

// Decision is a policy's actuator request for the next period.
type Decision struct {
	DVFS     []int
	Banks    []bool
	FanLevel int
}

// Policy is a server-side controller evaluated in the §V-E comparison.
type Policy interface {
	Name() string
	Decide(st *State, m *Machine) Decision
}

// Machine bundles the §V-E platform: quad chip, thermal network, TEC banks,
// fan, and the utilization power model. It also exposes the model-based
// predictions policies use (steady-state temperature and power per
// configuration).
type Machine struct {
	Platform *Platform
	Chip     *floorplan.Chip
	Fan      *fan.Model
	NW       *thermal.Network
	TECs     []tec.Placement
	// Threshold is T_th for the server experiments.
	Threshold float64

	coreComps [][]int
	tileArea  float64
	// Search state, built lazily and reused: a Machine is single-goroutine.
	basisMap map[int]*steadyBasis
	bankVecs [][]bool
	oracle   *oracleScratch
}

// steadyBasis exploits the linearity of the steady thermal system for a
// fixed (TEC banks, fan level) pair: T(P) = base + Σ_c P_c·resp_c, where
// base absorbs the ambient and TEC constant terms and resp_c is the
// response to 1 W spread over core c. The exhaustive Oracle/OFTEC searches
// evaluate tens of thousands of configurations per period; with the basis
// each evaluation is a few hundred flops instead of a linear solve.
type steadyBasis struct {
	base []float64
	resp [][]float64 // per core
}

// NewMachine assembles the §V-E machine.
func NewMachine() *Machine {
	chip := floorplan.NewQuad()
	fm := fan.DynatronR16()
	m := &Machine{
		Platform:  I7Platform(),
		Chip:      chip,
		Fan:       fm,
		NW:        thermal.NewNetwork(chip, fm, thermal.DefaultParams()),
		TECs:      tec.Array(chip, tec.DefaultDevice()),
		Threshold: 100,
		tileArea:  floorplan.TileW * floorplan.TileH,
	}
	m.coreComps = make([][]int, chip.NumCores())
	for c := 0; c < chip.NumCores(); c++ {
		m.coreComps[c] = chip.CoreComponents(c)
	}
	return m
}

// componentPower spreads per-core powers uniformly (by area) over each
// core's components into out.
func (m *Machine) componentPower(corePower []float64, out []float64) {
	for i := range out {
		out[i] = 0
	}
	for c, p := range corePower {
		for _, i := range m.coreComps[c] {
			out[i] = p * m.Chip.Components[i].Area() / m.tileArea
		}
	}
}

// bankState materializes a tec.State with whole-core banks engaged.
func (m *Machine) bankState(banks []bool) *tec.State {
	st := tec.NewState(m.TECs)
	for l, pl := range m.TECs {
		if banks[pl.Core] {
			st.Set(l, true)
		}
	}
	st.Advance(1)
	return st
}

// bankVectors returns every per-core bank vector in mask order, built once
// per Machine and shared by the searches. The vectors are read-only: a
// Decision carrying one must copy it.
func (m *Machine) bankVectors() [][]bool {
	if m.bankVecs == nil {
		m.bankVecs = enumBanks(m.Chip.NumCores())
	}
	return m.bankVecs
}

// banksMask packs a bank vector into a cache key.
func banksMask(banks []bool) int {
	mask := 0
	for c, b := range banks {
		if b {
			mask |= 1 << c
		}
	}
	return mask
}

// Basis returns (building and caching on first use) the superposition basis
// for a (banks, fan) pair.
func (m *Machine) Basis(banks []bool, fanLevel int) (*steadyBasis, error) {
	if m.basisMap == nil {
		m.basisMap = map[int]*steadyBasis{}
	}
	key := banksMask(banks)<<8 | fanLevel
	if b, ok := m.basisMap[key]; ok {
		return b, nil
	}
	st := m.bankState(banks)
	zero := make([]float64, len(m.Chip.Components))
	base, err := m.NW.Steady(zero, fanLevel, st)
	if err != nil {
		return nil, err
	}
	b := &steadyBasis{base: base, resp: make([][]float64, m.Chip.NumCores())}
	unit := make([]float64, len(m.Chip.Components))
	for c := 0; c < m.Chip.NumCores(); c++ {
		for i := range unit {
			unit[i] = 0
		}
		for _, i := range m.coreComps[c] {
			unit[i] = m.Chip.Components[i].Area() / m.tileArea
		}
		t, err := m.NW.Steady(unit, fanLevel, st)
		if err != nil {
			return nil, err
		}
		resp := make([]float64, len(t))
		for i := range t {
			resp[i] = t[i] - base[i]
		}
		b.resp[c] = resp
	}
	m.basisMap[key] = b
	return b, nil
}

// PredictSteadyFast evaluates the steady temperatures via the superposition
// basis — exact for this linear model, orders of magnitude cheaper than a
// solve. The returned slice is freshly allocated.
func (m *Machine) PredictSteadyFast(dvfs []int, util []float64, banks []bool, fanLevel int) ([]float64, error) {
	b, err := m.Basis(banks, fanLevel)
	if err != nil {
		return nil, err
	}
	t := make([]float64, len(b.base))
	m.predictInto(t, b, dvfs, util)
	return t, nil
}

// PredictSteadyInto is PredictSteadyFast writing into a caller buffer of
// NumNodes length — the zero-allocation path for exhaustive searches.
func (m *Machine) PredictSteadyInto(t []float64, dvfs []int, util []float64, banks []bool, fanLevel int) error {
	b, err := m.Basis(banks, fanLevel)
	if err != nil {
		return err
	}
	m.predictInto(t, b, dvfs, util)
	return nil
}

func (m *Machine) predictInto(t []float64, b *steadyBasis, dvfs []int, util []float64) {
	copy(t, b.base)
	for c := range dvfs {
		p := m.Platform.CorePower(dvfs[c], util[c]) + m.Platform.UncorePower/float64(len(dvfs))
		resp := b.resp[c]
		for i := range t {
			t[i] += p * resp[i]
		}
	}
}

// SearchPower is the chip-power estimate used inside exhaustive searches:
// core + uncore + fan power exactly, TEC power approximated by the Joule
// term (the α·I·Δθ component is below 1 % of a device's draw at the Δθ this
// stack sustains). Exact Eq. (9) accounting is applied in the simulation
// loop; the approximation only ranks search candidates.
func (m *Machine) SearchPower(dvfs []int, util []float64, nBanksOn, fanLevel int) float64 {
	var total float64
	for c := range dvfs {
		total += m.Platform.CorePower(dvfs[c], util[c])
	}
	total += m.Platform.UncorePower
	total += m.Fan.Power(fanLevel)
	total += m.bankJoule(nBanksOn)
	return total
}

// bankJoule returns the Joule power of n engaged banks.
func (m *Machine) bankJoule(nBanksOn int) float64 {
	if len(m.TECs) == 0 {
		return 0
	}
	dev := m.TECs[0].Device
	perBank := float64(len(m.TECs)/m.Chip.NumCores()) * dev.JouleHeat(tec.DriveCurrent)
	return float64(nBanksOn) * perBank
}

// SearchCoolingPower is the OFTEC search objective under the same TEC
// approximation.
func (m *Machine) SearchCoolingPower(nBanksOn, fanLevel int) float64 {
	return m.Fan.Power(fanLevel) + m.bankJoule(nBanksOn)
}

// PredictSteady returns the steady-state temperatures for a configuration:
// per-core DVFS levels, achieved utilizations, TEC banks, and fan level.
func (m *Machine) PredictSteady(dvfs []int, util []float64, banks []bool, fanLevel int) ([]float64, error) {
	corePower := make([]float64, m.Chip.NumCores())
	for c := range corePower {
		corePower[c] = m.Platform.CorePower(dvfs[c], util[c])
	}
	// Uncore assigned to core 0's router region is overkill; spread evenly.
	for c := range corePower {
		corePower[c] += m.Platform.UncorePower / float64(len(corePower))
	}
	comp := make([]float64, len(m.Chip.Components))
	m.componentPower(corePower, comp)
	return m.NW.Steady(comp, fanLevel, m.bankState(banks))
}

// ConfigPower returns the total chip power of a configuration given achieved
// utilizations and the temperatures (for the Eq. (9) TEC power term).
func (m *Machine) ConfigPower(dvfs []int, util []float64, banks []bool, fanLevel int, temps []float64) float64 {
	var total float64
	for c := range dvfs {
		total += m.Platform.CorePower(dvfs[c], util[c])
	}
	total += m.Platform.UncorePower
	total += m.Fan.Power(fanLevel)
	total += m.NW.TECPower(temps, m.bankState(banks))
	return total
}

// CoolingPower is the OFTEC objective: fan power plus TEC electrical power.
func (m *Machine) CoolingPower(banks []bool, fanLevel int, temps []float64) float64 {
	return m.Fan.Power(fanLevel) + m.NW.TECPower(temps, m.bankState(banks))
}

// Result aggregates a §V-E run.
type Result struct {
	Metrics perf.Metrics
	// Delay is total completion time / trace duration (1.0 = no
	// degradation): the backlog must drain after the trace ends.
	Delay float64
	// MeanUtil is the mean demanded utilization (sanity: ≈ 0.486).
	MeanUtil float64
	// MeanDVFS is the time-average level index.
	MeanDVFS float64
	// FanLevels histograms the chosen fan levels.
	FanLevels []int
}

// RunConfig parameterizes a server run.
type RunConfig struct {
	Period    float64 // control period, s (default 1)
	ThermalDT float64 // integration step, s (default 0.1)
	Threshold float64 // 0 = machine default
}

// Run simulates the four per-core traces under a policy and returns the
// §V-E metrics. After the trace ends the run continues (at the last demand
// level zeroed) until every backlog drains, which is how execution delay
// materializes for under-provisioned policies.
func (m *Machine) Run(traces [][]float64, p Policy, rc RunConfig) (*Result, error) {
	return m.RunContext(context.Background(), traces, p, rc)
}

// RunContext is Run under a context: cancellation is observed at every
// control period (1 s of simulated time) and aborts the run with a wrapped
// context error.
func (m *Machine) RunContext(ctx context.Context, traces [][]float64, p Policy, rc RunConfig) (*Result, error) {
	nCores := m.Chip.NumCores()
	if len(traces) != nCores {
		return nil, fmt.Errorf("server: %d traces for %d cores", len(traces), nCores)
	}
	if rc.Period == 0 {
		rc.Period = 1
	}
	if rc.ThermalDT == 0 {
		rc.ThermalDT = 0.1
	}
	threshold := rc.Threshold
	if threshold == 0 {
		threshold = m.Threshold
	}
	traceLen := len(traces[0])
	for _, tr := range traces {
		if len(tr) != traceLen {
			return nil, fmt.Errorf("server: ragged traces")
		}
	}

	dvfs := make([]int, nCores)
	for i := range dvfs {
		dvfs[i] = m.Platform.DVFS.Max()
	}
	banks := make([]bool, nCores)
	fanLevel := 0
	temps, err := m.PredictSteady(dvfs, fill(nCores, 0.5), banks, fanLevel)
	if err != nil {
		return nil, err
	}
	tr, err := m.NW.NewTransient(fanLevel, rc.ThermalDT)
	if err != nil {
		return nil, err
	}

	backlog := make([]float64, nCores)
	util := make([]float64, nCores)
	demand := make([]float64, nCores)
	comp := make([]float64, len(m.Chip.Components))
	corePower := make([]float64, nCores)
	var acc perf.Accumulator
	var meanDemand, meanDVFS float64
	fanHist := make([]int, m.Fan.NumLevels())

	stepsPerPeriod := int(math.Round(rc.Period / rc.ThermalDT))
	maxPeriods := traceLen * 3 // drain guard
	period := 0
	var drainTime float64
	for ; period < maxPeriods; period++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("server: canceled at t=%.4gs: %w", float64(period)*rc.Period, err)
		}
		inTrace := period < traceLen
		for c := 0; c < nCores; c++ {
			if inTrace {
				demand[c] = traces[c][period]
			} else {
				demand[c] = 0
			}
		}
		if !inTrace {
			// Stop once every queue is empty.
			var pending float64
			for _, b := range backlog {
				pending += b
			}
			if pending <= 1e-12 {
				break
			}
		}

		// Policy decision with the previous-interval state. Every slice is
		// a private copy: policies may scribble on the state without
		// corrupting the run.
		st := &State{
			Time:      float64(period) * rc.Period,
			Temps:     append([]float64(nil), temps...),
			DVFS:      append([]int(nil), dvfs...),
			Banks:     append([]bool(nil), banks...),
			FanLevel:  fanLevel,
			Demand:    append([]float64(nil), demand...),
			Backlog:   append([]float64(nil), backlog...),
			Threshold: threshold,
		}
		dec := p.Decide(st, m)
		if dec.DVFS != nil {
			for c, l := range dec.DVFS {
				dvfs[c] = m.Platform.DVFS.Clamp(l)
			}
		}
		if dec.Banks != nil {
			copy(banks, dec.Banks)
		}
		if nl := m.Fan.Clamp(dec.FanLevel); nl != fanLevel {
			fanLevel = nl
			if tr, err = m.NW.NewTransient(fanLevel, rc.ThermalDT); err != nil {
				return nil, err
			}
		}
		fanHist[fanLevel]++

		// Serve the queues.
		var ipsProxy float64
		for c := 0; c < nCores; c++ {
			served, nb := m.Platform.ServeStep(dvfs[c], demand[c]*rc.Period, backlog[c], rc.Period)
			backlog[c] = nb
			capWork := m.Platform.Capacity(dvfs[c]) * rc.Period
			if capWork > 0 {
				util[c] = served / capWork
			} else {
				util[c] = 0
			}
			ipsProxy += served / rc.Period
			meanDemand += demand[c]
			meanDVFS += float64(dvfs[c])
		}

		// Power and thermal integration over the period.
		for c := 0; c < nCores; c++ {
			corePower[c] = m.Platform.CorePower(dvfs[c], util[c]) + m.Platform.UncorePower/float64(nCores)
		}
		m.componentPower(corePower, comp)
		ts := m.bankState(banks)
		for s := 0; s < stepsPerPeriod; s++ {
			tr.Step(temps, comp, ts)
		}
		_, peak := m.NW.PeakDie(temps)
		chipPower := m.ConfigPower(dvfs, util, banks, fanLevel, temps)
		acc.Add(rc.Period, chipPower, ipsProxy, peak, threshold)
		if !inTrace {
			drainTime += rc.Period
		}
	}

	res := &Result{
		Metrics:   acc.Snapshot(),
		Delay:     (float64(traceLen)*rc.Period + drainTime) / (float64(traceLen) * rc.Period),
		MeanUtil:  meanDemand / float64(traceLen*nCores),
		MeanDVFS:  meanDVFS / float64(period*nCores),
		FanLevels: fanHist,
	}
	return res, nil
}

func fill(n int, v float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = v
	}
	return out
}
