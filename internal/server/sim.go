package server

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync"

	"tecfan/internal/fan"
	"tecfan/internal/floorplan"
	"tecfan/internal/linalg"
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
//
// A Machine is safe for concurrent runs: everything on it is read-only once
// NewMachine returns (the 2^N bank vectors and their TEC states among it)
// except the superposition bases, which Basis builds once per (banks, fan)
// key under a lock and then shares. What belongs to one run lives with that
// run: its temperatures, queues and transient integrator in RunContext, and
// any search scratch in the Policy value — a Policy value serves one run at
// a time.
type Machine struct {
	Platform *Platform
	Chip     *floorplan.Chip
	Fan      *fan.Model
	NW       *thermal.Network
	TECs     []tec.Placement
	// Threshold is T_th for the server experiments.
	Threshold float64

	tileArea float64
	// bankVecs lists every per-core bank vector in mask order. The vectors
	// are read-only: a Decision carrying one must copy it.
	bankVecs [][]bool
	// bankStates holds each bank vector's TEC state, whole-core banks
	// engaged, indexed by banksMask. The solves and TECPower only read a
	// tec.State, so every run shares them.
	bankStates []*tec.State

	basisMu sync.Mutex
	bases   map[int]*cachedBasis
}

// cachedBasis is one (banks, fan) key's basis, built by the first caller
// that asks for it.
type cachedBasis struct {
	once sync.Once
	b    *steadyBasis
	err  error
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
		bankVecs:  enumBanks(chip.NumCores()),
		bases:     map[int]*cachedBasis{},
	}
	m.bankStates = make([]*tec.State, len(m.bankVecs))
	for mask, banks := range m.bankVecs {
		st := tec.NewState(m.TECs)
		for l, pl := range m.TECs {
			if banks[pl.Core] {
				st.Set(l, true)
			}
		}
		st.Advance(1)
		m.bankStates[mask] = st
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
		for _, i := range m.Chip.CoreComponents(c) {
			out[i] = p * m.Chip.Components[i].Area() / m.tileArea
		}
	}
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

// Basis returns the superposition basis for a (banks, fan) pair, building
// it on the first call for that pair; concurrent callers share one build.
func (m *Machine) Basis(banks []bool, fanLevel int) (*steadyBasis, error) {
	mask := banksMask(banks)
	key := mask<<8 | fanLevel
	m.basisMu.Lock()
	e := m.bases[key]
	if e == nil {
		e = &cachedBasis{}
		m.bases[key] = e
	}
	m.basisMu.Unlock()
	e.once.Do(func() {
		defer func() {
			if r := recover(); r != nil {
				e.err = fmt.Errorf("server: basis build panicked: %v", r)
				panic(r)
			}
		}()
		e.b, e.err = m.buildBasis(mask, fanLevel)
	})
	return e.b, e.err
}

// buildBasis solves the base and the per-core unit responses of a (banks,
// fan) key as one block of steady solves: column 0 at zero power, column
// c+1 at 1 W spread over core c, each warm-started at ambient as NW.Steady
// starts. SteadyBatch leaves every column bitwise what its own NW.Steady
// would. The quad's N+1 = 5 columns fit one block of linalg.BlockWidth.
func (m *Machine) buildBasis(mask, fanLevel int) (*steadyBasis, error) {
	blk := m.NW.LeaseSteadyBlock()
	defer m.NW.ReturnSteadyBlock(blk)
	cols := make([][]float64, m.Chip.NumCores()+1) // base, then one per core
	for j := range cols {
		linalg.Fill(blk.T[j], m.NW.Params.AmbientC)
		linalg.Fill(blk.Power[j], 0)
		if j > 0 {
			for _, i := range m.Chip.CoreComponents(j - 1) {
				blk.Power[j][i] = m.Chip.Components[i].Area() / m.tileArea
			}
		}
	}
	m.NW.SteadyBatch(blk, len(cols), fanLevel, m.bankStates[mask])
	for j := range cols {
		if err := blk.Err[j]; err != nil {
			return nil, err
		}
		cols[j] = slices.Clone(blk.T[j])
	}
	base := cols[0]
	for _, resp := range cols[1:] {
		for i := range resp {
			resp[i] -= base[i]
		}
	}
	return &steadyBasis{base: base, resp: cols[1:]}, nil
}

// PredictSteadyInto evaluates the steady temperatures via the superposition
// basis — exact for this linear model, orders of magnitude cheaper than a
// solve — into a caller buffer of NumNodes length, without allocating, for
// exhaustive searches.
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
	return m.NW.Steady(comp, fanLevel, m.bankStates[banksMask(banks)])
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
	total += m.NW.TECPower(temps, m.bankStates[banksMask(banks)])
	return total
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
		ts := m.bankStates[banksMask(banks)]
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
