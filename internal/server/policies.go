package server

import (
	"math"
	"slices"
)

// This file implements the §V-E contenders. OFTEC and Oracle perform the
// exhaustive searches the paper describes (the paper deliberately runs
// OFTEC with exhaustive search instead of its active-set SQP so both find
// true optima; time overheads are not compared). TECfan is the paper's
// heuristic specialized to the utilization workload; Oracle-P is Oracle
// under TECfan's (zero) performance-degradation budget.

// enumBanks lists all 2^n per-core TEC bank vectors in mask order.
func enumBanks(n int) [][]bool {
	out := make([][]bool, 0, 1<<n)
	for mask := 0; mask < 1<<n; mask++ {
		b := make([]bool, n)
		for c := 0; c < n; c++ {
			b[c] = mask&(1<<c) != 0
		}
		out = append(out, b)
	}
	return out
}

func countOn(b []bool) int {
	n := 0
	for _, v := range b {
		if v {
			n++
		}
	}
	return n
}

// OFTEC minimizes cooling power (fan + TEC) subject to the temperature
// constraint, leaving DVFS untouched at maximum — the state of the art [8]
// the paper compares against. Complexity O(2^N·F) per period with per-core
// banks.
type OFTEC struct{}

// Name implements Policy.
func (OFTEC) Name() string { return "OFTEC" }

// Decide implements Policy.
func (OFTEC) Decide(st *State, m *Machine) Decision {
	n := m.Chip.NumCores()
	dvfs := make([]int, n)
	util := make([]float64, n)
	for c := 0; c < n; c++ {
		dvfs[c] = m.Platform.DVFS.Max()
		// Max DVFS ⇒ achieved utilization equals demand (capacity 1).
		util[c] = clamp01(st.Demand[c] + st.Backlog[c])
	}
	bankVecs := m.bankVecs
	bestBank, bestFan := -1, st.FanLevel
	bestCost := math.Inf(1)
	temps := make([]float64, m.NW.NumNodes())
	for bi, banks := range bankVecs {
		nOn := countOn(banks)
		for f := 0; f < m.Fan.NumLevels(); f++ {
			cost := m.SearchCoolingPower(nOn, f)
			if cost >= bestCost {
				continue // cannot win; skip the thermal evaluation
			}
			if err := m.PredictSteadyInto(temps, dvfs, util, banks, f); err != nil {
				continue
			}
			if _, peak := m.NW.PeakDie(temps); peak > st.Threshold {
				continue
			}
			bestCost, bestBank, bestFan = cost, bi, f
		}
	}
	banks := st.Banks
	if bestBank >= 0 {
		banks = bankVecs[bestBank]
	}
	return Decision{DVFS: dvfs, Banks: slices.Clone(banks), FanLevel: bestFan}
}

// Oracle exhaustively minimizes EPI over DVFS levels, TEC banks, and fan
// level under the temperature constraint — the paper's optimal-but-
// impractical reference, 2^N·F·M^N candidates per period.
//
// Only the bank mask and the fan level change between the 2^N·F passes
// over the M^N DVFS configurations, so Decide hoists everything else out
// of the sweep: an O(N·M) per-core, per-level table (capacity, served
// work, utilization, core power, Oracle-P admissibility) and an O(M^N)
// per-configuration table (admissible, throughput, core + uncore power).
// A candidate's EPI depends on its bank vector only through the count of
// banks on, so the sweep scores at most (N+1)·F EPI tables, one per
// (banks-on, fan) pair, each filled on first use; only a candidate that
// beats the running minimum is decoded and sent to the thermal check.
//
// A (bank vector, fan) block is skipped whole when none of its candidates
// can beat the running minimum: its table holds no NaN and its minimum is
// at least the best EPI so far (itself not NaN). A table not yet filled is
// skipped unscored when a filled one that cannot win has no more fan power
// and no more Joule power: ((core + uncore) + fan) + joule rounds
// monotonically in fan and joule and the throughput is positive, so none
// of its EPIs is smaller. Every candidate a skip passes over would have
// failed the strict test anyway.
//
// The tables must not move a decision by one bit. Each candidate's EPI is
// SearchPower(dvfs, util, nOn, f) / throughput evaluated in SearchPower's
// own order, ((Σ_c core + uncore) + fan) + joule with c = 0…N−1, and the
// throughput is summed in the same core order. Floating-point addition is
// not associative, so any regrouping (say, fan + joule first) can change
// the last bit of an EPI and flip a near-tie. With the same sums and the
// strict improvement rule (the first minimum in enumeration order wins),
// decisions, and so the Fig. 7 rows, match the direct per-candidate loop.
//
// The tables live in the Oracle value, so one Oracle serves one run at a
// time; concurrent runs each take their own.
type Oracle struct {
	// MinPerfRatio, when positive, additionally requires every core's
	// capacity to cover that fraction of its pending demand — the Oracle-P
	// constraint ("exactly the same performance degradation as TECfan",
	// which degrades nothing).
	MinPerfRatio float64
	name         string
	scratch      *oracleScratch
}

// NewOracle returns the unconstrained Oracle.
func NewOracle() *Oracle { return &Oracle{name: "Oracle"} }

// NewOracleP returns Oracle-P: Oracle restricted to zero performance
// degradation.
func NewOracleP() *Oracle { return &Oracle{MinPerfRatio: 1, name: "Oracle-P"} }

// Name implements Policy.
func (o *Oracle) Name() string { return o.name }

// oracleScratch is the Oracle's search state, reused across calls so a
// Decide allocates only the Decision it returns. Per-core tables are
// indexed c·M + l, per-configuration tables by the configuration number
// whose base-M digits are the core levels (core 0 least significant). EPI
// tables are numbered t = nOn·F + f; table t holds its EPIs at
// epis[t·M^N + cfg].
type oracleScratch struct {
	served, util, power []float64 // per core and level
	admit               []bool    // per core and level: Oracle-P admissible
	ok                  []bool    // per configuration: admissible, throughput > 0
	thr, pcu            []float64 // per configuration: Σ served, Σ core + uncore
	dvfs                []int
	cfgUtil, temps      []float64

	epis []float64 // per table and configuration: the EPI, where ok
	tabs []epiTable
}

// epiTable describes one EPI table in a Decide.
type epiTable struct {
	filled, nan     bool    // filled this Decide; holds a NaN EPI
	lo, fanP, joule float64 // minimum EPI; the fan and Joule power it was scored at
}

// searchScratch returns the Oracle's search scratch, sized for m and built
// on first use.
func (o *Oracle) searchScratch(m *Machine) *oracleScratch {
	if o.scratch != nil {
		return o.scratch
	}
	n, levels := m.Chip.NumCores(), m.Platform.DVFS.Num()
	nConfigs := 1
	for i := 0; i < n; i++ {
		nConfigs *= levels
	}
	nTabs := (n + 1) * m.Fan.NumLevels()
	o.scratch = &oracleScratch{
		served:  make([]float64, n*levels),
		util:    make([]float64, n*levels),
		power:   make([]float64, n*levels),
		admit:   make([]bool, n*levels),
		ok:      make([]bool, nConfigs),
		thr:     make([]float64, nConfigs),
		pcu:     make([]float64, nConfigs),
		dvfs:    make([]int, n),
		cfgUtil: make([]float64, n),
		temps:   make([]float64, m.NW.NumNodes()),
		epis:    make([]float64, nTabs*nConfigs),
		tabs:    make([]epiTable, nTabs),
	}
	return o.scratch
}

// epi scores configuration cfg at a fan power and a bank Joule power:
// SearchPower / throughput, in SearchPower's summation order.
func (s *oracleScratch) epi(cfg int, fanP, joule float64) float64 {
	return (s.pcu[cfg] + fanP + joule) / s.thr[cfg]
}

// table returns EPI table t.
func (s *oracleScratch) table(t int) []float64 {
	return s.epis[t*len(s.ok) : (t+1)*len(s.ok)]
}

// fill scores every admissible configuration into table t at a fan power
// and a Joule power, and records the table's minimum and NaN flag.
func (s *oracleScratch) fill(t int, fanP, joule float64) {
	tab := s.table(t)
	lo, nan := math.Inf(1), false
	for cfg, ok := range s.ok {
		if !ok {
			continue
		}
		epi := s.epi(cfg, fanP, joule)
		tab[cfg] = epi
		if epi < lo {
			lo = epi
		} else if epi != epi {
			nan = true
		}
	}
	s.tabs[t] = epiTable{filled: true, nan: nan, lo: lo, fanP: fanP, joule: joule}
}

// cannotWin reports that no EPI in a filled table is below bestEPI: the
// table holds no NaN and its minimum is at least bestEPI (a NaN bestEPI
// fails the comparison, so nothing is ruled out against it).
func (tb *epiTable) cannotWin(bestEPI float64) bool {
	return !tb.nan && tb.lo >= bestEPI
}

// dominated reports that a filled table with no more fan power and no more
// Joule power cannot win, so no table at (fanP, joule) can either.
func (s *oracleScratch) dominated(fanP, joule, bestEPI float64) bool {
	for i := range s.tabs {
		if tb := &s.tabs[i]; tb.filled && tb.fanP <= fanP && tb.joule <= joule && tb.cannotWin(bestEPI) {
			return true
		}
	}
	return false
}

// Decide implements Policy.
func (o *Oracle) Decide(st *State, m *Machine) Decision {
	n := m.Chip.NumCores()
	levels := m.Platform.DVFS.Num()
	s := o.searchScratch(m)

	// Per core and level.
	for c := 0; c < n; c++ {
		pending := st.Demand[c] + st.Backlog[c]
		for l := 0; l < levels; l++ {
			k := c*levels + l
			capc := m.Platform.Capacity(l)
			s.admit[k] = !(o.MinPerfRatio > 0 && capc < o.MinPerfRatio*math.Min(pending, 1))
			served := math.Min(pending, capc)
			u := 0.0
			if capc > 0 {
				u = served / capc
			}
			s.served[k], s.util[k] = served, u
			if !(u < 0) { // negative pending work: CorePower panics, see below
				s.power[k] = m.Platform.CorePower(l, u)
			}
		}
	}

	// Per configuration.
	for cfg := range s.ok {
		x := cfg
		ok := true
		var thr float64
		for c := 0; c < n; c++ {
			k := c*levels + x%levels
			x /= levels
			if !s.admit[k] {
				ok = false
				break
			}
			thr += s.served[k]
		}
		s.ok[cfg] = ok && !(thr <= 0) // not thr > 0: a NaN throughput is scored
		if !s.ok[cfg] {
			continue
		}
		var pcu float64
		x = cfg
		for c := 0; c < n; c++ {
			l := x % levels
			x /= levels
			k := c*levels + l
			p := s.power[k]
			if s.util[k] < 0 {
				p = m.Platform.CorePower(l, s.util[k]) // panics, as SearchPower on this candidate does
			}
			pcu += p
		}
		s.thr[cfg], s.pcu[cfg] = thr, pcu+m.Platform.UncorePower
	}

	// The sweep, one (bank vector, fan) block at a time.
	clear(s.tabs)
	bankVecs := m.bankVecs
	fans := m.Fan.NumLevels()
	bestCfg, bestBank, bestFan := -1, -1, -1
	bestEPI := math.Inf(1)
	for bi, banks := range bankVecs {
		nOn := countOn(banks)
		joule := m.bankJoule(nOn)
		for f := 0; f < fans; f++ {
			t := nOn*fans + f
			if !s.tabs[t].filled {
				fanP := m.Fan.Power(f)
				if s.dominated(fanP, joule, bestEPI) {
					continue
				}
				s.fill(t, fanP, joule)
			}
			if s.tabs[t].cannotWin(bestEPI) {
				continue
			}
			tab := s.table(t)
			for cfg, ok := range s.ok {
				if !ok {
					continue
				}
				epi := tab[cfg]
				if epi >= bestEPI {
					continue // cannot win; skip the thermal evaluation
				}
				x := cfg
				for c := 0; c < n; c++ {
					l := x % levels
					x /= levels
					s.dvfs[c], s.cfgUtil[c] = l, s.util[c*levels+l]
				}
				if err := m.PredictSteadyInto(s.temps, s.dvfs, s.cfgUtil, banks, f); err != nil {
					continue
				}
				if _, peak := m.NW.PeakDie(s.temps); peak > st.Threshold {
					continue
				}
				bestEPI, bestCfg, bestBank, bestFan = epi, cfg, bi, f
			}
		}
	}

	if bestCfg < 0 { // nothing meets the threshold: keep the current configuration
		return Decision{DVFS: slices.Clone(st.DVFS), Banks: slices.Clone(st.Banks), FanLevel: st.FanLevel}
	}
	dvfs := make([]int, n)
	for c, x := 0, bestCfg; c < n; c++ {
		dvfs[c] = x % levels
		x /= levels
	}
	return Decision{DVFS: dvfs, Banks: slices.Clone(bankVecs[bestBank]), FanLevel: bestFan}
}

// TECfan is the paper's heuristic specialized to the server workload. The
// lower level follows the §III-D structure — hot iterations engage TEC banks
// before throttling, cool iterations restore capacity headroom before
// shedding TEC power — with DVFS selection driven by estimated EPI under the
// no-degradation rule the paper reports ("TECfan can select appropriate DVFS
// levels ... without degrading the performance"): a core's capacity never
// drops below its pending demand. The fan moves at most one level per
// period, reflecting its slow actuation.
type TECfan struct {
	// Margin is the capacity headroom kept above demand (fraction).
	Margin float64
}

// Name implements Policy.
func (TECfan) Name() string { return "TECfan" }

// Decide implements Policy.
func (tf TECfan) Decide(st *State, m *Machine) Decision {
	n := m.Chip.NumCores()
	table := m.Platform.DVFS
	margin := tf.Margin
	if margin == 0 {
		margin = 0.05
	}
	// Demand-following DVFS: the lowest level whose capacity covers the
	// pending work plus margin (performance priority: never degrade).
	dvfs := make([]int, n)
	util := make([]float64, n)
	for c := 0; c < n; c++ {
		pending := clamp01(st.Demand[c] + st.Backlog[c])
		need := math.Min(pending*(1+margin), 1)
		level := table.Max()
		for l := 0; l <= table.Max(); l++ {
			if m.Platform.Capacity(l) >= need {
				level = l
				break
			}
		}
		dvfs[c] = level
		capc := m.Platform.Capacity(level)
		util[c] = math.Min(pending, capc) / capc
	}

	// Cooling coordination: evaluate TEC banks exhaustively over the N
	// cores, fan restricted to ±1 of the current level — the heuristic's
	// bounded walk rather than the Oracle's full sweep.
	bestBanks := append([]bool(nil), st.Banks...)
	bestFan := st.FanLevel
	bestEPI := math.Inf(1)
	feasibleFound := false
	var throughput float64
	for c := 0; c < n; c++ {
		throughput += util[c] * m.Platform.Capacity(dvfs[c])
	}
	temps := make([]float64, m.NW.NumNodes())
	for _, banks := range m.bankVecs {
		nOn := countOn(banks)
		for df := -1; df <= 1; df++ {
			f := m.Fan.Clamp(st.FanLevel + df)
			if err := m.PredictSteadyInto(temps, dvfs, util, banks, f); err != nil {
				continue
			}
			if _, peak := m.NW.PeakDie(temps); peak > st.Threshold {
				continue
			}
			epi := m.SearchPower(dvfs, util, nOn, f) / math.Max(throughput, 1e-9)
			if epi < bestEPI {
				bestEPI = epi
				bestBanks = append(bestBanks[:0:0], banks...)
				bestFan = f
				feasibleFound = true
			}
		}
	}
	if !feasibleFound {
		// Hot iteration fallback: all banks on, fan one step faster; if the
		// prediction still violates, throttle the hottest core one step
		// (performance priority: TECs and fan first, DVFS last).
		for i := range bestBanks {
			bestBanks[i] = true
		}
		bestFan = m.Fan.Clamp(st.FanLevel - 1)
		if err := m.PredictSteadyInto(temps, dvfs, util, bestBanks, bestFan); err == nil {
			if _, peak := m.NW.PeakDie(temps); peak > st.Threshold {
				hc := hottestCore(m, temps)
				if dvfs[hc] > 0 {
					dvfs[hc]--
				}
			}
		}
	}
	return Decision{DVFS: dvfs, Banks: bestBanks, FanLevel: bestFan}
}

// hottestCore returns the core whose components run hottest.
func hottestCore(m *Machine, temps []float64) int {
	best, bestT := 0, math.Inf(-1)
	for c := 0; c < m.Chip.NumCores(); c++ {
		if _, t := m.NW.CorePeak(temps, c); t > bestT {
			best, bestT = c, t
		}
	}
	return best
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}
