package server

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// refOracle is the direct formulation of Oracle.Decide: every candidate
// recomputes its capacities, utilizations and SearchPower from scratch.
// The table-driven Oracle must reproduce its decisions bit for bit.
type refOracle struct {
	MinPerfRatio float64
}

func (refOracle) Name() string { return "refOracle" }

func (o refOracle) Decide(st *State, m *Machine) Decision {
	n := m.Chip.NumCores()
	table := m.Platform.DVFS
	levels := table.Num()
	nConfigs := 1
	for i := 0; i < n; i++ {
		nConfigs *= levels
	}
	best := Decision{DVFS: append([]int(nil), st.DVFS...), Banks: st.Banks, FanLevel: st.FanLevel}
	bestEPI := math.Inf(1)
	dvfs := make([]int, n)
	util := make([]float64, n)
	temps := make([]float64, m.NW.NumNodes())
	for _, banks := range enumBanks(n) {
		nOn := countOn(banks)
		for f := 0; f < m.Fan.NumLevels(); f++ {
			for cfg := 0; cfg < nConfigs; cfg++ {
				x := cfg
				ok := true
				var throughput float64
				for c := 0; c < n; c++ {
					dvfs[c] = x % levels
					x /= levels
					capc := m.Platform.Capacity(dvfs[c])
					pending := st.Demand[c] + st.Backlog[c]
					if o.MinPerfRatio > 0 && capc < o.MinPerfRatio*math.Min(pending, 1) {
						ok = false
						break
					}
					served := math.Min(pending, capc)
					if capc > 0 {
						util[c] = served / capc
					} else {
						util[c] = 0
					}
					throughput += served
				}
				if !ok || throughput <= 0 {
					continue
				}
				epi := m.SearchPower(dvfs, util, nOn, f) / throughput
				if epi >= bestEPI {
					continue // cannot win; skip the thermal evaluation
				}
				if err := m.PredictSteadyInto(temps, dvfs, util, banks, f); err != nil {
					continue
				}
				if _, peak := m.NW.PeakDie(temps); peak > st.Threshold {
					continue
				}
				bestEPI = epi
				best = Decision{
					DVFS:     append([]int(nil), dvfs...),
					Banks:    append([]bool(nil), banks...),
					FanLevel: f,
				}
			}
		}
	}
	return best
}

// unreachable is a threshold below ambient: no configuration meets it.
const unreachable = 20

// randomState draws a State for the equivalence property: pending work in
// [0, 1.5] per core (demand and backlog each), thresholds in [60, 110] °C
// with one in 64 below anything the chip can reach, and a random
// current configuration.
type randomState struct{ st *State }

func (randomState) Generate(r *rand.Rand, _ int) reflect.Value {
	m := genMachine
	n := m.Chip.NumCores()
	st := &State{
		Temps:     make([]float64, m.NW.NumNodes()),
		DVFS:      make([]int, n),
		Banks:     make([]bool, n),
		FanLevel:  r.Intn(m.Fan.NumLevels()),
		Demand:    make([]float64, n),
		Backlog:   make([]float64, n),
		Threshold: 60 + 50*r.Float64(),
	}
	if r.Intn(64) == 0 {
		st.Threshold = unreachable
	}
	for i := range st.Temps {
		st.Temps[i] = 45 + 50*r.Float64()
	}
	for c := 0; c < n; c++ {
		st.DVFS[c] = r.Intn(m.Platform.DVFS.Num())
		st.Banks[c] = r.Intn(2) == 1
		st.Demand[c] = 1.5 * r.Float64()
		st.Backlog[c] = 1.5 * r.Float64()
		if r.Intn(4) == 0 {
			st.Backlog[c] = 0 // the common case in a run
		}
	}
	return reflect.ValueOf(randomState{st})
}

// genMachine gives the generator its sizes; it is only read.
var genMachine = NewMachine()

func cloneState(st *State) *State {
	c := *st
	c.Temps = append([]float64(nil), st.Temps...)
	c.DVFS = append([]int(nil), st.DVFS...)
	c.Banks = append([]bool(nil), st.Banks...)
	c.Demand = append([]float64(nil), st.Demand...)
	c.Backlog = append([]float64(nil), st.Backlog...)
	return &c
}

// TestOracleMatchesReference checks, over random States, that Oracle and
// Oracle-P return exactly the decisions of the direct formulation.
func TestOracleMatchesReference(t *testing.T) {
	const states = 2000
	for _, tc := range []struct {
		name string
		new  *Oracle
		ref  refOracle
	}{
		{"Oracle", NewOracle(), refOracle{}},
		{"Oracle-P", NewOracleP(), refOracle{MinPerfRatio: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			mNew, mRef := NewMachine(), NewMachine()
			var fallbacks int
			prop := func(rs randomState) bool {
				got := tc.new.Decide(cloneState(rs.st), mNew)
				want := tc.ref.Decide(cloneState(rs.st), mRef)
				if rs.st.Threshold == unreachable {
					fallbacks++
					keep := Decision{DVFS: rs.st.DVFS, Banks: rs.st.Banks, FanLevel: rs.st.FanLevel}
					if !reflect.DeepEqual(got, keep) {
						t.Logf("unreachable threshold: got %+v, want the current %+v", got, keep)
						return false
					}
				}
				if !reflect.DeepEqual(got, want) {
					t.Logf("state %+v: got %+v, want %+v", rs.st, got, want)
					return false
				}
				return true
			}
			cfg := &quick.Config{MaxCount: states, Rand: rand.New(rand.NewSource(12))}
			if err := quick.Check(prop, cfg); err != nil {
				t.Fatal(err)
			}
			if fallbacks == 0 {
				t.Fatal("no state exercised the keep-current fallback")
			}
		})
	}
}

// TestOracleRunMatchesReference checks a whole run: 120 s of the paper
// traces give the same Result under either formulation.
func TestOracleRunMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		new *Oracle
		ref refOracle
	}{
		{NewOracle(), refOracle{}},
		{NewOracleP(), refOracle{MinPerfRatio: 1}},
	} {
		t.Run(tc.new.Name(), func(t *testing.T) {
			t.Parallel()
			traces := shortTraces(120)
			got, err := NewMachine().Run(traces, tc.new, RunConfig{})
			if err != nil {
				t.Fatal(err)
			}
			want, err := NewMachine().Run(traces, tc.ref, RunConfig{})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("run diverged:\n got  %+v\n want %+v", got, want)
			}
		})
	}
}

// TestOracleEPIBitIdentical checks the invariant behind the equivalence:
// every candidate the tables score gets exactly the EPI the direct
// formulation computes, bit for bit, and the same candidates are skipped.
func TestOracleEPIBitIdentical(t *testing.T) {
	for _, o := range []*Oracle{NewOracle(), NewOracleP()} {
		m, states := recordStates(t, o, 40)
		n, levels := m.Chip.NumCores(), m.Platform.DVFS.Num()
		dvfs, util := make([]int, n), make([]float64, n)
		for i := 0; i < len(states); i += 4 {
			st := states[i]
			o.Decide(st, m)
			s := o.searchScratch(m)
			for cfg, scored := range s.ok {
				x, ok := cfg, true
				var throughput float64
				for c := 0; c < n; c++ {
					dvfs[c] = x % levels
					x /= levels
					capc := m.Platform.Capacity(dvfs[c])
					pending := st.Demand[c] + st.Backlog[c]
					if o.MinPerfRatio > 0 && capc < o.MinPerfRatio*math.Min(pending, 1) {
						ok = false
						break
					}
					served := math.Min(pending, capc)
					util[c] = served / capc
					throughput += served
				}
				if want := ok && !(throughput <= 0); scored != want {
					t.Fatalf("%s state %d cfg %d: scored %v, want %v", o.Name(), i, cfg, scored, want)
				}
				if !scored {
					continue
				}
				for _, banks := range m.bankVecs {
					nOn := countOn(banks)
					for f := 0; f < m.Fan.NumLevels(); f++ {
						want := m.SearchPower(dvfs, util, nOn, f) / throughput
						if got := s.epi(cfg, m.Fan.Power(f), m.bankJoule(nOn)); got != want {
							t.Fatalf("%s state %d cfg %d banks %v fan %d: EPI %v, want %v (%#x vs %#x)",
								o.Name(), i, cfg, banks, f, got, want, math.Float64bits(got), math.Float64bits(want))
						}
					}
				}
			}
		}
	}
}
