package server

import (
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"testing"
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

// oracleCases pairs each table-driven Oracle with its direct formulation.
var oracleCases = []struct {
	name string
	new  func() *Oracle
	ref  refOracle
}{
	{"Oracle", NewOracle, refOracle{}},
	{"Oracle-P", NewOracleP, refOracle{MinPerfRatio: 1}},
}

// TestOracleMatchesReference checks, over random States, that Oracle and
// Oracle-P return exactly the decisions of the direct formulation. The
// States are the 2000 that quick.Check would draw from seed 12, split
// across parallel shards, each with its own Oracle and Machines.
func TestOracleMatchesReference(t *testing.T) {
	const states, shards = 2000, 8
	r := rand.New(rand.NewSource(12))
	all := make([]*State, states)
	var fallbacks int
	for i := range all {
		all[i] = randomState{}.Generate(r, 0).Interface().(randomState).st
		if all[i].Threshold == unreachable {
			fallbacks++
		}
	}
	if fallbacks == 0 {
		t.Fatal("no state exercised the keep-current fallback")
	}
	for _, tc := range oracleCases {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			for k := 0; k < shards; k++ {
				t.Run(strconv.Itoa(k), func(t *testing.T) {
					t.Parallel()
					o, mNew, mRef := tc.new(), NewMachine(), NewMachine()
					for i := k; i < states; i += shards {
						st := all[i]
						got := o.Decide(cloneState(st), mNew)
						want := tc.ref.Decide(cloneState(st), mRef)
						if st.Threshold == unreachable {
							keep := Decision{DVFS: st.DVFS, Banks: st.Banks, FanLevel: st.FanLevel}
							if !reflect.DeepEqual(got, keep) {
								t.Fatalf("state %d, unreachable threshold: got %+v, want the current %+v", i, got, keep)
							}
						}
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("state %d %+v: got %+v, want %+v", i, st, got, want)
						}
					}
				})
			}
		})
	}
}

// TestOracleEdgeStates checks Oracle and Oracle-P against the direct
// formulation on States that the block skips must get right:
//   - a NaN demand makes every EPI NaN, and a NaN passes the strict
//     improvement test, so every candidate goes to the thermal check and
//     the last feasible one wins; a block whose table holds a NaN must
//     never be skipped;
//   - under Oracle-P, a state whose best candidate is tied with a later
//     bank vector with as many banks on, where the first must win;
//   - an unreachable threshold, where the current configuration is kept.
func TestOracleEdgeStates(t *testing.T) {
	m := NewMachine()
	n := m.Chip.NumCores()
	state := func(threshold float64, demand ...float64) *State {
		return &State{
			Temps:     make([]float64, m.NW.NumNodes()),
			DVFS:      []int{1, 2, 3, 4},
			Banks:     []bool{false, true, false, true},
			FanLevel:  2,
			Demand:    demand,
			Backlog:   make([]float64, n),
			Threshold: threshold,
		}
	}
	nan := state(90, 0.5, math.NaN(), 0.5, 0.5)
	tie := state(84, 1.4, 0.8, 0.7, 0.03)
	stuck := state(unreachable, 0.5, 0.5, 0.5, 0.5)
	for _, tc := range oracleCases {
		for _, c := range []struct {
			name string
			st   *State
		}{{"nan", nan}, {"tie", tie}, {"unreachable", stuck}} {
			got := tc.new().Decide(cloneState(c.st), m)
			want := tc.ref.Decide(cloneState(c.st), m)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s %s: got %+v, want %+v", tc.name, c.name, got, want)
			}
		}
	}

	// The cases hold what they claim.
	last := Decision{DVFS: []int{4, 4, 4, 4}, Banks: []bool{true, true, true, true}, FanLevel: m.Fan.NumLevels() - 1}
	if got := NewOracle().Decide(cloneState(nan), m); !reflect.DeepEqual(got, last) {
		t.Errorf("nan: got %+v, want the last candidate %+v", got, last)
	}
	keep := Decision{DVFS: stuck.DVFS, Banks: stuck.Banks, FanLevel: stuck.FanLevel}
	if got := NewOracleP().Decide(cloneState(stuck), m); !reflect.DeepEqual(got, keep) {
		t.Errorf("unreachable: got %+v, want the current %+v", got, keep)
	}
	dec := NewOracleP().Decide(cloneState(tie), m)
	util := make([]float64, n)
	for c, l := range dec.DVFS {
		capc := m.Platform.Capacity(l)
		util[c] = math.Min(tie.Demand[c], capc) / capc
	}
	mask, on := banksMask(dec.Banks), countOn(dec.Banks)
	tied := false
	for later := mask + 1; later < len(m.bankVecs) && !tied; later++ {
		banks := m.bankVecs[later]
		if countOn(banks) != on {
			continue
		}
		temps, err := m.PredictSteady(dec.DVFS, util, banks, dec.FanLevel)
		if err != nil {
			t.Fatal(err)
		}
		_, peak := m.NW.PeakDie(temps)
		tied = peak <= tie.Threshold
	}
	if on == 0 || !tied {
		t.Errorf("tie: decision %+v has no feasible later bank vector with %d banks on", dec, on)
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
