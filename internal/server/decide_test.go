package server

import (
	"reflect"
	"testing"
)

// recorder passes a policy's decisions through and keeps a private copy of
// every State it was asked to decide on.
type recorder struct {
	Policy
	states []*State
}

func (r *recorder) Decide(st *State, m *Machine) Decision {
	r.states = append(r.states, cloneState(st))
	return r.Policy.Decide(st, m)
}

// recordStates runs p over the first seconds of the paper traces and
// returns the Machine it ran on, with every (banks, fan) basis built, and
// the States p decided on.
func recordStates(tb testing.TB, p Policy, seconds int) (*Machine, []*State) {
	tb.Helper()
	m := NewMachine()
	rec := &recorder{Policy: p}
	if _, err := m.Run(shortTraces(seconds), rec, RunConfig{}); err != nil {
		tb.Fatal(err)
	}
	for _, banks := range m.bankVectors() {
		for f := 0; f < m.Fan.NumLevels(); f++ {
			if _, err := m.Basis(banks, f); err != nil {
				tb.Fatal(err)
			}
		}
	}
	return m, rec.states
}

// recordings caches the Fig. 7 replays across a benchmark's b.N rounds.
var recordings = map[string]struct {
	m      *Machine
	states []*State
}{}

// benchOracle replays the States an Oracle saw over a 200 s Fig. 7 run.
func benchOracle(b *testing.B, o *Oracle) {
	r, ok := recordings[o.Name()]
	if !ok {
		r.m, r.states = recordStates(b, o, 200)
		recordings[o.Name()] = r
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o.Decide(r.states[i%len(r.states)], r.m)
	}
}

// BenchmarkOracleDecide measures one exhaustive Oracle decision on the
// 4-core server (2^N·F·M^N candidates) over the States of a Fig. 7 run.
func BenchmarkOracleDecide(b *testing.B) { benchOracle(b, NewOracle()) }

// BenchmarkOraclePDecide is BenchmarkOracleDecide for Oracle-P.
func BenchmarkOraclePDecide(b *testing.B) { benchOracle(b, NewOracleP()) }

// TestOracleDecideAllocs bounds a warm Decide to its two result slices,
// DVFS and Banks, on the States of a run and on the keep-current fallback.
func TestOracleDecideAllocs(t *testing.T) {
	for _, o := range []*Oracle{NewOracle(), NewOracleP()} {
		m, states := recordStates(t, o, 30)
		stuck := cloneState(states[len(states)/2])
		stuck.Threshold = unreachable
		states = append(states, stuck)
		i := 0
		allocs := testing.AllocsPerRun(len(states), func() {
			o.Decide(states[i%len(states)], m)
			i++
		})
		if allocs > 2 {
			t.Errorf("%s: %.1f allocations per Decide, want at most 2 (DVFS, Banks)", o.Name(), allocs)
		}
	}
}

// TestDecisionOwnsBanks scribbles on every returned Decision.Banks, as a
// caller that edits a decision in place would, and checks that the next decision and the
// Machine's shared bank vectors are unaffected.
func TestDecisionOwnsBanks(t *testing.T) {
	_, states := recordStates(t, TECfan{}, 20)
	stuck := cloneState(states[len(states)/2])
	stuck.Threshold = unreachable
	states = append(states[:6], stuck)
	for _, p := range []Policy{OFTEC{}, TECfan{}, NewOracle()} {
		m := NewMachine()
		for i, st := range states {
			dec := p.Decide(cloneState(st), m)
			want := Decision{
				DVFS:     append([]int(nil), dec.DVFS...),
				Banks:    append([]bool(nil), dec.Banks...),
				FanLevel: dec.FanLevel,
			}
			for c := range dec.Banks {
				dec.Banks[c] = !dec.Banks[c]
			}
			if got := p.Decide(cloneState(st), m); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s state %d: decision after scribbling %+v, want %+v", p.Name(), i, got, want)
			}
			if !reflect.DeepEqual(m.bankVectors(), enumBanks(m.Chip.NumCores())) {
				t.Fatalf("%s state %d: scribbling reached the shared bank vectors", p.Name(), i)
			}
		}
	}
}
