package numfault

import (
	"math"
	"testing"

	"tecfan/internal/schedfile"
)

// parse decodes a schedule through the strict loader every numfault
// schedule enters by.
func parse(raw []byte) (Schedule, error) {
	var s Schedule
	err := schedfile.Parse("test", raw, &s, s.Validate)
	return s, err
}

func TestParseScheduleValid(t *testing.T) {
	raw := []byte(`{
		"seed": 42,
		"rules": [
			{"target": "temps", "action": "nan", "index": 0, "from_step": 10, "to_step": 11},
			{"target": "power", "action": "inf", "index": -1, "magnitude": -1, "from_step": 5, "persistent": true},
			{"target": "temps", "action": "perturb", "index": 2, "magnitude": 500, "from_step": 0, "prob": 0.5}
		]
	}`)
	s, err := parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	if s.Seed != 42 || len(s.Rules) != 3 {
		t.Fatalf("parsed %+v", s)
	}
	if !s.Rules[1].Persistent {
		t.Error("persistent flag lost")
	}
}

func TestParseScheduleRejects(t *testing.T) {
	cases := []string{
		`{"rules":[{"target":"volts","action":"nan","from_step":0}]}`,
		`{"rules":[{"target":"temps","action":"zap","from_step":0}]}`,
		`{"rules":[{"target":"temps","action":"nan","index":-2,"from_step":0}]}`,
		`{"rules":[{"target":"temps","action":"perturb","from_step":0}]}`,
		`{"rules":[{"target":"temps","action":"nan","from_step":-1}]}`,
		`{"rules":[{"target":"temps","action":"nan","from_step":5,"to_step":5}]}`,
		`{"rules":[{"target":"temps","action":"nan","from_step":0,"prob":1.5}]}`,
		`not json`,
	}
	for _, raw := range cases {
		if _, err := parse([]byte(raw)); err == nil {
			t.Errorf("schedule %s: expected error", raw)
		}
	}
}

func TestInjectorWindowAndActions(t *testing.T) {
	in := NewInjector(Schedule{Rules: []Rule{
		{Target: TargetTemps, Action: ActNaN, Index: 1, FromStep: 10, ToStep: 12},
		{Target: TargetPower, Action: ActInf, Index: 0, Magnitude: -1, FromStep: 0},
		{Target: TargetTemps, Action: ActPerturb, Index: -1, Magnitude: 100, FromStep: 20, ToStep: 21},
	}})
	temps := []float64{50, 60, 70}
	if in.CorruptTemps(9, false, temps) {
		t.Error("rule fired before window")
	}
	if !in.CorruptTemps(10, false, temps) || !math.IsNaN(temps[1]) {
		t.Errorf("NaN rule did not fire in window: %v", temps)
	}
	temps = []float64{50, 60, 70}
	if in.CorruptTemps(12, false, temps) {
		t.Error("rule fired past half-open window end")
	}
	power := []float64{5, 5}
	if !in.CorruptPower(1000, false, power) || !math.IsInf(power[0], -1) {
		t.Errorf("unbounded -Inf rule: %v", power)
	}
	temps = []float64{50, 60, 70}
	in.CorruptTemps(20, false, temps)
	for i, v := range temps {
		if v != []float64{150, 160, 170}[i] {
			t.Errorf("perturb-all: temps[%d] = %v", i, v)
		}
	}
}

func TestRetryFiresOnlyPersistentRules(t *testing.T) {
	in := NewInjector(Schedule{Rules: []Rule{
		{Target: TargetTemps, Action: ActNaN, Index: 0, FromStep: 0},
		{Target: TargetTemps, Action: ActNaN, Index: 1, FromStep: 0, Persistent: true},
	}})
	temps := []float64{1, 2}
	in.CorruptTemps(0, true, temps)
	if math.IsNaN(temps[0]) {
		t.Error("transient rule fired on retry")
	}
	if !math.IsNaN(temps[1]) {
		t.Error("persistent rule skipped on retry")
	}
}

func TestIndexBeyondVectorIgnored(t *testing.T) {
	in := NewInjector(Schedule{Rules: []Rule{
		{Target: TargetTemps, Action: ActNaN, Index: 99, FromStep: 0},
	}})
	temps := []float64{1, 2}
	if in.CorruptTemps(0, false, temps) {
		// firing is fine; corruption must not happen
	}
	if math.IsNaN(temps[0]) || math.IsNaN(temps[1]) {
		t.Errorf("out-of-range index corrupted the vector: %v", temps)
	}
}

// Determinism is the load-bearing property: whether a probabilistic rule
// fires at a step must depend only on (seed, step, rule index) so resumed
// runs replay identically.
func TestProbabilisticFiringIsDeterministic(t *testing.T) {
	s := Schedule{Seed: 7, Rules: []Rule{
		{Target: TargetTemps, Action: ActNaN, Index: 0, FromStep: 0, Prob: 0.5},
	}}
	a, b := NewInjector(s), NewInjector(s)
	firedA, firedB := 0, 0
	for step := 0; step < 1000; step++ {
		ta, tb := []float64{1.0}, []float64{1.0}
		if a.CorruptTemps(step, false, ta) {
			firedA++
		}
		if b.CorruptTemps(step, false, tb) {
			firedB++
		}
		if math.IsNaN(ta[0]) != math.IsNaN(tb[0]) {
			t.Fatalf("step %d: injectors disagree", step)
		}
	}
	if firedA != firedB {
		t.Fatalf("fire counts differ: %d vs %d", firedA, firedB)
	}
	// And the rate should be roughly the requested probability.
	if firedA < 350 || firedA > 650 {
		t.Errorf("prob 0.5 fired %d/1000 times", firedA)
	}
	// A different seed must give a different firing pattern.
	c := NewInjector(Schedule{Seed: 8, Rules: s.Rules})
	diff := 0
	for step := 0; step < 1000; step++ {
		ta, tc := []float64{1.0}, []float64{1.0}
		fa := a.CorruptTemps(step, false, ta)
		fc := c.CorruptTemps(step, false, tc)
		if fa != fc {
			diff++
		}
	}
	if diff == 0 {
		t.Error("seeds 7 and 8 produced identical firing patterns")
	}
}
