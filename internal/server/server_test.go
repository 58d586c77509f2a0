package server

import (
	"math"
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"tecfan/internal/tec"
)

func shortTraces(seconds int) [][]float64 {
	full := PaperTraces()
	out := make([][]float64, len(full))
	for c := range full {
		out[c] = full[c][:seconds]
	}
	return out
}

func TestWikiTraceProperties(t *testing.T) {
	tr := WikiTrace(2400, 1.5, DefaultTraceSeed)
	if len(tr) != 2400 {
		t.Fatalf("trace length %d", len(tr))
	}
	for i, u := range tr {
		if u < 0 || u > 1 {
			t.Fatalf("sample %d = %v out of [0,1]", i, u)
		}
	}
	// Paper: mean utilization 48.6 % after the 1.5× scaling.
	m := Mean(tr)
	if math.Abs(m-0.486) > 0.02 {
		t.Fatalf("mean utilization %.3f, paper says 0.486", m)
	}
	// Deterministic.
	tr2 := WikiTrace(2400, 1.5, DefaultTraceSeed)
	for i := range tr {
		if tr[i] != tr2[i] {
			t.Fatal("trace not deterministic")
		}
	}
	// Different seeds differ.
	tr3 := WikiTrace(2400, 1.5, DefaultTraceSeed+1)
	same := true
	for i := range tr {
		if tr[i] != tr3[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("seed has no effect")
	}
}

func TestWikiTraceScaling(t *testing.T) {
	base := WikiTrace(500, 1.0, 7)
	scaled := WikiTrace(500, 1.5, 7)
	for i := range base {
		want := math.Min(base[i]*1.5, 1)
		if math.Abs(scaled[i]-want) > 1e-12 {
			t.Fatalf("scaling broken at %d: %v vs %v", i, scaled[i], want)
		}
	}
}

func TestPaperTracesShape(t *testing.T) {
	traces := PaperTraces()
	if len(traces) != 4 {
		t.Fatalf("%d traces, want 4 (one per core)", len(traces))
	}
	for c, tr := range traces {
		if len(tr) != 600 {
			t.Fatalf("core %d trace has %d samples, want 600 (10 min)", c, len(tr))
		}
	}
}

func TestCapacityQuadratic(t *testing.T) {
	p := I7Platform()
	if math.Abs(p.Capacity(p.DVFS.Max())-1) > 1e-12 {
		t.Fatalf("capacity at max = %v, want 1", p.Capacity(p.DVFS.Max()))
	}
	for l := 1; l < p.DVFS.Num(); l++ {
		if p.Capacity(l) <= p.Capacity(l-1) {
			t.Fatalf("capacity not increasing at level %d", l)
		}
	}
	// Diminishing returns: capacity at the lowest level exceeds the pure
	// frequency ratio (the SPECjbb memory-bound fit).
	fr := p.DVFS.Levels[0].Freq / p.DVFS.Levels[p.DVFS.Max()].Freq
	if p.Capacity(0) <= fr {
		t.Fatalf("capacity(0)=%.3f should beat the frequency ratio %.3f", p.Capacity(0), fr)
	}
}

func TestCorePowerModel(t *testing.T) {
	p := I7Platform()
	max := p.DVFS.Max()
	// Horvath & Skadron: linear in u between idle and busy.
	idle := p.CorePower(max, 0)
	busy := p.CorePower(max, 1)
	half := p.CorePower(max, 0.5)
	if math.Abs(half-(idle+busy)/2) > 1e-12 {
		t.Fatal("power not linear in utilization")
	}
	// DVFS monotone.
	for l := 1; l < p.DVFS.Num(); l++ {
		if p.CorePower(l, 0.7) <= p.CorePower(l-1, 0.7) {
			t.Fatalf("power not increasing with level at %d", l)
		}
	}
	// Static floor survives at the lowest level.
	if p.CorePower(0, 0) < p.StaticPower {
		t.Fatal("static power floor violated")
	}
}

func TestCorePowerPanics(t *testing.T) {
	p := I7Platform()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	p.CorePower(0, 1.5)
}

func TestServeStepConservation(t *testing.T) {
	p := I7Platform()
	f := func(d, b float64, lvl uint8) bool {
		d = math.Mod(math.Abs(d), 1)
		b = math.Mod(math.Abs(b), 2)
		l := int(lvl) % p.DVFS.Num()
		served, nb := p.ServeStep(l, d, b, 1)
		// Work conservation and capacity limit.
		if math.Abs((served+nb)-(d+b)) > 1e-12 {
			return false
		}
		return served <= p.Capacity(l)+1e-12 && served >= 0 && nb >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// predictFast returns the superposition-basis steady temperatures of a
// configuration in a fresh slice.
func predictFast(t *testing.T, m *Machine, dvfs []int, util []float64, banks []bool, fanLevel int) []float64 {
	t.Helper()
	temps := make([]float64, m.NW.NumNodes())
	if err := m.PredictSteadyInto(temps, dvfs, util, banks, fanLevel); err != nil {
		t.Fatal(err)
	}
	return temps
}

func TestPredictFastMatchesExact(t *testing.T) {
	m := NewMachine()
	dvfs := []int{4, 2, 0, 3}
	util := []float64{0.9, 0.5, 0.2, 0.7}
	banks := []bool{true, false, true, false}
	exact, err := m.PredictSteady(dvfs, util, banks, 2)
	if err != nil {
		t.Fatal(err)
	}
	fast := predictFast(t, m, dvfs, util, banks, 2)
	for i := range exact {
		if math.Abs(exact[i]-fast[i]) > 0.05 {
			t.Fatalf("superposition breaks at node %d: %.4f vs %.4f", i, fast[i], exact[i])
		}
	}
}

func TestSearchPowerApproximation(t *testing.T) {
	m := NewMachine()
	dvfs := []int{4, 4, 4, 4}
	util := []float64{0.5, 0.5, 0.5, 0.5}
	banks := []bool{true, true, false, false}
	temps := predictFast(t, m, dvfs, util, banks, 1)
	exact := m.ConfigPower(dvfs, util, banks, 1, temps)
	approx := m.SearchPower(dvfs, util, 2, 1)
	if math.Abs(exact-approx)/exact > 0.02 {
		t.Fatalf("search power %.2f vs exact %.2f: approximation too loose", approx, exact)
	}
}

func TestFig7Shape(t *testing.T) {
	// The §V-E headline on a shortened trace: TECfan ≪ OFTEC energy with no
	// delay; Oracle ≤ TECfan energy with some delay; Oracle-P ≈ TECfan.
	m := NewMachine()
	traces := shortTraces(90)
	run := func(p Policy) *Result {
		res, err := m.Run(traces, p, RunConfig{})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	oftec := run(OFTEC{})
	tf := run(TECfan{})
	oracle := run(NewOracle())
	oraclep := run(NewOracleP())

	if tf.Delay != 1.0 {
		t.Fatalf("TECfan degraded performance: delay %.3f", tf.Delay)
	}
	save := 1 - tf.Metrics.Energy/oftec.Metrics.Energy
	if save < 0.15 || save > 0.60 {
		t.Fatalf("TECfan saves %.0f%% vs OFTEC; paper band is ~29%%", save*100)
	}
	if oracle.Metrics.Energy > tf.Metrics.Energy {
		t.Fatal("Oracle must be at least as energy-efficient as TECfan")
	}
	if oracle.Delay <= 1.0 {
		t.Fatal("unconstrained Oracle should trade some delay for energy")
	}
	if oraclep.Delay != 1.0 {
		t.Fatalf("Oracle-P must not degrade performance: %.3f", oraclep.Delay)
	}
	// Oracle-P within a few percent of TECfan (the paper's "approximately
	// the same" claim).
	if math.Abs(oraclep.Metrics.Energy-tf.Metrics.Energy)/tf.Metrics.Energy > 0.08 {
		t.Fatalf("Oracle-P energy %.1f vs TECfan %.1f: gap too large",
			oraclep.Metrics.Energy, tf.Metrics.Energy)
	}
	// TECfan must respect the constraint essentially everywhere.
	if tf.Metrics.ViolationRatio > 0.02 {
		t.Fatalf("TECfan violation ratio %.3f", tf.Metrics.ViolationRatio)
	}
}

func TestOFTECKeepsMaxDVFS(t *testing.T) {
	m := NewMachine()
	res, err := m.Run(shortTraces(30), OFTEC{}, RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanDVFS != float64(m.Platform.DVFS.Max()) {
		t.Fatalf("OFTEC moved DVFS: mean level %.2f", res.MeanDVFS)
	}
	if res.Delay != 1.0 {
		t.Fatal("OFTEC at max DVFS cannot be late")
	}
}

func TestRunValidation(t *testing.T) {
	m := NewMachine()
	if _, err := m.Run(shortTraces(30)[:2], TECfan{}, RunConfig{}); err == nil {
		t.Fatal("wrong trace count accepted")
	}
	bad := shortTraces(30)
	bad[1] = bad[1][:10]
	if _, err := m.Run(bad, TECfan{}, RunConfig{}); err == nil {
		t.Fatal("ragged traces accepted")
	}
}

func TestMeanUtilReported(t *testing.T) {
	m := NewMachine()
	res, err := m.Run(shortTraces(120), OFTEC{}, RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.MeanUtil-0.486) > 0.06 {
		t.Fatalf("reported mean util %.3f far from the paper's 0.486", res.MeanUtil)
	}
	if len(res.FanLevels) != m.Fan.NumLevels() {
		t.Fatal("fan histogram wrong length")
	}
}

func TestEnumBanks(t *testing.T) {
	bs := enumBanks(3)
	if len(bs) != 8 {
		t.Fatalf("enumBanks(3) = %d entries", len(bs))
	}
	seen := map[int]bool{}
	for _, b := range bs {
		seen[banksMask(b)] = true
	}
	if len(seen) != 8 {
		t.Fatal("duplicate bank vectors")
	}
	if countOn(bs[7]) != 3 && countOn(bs[len(bs)-1]) != 3 {
		t.Fatal("countOn broken")
	}
}

func TestPIDFanControlsTemperature(t *testing.T) {
	m := NewMachine()
	res, err := m.Run(shortTraces(120), &PIDFan{}, RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// The firmware baseline must keep the chip near but below the
	// threshold without DVFS or TECs.
	if res.Metrics.ViolationRatio > 0.10 {
		t.Fatalf("PID fan violates %.3f of the time", res.Metrics.ViolationRatio)
	}
	if res.MeanDVFS != float64(m.Platform.DVFS.Max()) {
		t.Fatalf("PID fan moved DVFS: %.2f", res.MeanDVFS)
	}
	if res.Delay != 1 {
		t.Fatal("PID fan at max DVFS cannot be late")
	}
	// It must actually modulate the fan (not pin one level).
	moved := 0
	for _, n := range res.FanLevels {
		if n > 0 {
			moved++
		}
	}
	if moved < 2 {
		t.Fatalf("PID fan used %d levels; expected modulation", moved)
	}
	// And it must burn at least as much energy as TECfan (no TEC, no DVFS).
	tf, err := m.Run(shortTraces(120), TECfan{}, RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Energy <= tf.Metrics.Energy {
		t.Fatalf("PID fan energy %.1f not above TECfan %.1f", res.Metrics.Energy, tf.Metrics.Energy)
	}
}

func TestBasisCachedAcrossCalls(t *testing.T) {
	m := NewMachine()
	banks := []bool{true, false, false, true}
	b1, err := m.Basis(banks, 2)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := m.Basis(banks, 2)
	if err != nil {
		t.Fatal(err)
	}
	if b1 != b2 {
		t.Fatal("basis not cached for identical (banks, fan)")
	}
	b3, err := m.Basis(banks, 3)
	if err != nil {
		t.Fatal(err)
	}
	if b3 == b1 {
		t.Fatal("distinct fan levels share a basis")
	}
	// Superposition sanity: zero utilization at min DVFS is cooler than
	// full utilization at max DVFS under the same basis.
	cold := predictFast(t, m, []int{0, 0, 0, 0}, []float64{0, 0, 0, 0}, banks, 2)
	hot := predictFast(t, m, []int{4, 4, 4, 4}, []float64{1, 1, 1, 1}, banks, 2)
	_, cp := m.NW.PeakDie(cold)
	_, hp := m.NW.PeakDie(hot)
	if hp <= cp {
		t.Fatalf("hot prediction %.2f not above cold %.2f", hp, cp)
	}
}

// TestBasisBatchMatchesSteady checks, for every (banks, fan) key, that the
// block-solved basis holds bit for bit what one NW.Steady per column gives:
// the zero-power base and each core's unit response minus the base, under
// a TEC state built afresh for the key.
func TestBasisBatchMatchesSteady(t *testing.T) {
	m := NewMachine()
	n := m.Chip.NumCores()
	sameBits := func(a, b []float64) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				return false
			}
		}
		return true
	}
	for _, banks := range m.bankVecs {
		ts := tec.NewState(m.TECs)
		for l, pl := range m.TECs {
			ts.Set(l, banks[pl.Core])
		}
		ts.Advance(1)
		for f := 0; f < m.Fan.NumLevels(); f++ {
			got, err := m.Basis(banks, f)
			if err != nil {
				t.Fatal(err)
			}
			base, err := m.NW.Steady(make([]float64, len(m.Chip.Components)), f, ts)
			if err != nil {
				t.Fatal(err)
			}
			if !sameBits(got.base, base) {
				t.Fatalf("banks %v fan %d: base differs from NW.Steady", banks, f)
			}
			for c := 0; c < n; c++ {
				unit := make([]float64, len(m.Chip.Components))
				for _, i := range m.Chip.CoreComponents(c) {
					unit[i] = m.Chip.Components[i].Area() / m.tileArea
				}
				resp, err := m.NW.Steady(unit, f, ts)
				if err != nil {
					t.Fatal(err)
				}
				for i := range resp {
					resp[i] -= base[i]
				}
				if !sameBits(got.resp[c], resp) {
					t.Fatalf("banks %v fan %d: core %d response differs from NW.Steady", banks, f, c)
				}
			}
		}
	}
}

func TestRunThresholdOverride(t *testing.T) {
	m := NewMachine()
	tight, err := m.Run(shortTraces(40), TECfan{}, RunConfig{Threshold: 70})
	if err != nil {
		t.Fatal(err)
	}
	loose, err := m.Run(shortTraces(40), TECfan{}, RunConfig{Threshold: 110})
	if err != nil {
		t.Fatal(err)
	}
	// A tighter constraint forces more cooling effort and yields a lower
	// peak; with demand-following DVFS it cannot yield a hotter chip.
	if tight.Metrics.PeakTemp > loose.Metrics.PeakTemp+0.5 {
		t.Fatalf("tight threshold ran hotter: %.2f vs %.2f",
			tight.Metrics.PeakTemp, loose.Metrics.PeakTemp)
	}
	if tight.Metrics.AvgPower < loose.Metrics.AvgPower-3 {
		t.Fatalf("tight threshold somehow used far less power: %.2f vs %.2f",
			tight.Metrics.AvgPower, loose.Metrics.AvgPower)
	}
}

// fig7Policies returns one fresh value of each §V-E contender.
func fig7Policies() []Policy {
	return []Policy{&PIDFan{}, OFTEC{}, TECfan{}, NewOracle(), NewOracleP()}
}

// TestConcurrentMachineRuns runs the five §V-E contenders at once on one
// Machine, so they race to build the shared superposition bases, and
// requires every Result to equal the one a sequential run on its own
// Machine returns.
func TestConcurrentMachineRuns(t *testing.T) {
	traces := shortTraces(40)
	var want []*Result
	for _, p := range fig7Policies() {
		res, err := NewMachine().Run(traces, p, RunConfig{})
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, res)
	}

	m := NewMachine()
	policies := fig7Policies()
	got := make([]*Result, len(policies))
	errs := make([]error, len(policies))
	var wg sync.WaitGroup
	for i, p := range policies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = m.Run(traces, p, RunConfig{})
		}()
	}
	wg.Wait()
	for i, p := range policies {
		if errs[i] != nil {
			t.Fatalf("%s: %v", p.Name(), errs[i])
		}
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("%s on a shared Machine:\n got  %+v\n want %+v", p.Name(), got[i], want[i])
		}
	}
}
