package core

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"tecfan/internal/power"
	"tecfan/internal/sim"
	"tecfan/internal/testenv"
)

// sameEstimate fails unless got equals want in every field, bit for bit.
func sameEstimate(t *testing.T, label string, got, want *Estimate) {
	t.Helper()
	bits := math.Float64bits
	if len(got.Temps) != len(want.Temps) {
		t.Fatalf("%s: %d temps, EstimateInto %d", label, len(got.Temps), len(want.Temps))
	}
	for i := range want.Temps {
		if bits(got.Temps[i]) != bits(want.Temps[i]) {
			t.Fatalf("%s: Temps[%d] = %v, EstimateInto %v", label, i, got.Temps[i], want.Temps[i])
		}
	}
	if got.PeakComp != want.PeakComp || bits(got.PeakTemp) != bits(want.PeakTemp) ||
		bits(got.ChipPower) != bits(want.ChipPower) || bits(got.ChipIPS) != bits(want.ChipIPS) ||
		bits(got.EPI) != bits(want.EPI) || got.Feasible != want.Feasible {
		t.Fatalf("%s: got %+v, EstimateInto %+v", label,
			Estimate{PeakTemp: got.PeakTemp, PeakComp: got.PeakComp, ChipPower: got.ChipPower, ChipIPS: got.ChipIPS, EPI: got.EPI, Feasible: got.Feasible},
			Estimate{PeakTemp: want.PeakTemp, PeakComp: want.PeakComp, ChipPower: want.ChipPower, ChipIPS: want.ChipIPS, EPI: want.EPI, Feasible: want.Feasible})
	}
}

// poisonedEstimator is an SCC16 estimator whose DVFS level 0 has an
// infinite supply voltage, so the steady solver refuses every candidate
// that puts a core there while the other levels solve normally. Its
// observation runs every core at a level above 0 with three TECs engaged.
func poisonedEstimator(t *testing.T) (*Estimator, *sim.Observation, Candidate) {
	t.Helper()
	e := testenv.NewSCC16()
	obs := obsFor(t, e, testenv.HotBench(16, 4.0, 2), 100, 1)
	table := &power.DVFSTable{Levels: append([]power.DVFSLevel(nil), e.DVFS.Levels...)}
	table.Levels[0].Vdd = math.Inf(1)
	est := NewEstimator(e.NW, table, e.Leak, e.Fan, e.TECs, 2e-3)
	for core := range obs.DVFS {
		obs.DVFS[core] = 1 + core%table.Max()
	}
	for _, l := range []int{0, 5, 9} {
		obs.TECOn[l] = true
	}
	return est, obs, baseCandidate(e, obs)
}

// randomTrials returns k DVFS vectors, each obs.DVFS with a few cores moved
// to random levels (level 0 included, which the poisoned table refuses).
func randomTrials(rng *rand.Rand, obs *sim.Observation, levels, k int) [][]int {
	dvfs := make([][]int, k)
	for j := range dvfs {
		dvfs[j] = append([]int(nil), obs.DVFS...)
		for moves := 1 + rng.Intn(3); moves > 0; moves-- {
			dvfs[j][rng.Intn(len(dvfs[j]))] = rng.Intn(levels)
		}
	}
	return dvfs
}

// TestEstimateBatchMatchesEstimateInto: every estimate of a batch equals
// EstimateInto's for the same candidate in every field, bit for bit, for
// feasible, infeasible and solver-refused candidates, at every batch width,
// and Evaluations advances by the batch size. The batch's Estimates are
// reused across rounds, so a refused candidate must also clear what an
// earlier round left there.
func TestEstimateBatchMatchesEstimateInto(t *testing.T) {
	est, obs, base := poisonedEstimator(t)
	rng := rand.New(rand.NewSource(11))
	var ests [8]Estimate
	var feasible, hot, refusedN int
	for round := 0; round < 6; round++ {
		for k := 1; k <= len(ests); k++ {
			dvfs := randomTrials(rng, obs, est.DVFS.Num(), k)
			// Put the threshold at one finite candidate's peak, so the
			// batch straddles it.
			cand := base
			for _, d := range dvfs {
				cand.DVFS = d
				if r := est.Estimate(obs, cand); r.Temps != nil && rng.Intn(2) == 0 {
					obs.Threshold = r.PeakTemp
				}
			}
			before := est.Evaluations
			est.EstimateBatch(ests[:k], obs, base, dvfs)
			if d := est.Evaluations - before; d != k {
				t.Fatalf("width %d: Evaluations advanced by %d", k, d)
			}
			for j, d := range dvfs {
				cand.DVFS = d
				want := est.Estimate(obs, cand)
				sameEstimate(t, "batch", &ests[j], &want)
				switch {
				case len(want.Temps) == 0:
					refusedN++
				case want.Feasible:
					feasible++
				default:
					hot++
				}
			}
		}
	}
	if feasible == 0 || hot == 0 || refusedN == 0 {
		t.Fatalf("feasible %d, infeasible %d, refused %d: every kind must occur", feasible, hot, refusedN)
	}
}

// TestConcurrentEstimateBatch: estimators on several goroutines share one
// network, and with it the free list their batches lease blocks from; every
// estimate equals the one a single goroutine computes, bit for bit.
func TestConcurrentEstimateBatch(t *testing.T) {
	est, obs, base := poisonedEstimator(t)
	const workers = 4
	rng := rand.New(rand.NewSource(3))
	trials := make([][][]int, workers)
	want := make([][]Estimate, workers)
	for g := range trials {
		trials[g] = randomTrials(rng, obs, est.DVFS.Num(), 8)
		want[g] = make([]Estimate, 8)
		est.EstimateBatch(want[g], obs, base, trials[g])
	}
	got := make([][]Estimate, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			e := NewEstimator(est.Network, est.DVFS, est.Leak, est.Fan, est.Placements, est.Period)
			got[g] = make([]Estimate, 8)
			for rep := 0; rep < 20; rep++ {
				e.EstimateBatch(got[g], obs, base, trials[g])
			}
		}(g)
	}
	wg.Wait()
	for g := range got {
		for j := range got[g] {
			sameEstimate(t, "concurrent", &got[g][j], &want[g][j])
		}
	}
}
