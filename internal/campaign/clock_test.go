package campaign

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"tecfan/internal/clockfault"
	"tecfan/internal/daemon"
	"tecfan/internal/schedfile"
)

// clockedPoolSpec is the clock-chaos workload: one pooled trace job split
// across two workers, so every lease-protocol edge (grant, heartbeat renewal,
// expiry, completion) is on the episode's path.
func clockedPoolSpec(seed int64, sched *clockfault.Schedule) Spec {
	return Spec{
		Name: "clocked",
		Seed: seed,
		Jobs: []daemon.JobSpec{{
			ID: "tr", Kind: daemon.KindTrace, Bench: "cholesky", Threads: 16,
			Scale: 0.001, Policy: "TECfan-FT", Seed: 7,
		}},
		Pool:  &PoolSpec{Workers: 2, Chunk: 1},
		Clock: sched,
	}
}

// TestInProcClockChaosEpisode is the issue's acceptance episode: the
// coordinator's wall clock steps 90 seconds backwards while each worker's
// drifts independently, and the merged pooled result must still be
// byte-identical to the fault-free reference with the lease ledger
// safety-clean and every job terminal. Wall-clock lies of this magnitude
// dwarf the lease TTL — only monotonic lease arithmetic survives them.
func TestInProcClockChaosEpisode(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real pooled jobs")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	spec := clockedPoolSpec(29, &clockfault.Schedule{Seed: 31, Rules: []clockfault.Rule{
		{Kind: clockfault.KindStep, Proc: "daemon", AtOp: 1,
			Offset: schedfile.Duration(-90 * time.Second)},
		{Kind: clockfault.KindDrift, Proc: "crucible-w*", FromOp: 1, Rate: 0.25},
		{Kind: clockfault.KindJitter, Proc: "crucible-w*", FromOp: 1,
			Max: schedfile.Duration(5 * time.Millisecond), Prob: 0.5},
	}})
	logf := t.Logf
	ref, err := Reference(ctx, spec, 0, logf)
	if err != nil {
		t.Fatal(err)
	}
	h, err := RunEpisode(ctx, spec, 0, logf)
	if err != nil {
		t.Fatal(err)
	}
	if vs := Evaluate(h, ref); len(vs) != 0 {
		t.Fatalf("clock-chaos episode must be oracle-clean, got %v", vs)
	}
	if len(h.Leases) == 0 {
		t.Fatal("pooled episode recorded no lease ledger; the lease-safety oracle judged nothing")
	}
	for _, r := range h.Results {
		if r.State != string(daemon.StateDone) {
			t.Fatalf("job %s ended %s: %s", r.JobID, r.State, r.Error)
		}
		if !bytes.Equal(r.Result, ref[r.JobID]) {
			t.Fatalf("job %s: clock chaos changed the result bytes", r.JobID)
		}
	}
}

// randomSkewSchedule draws an adversarial clock schedule: every process gets
// an independent step of up to ±10 minutes, workers pick up drift and timer
// jitter, and sometimes the coordinator's wall clock freezes outright. Rates
// and offsets deliberately dwarf the pool lease TTL.
func randomSkewSchedule(rng *rand.Rand) *clockfault.Schedule {
	sched := &clockfault.Schedule{Seed: rng.Int63n(1 << 30)}
	procs := []string{"daemon", "crucible-w0", "crucible-w1"}
	for _, proc := range procs {
		if rng.Intn(4) == 0 {
			continue // this process keeps an honest clock
		}
		off := time.Duration(rng.Int63n(int64(10*time.Minute))) - 5*time.Minute
		if off == 0 {
			off = -90 * time.Second
		}
		sched.Rules = append(sched.Rules, clockfault.Rule{
			Kind: clockfault.KindStep, Proc: proc,
			AtOp: 1 + rng.Int63n(5), Offset: schedfile.Duration(off),
		})
	}
	sched.Rules = append(sched.Rules, clockfault.Rule{
		Kind: clockfault.KindDrift, Proc: "crucible-w*", FromOp: 1,
		Rate: rng.Float64()*4 - 2, // up to ±2 s of skew per elapsed second
	})
	if rng.Intn(2) == 0 {
		sched.Rules = append(sched.Rules, clockfault.Rule{
			Kind: clockfault.KindFreeze, Proc: "daemon",
			FromOp: 1 + rng.Int63n(3), ToOp: 10 + rng.Int63n(20),
		})
	}
	sched.Rules = append(sched.Rules, clockfault.Rule{
		Kind: clockfault.KindJitter, Proc: "*", FromOp: 1,
		Max: schedfile.Duration(3 * time.Millisecond), Prob: 0.5,
	})
	if len(sched.Rules) == 0 || sched.Validate() != nil {
		// Cannot happen with the draws above; guard against generator drift.
		sched.Rules = []clockfault.Rule{{Kind: clockfault.KindStep, Proc: "daemon",
			AtOp: 1, Offset: schedfile.Duration(-90 * time.Second)}}
	}
	return sched
}

// TestFencingSafetyUnderRandomSkewProperty quick-checks the lease discipline:
// for every randomized coordinator/worker skew schedule, the episode's lease
// ledger must replay safety-clean and every job must terminate. The property
// is that *no* combination of wall-clock lies reaches the fencing arithmetic
// — not that any particular schedule is survivable.
func TestFencingSafetyUnderRandomSkewProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real pooled episodes per seed")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	ref, err := Reference(ctx, clockedPoolSpec(1, nil), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(0x5eed<<8 | seed))
			sched := randomSkewSchedule(rng)
			spec := clockedPoolSpec(100+seed, sched)
			h, err := RunEpisode(ctx, spec, 0, nil)
			if err != nil {
				t.Fatalf("schedule %+v: %v", sched, err)
			}
			for _, v := range Evaluate(h, ref) {
				if v.Oracle == OracleLeaseSafety || v.Oracle == OracleBoundedLiveness {
					t.Errorf("schedule %+v: %s", sched, v)
				}
			}
			if len(h.Leases) == 0 {
				t.Error("episode recorded no lease ledger")
			}
		})
	}
}
