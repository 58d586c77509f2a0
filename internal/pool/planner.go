package pool

import (
	"fmt"
	"strconv"

	"tecfan/internal/exp"
	"tecfan/internal/fault"
	"tecfan/internal/power"
	"tecfan/internal/workload"
)

// Job kinds a sweep can be sharded into.
const (
	KindTrace  = "trace"
	KindChaos  = "chaos"
	KindTable1 = "table1"
	KindFig4   = "fig4"
)

// DefaultChunk is the number of sweep rows (chaos scenarios, table/figure
// benchmark indices) bundled into one shard when SweepSpec.Chunk is zero.
// Small chunks mean finer-grained reassignment after worker death; the
// checkpoint handoff makes even intra-shard progress survivable, so this is
// a latency knob, not a correctness one.
const DefaultChunk = 2

// ShardSpec is one self-contained unit of work: Execute needs nothing but
// this (plus the optional checkpoint from a previous holder) to run it.
// Shard IDs are stable across replanning — same sweep, same shards — which
// is what lets a restarted coordinator re-adopt live workers mid-shard.
type ShardSpec struct {
	ID      string  `json:"id"`
	Kind    string  `json:"kind"`
	Bench   string  `json:"bench,omitempty"`
	Threads int     `json:"threads,omitempty"`
	Scale   float64 `json:"scale,omitempty"`
	Seed    int64   `json:"seed,omitempty"`

	// Trace shards.
	Policy          string  `json:"policy,omitempty"`
	FanLevel        int     `json:"fan_level,omitempty"`
	Threshold       float64 `json:"threshold,omitempty"`
	Scenario        string  `json:"scenario,omitempty"`
	CheckpointEvery int     `json:"checkpoint_every,omitempty"`

	// Chaos shards: a planned shard carries one policy and a chunk of
	// scenarios, the whole job every policy and scenario (empty = defaults).
	Policies  []string `json:"policies,omitempty"`
	Scenarios []string `json:"scenarios,omitempty"`

	// Table1/Fig4 shards: benchmark indices into workload.Table1 order
	// (nil = all).
	Indices []int `json:"indices,omitempty"`
}

// SweepSpec describes a whole job for the planner. It mirrors the daemon's
// JobSpec plus the sharding knobs the daemon owns.
type SweepSpec struct {
	Kind            string
	Bench           string
	Threads         int
	Scale           float64
	Seed            int64
	Policy          string
	FanLevel        int
	Threshold       float64
	Scenario        string
	Policies        []string
	Scenarios       []string
	CheckpointEvery int
	Chunk           int
}

// Whole is the unsplit job as one shard: the daemon's in-process path
// executes it. An in-process chaos job thus runs its base scenario and each
// policy's fan-level selection once, where planned shards repeat them.
func Whole(s SweepSpec) ShardSpec {
	return ShardSpec{
		ID: s.Kind, Kind: s.Kind, Bench: s.Bench, Threads: s.Threads,
		Scale: s.Scale, Seed: s.Seed,
		Policy: s.Policy, FanLevel: s.FanLevel, Threshold: s.Threshold,
		Scenario: s.Scenario, CheckpointEvery: s.CheckpointEvery,
		Policies: s.Policies, Scenarios: s.Scenarios,
	}
}

// Plan deterministically shards a sweep. The shard order is the merge order:
// concatenating shard results in plan order must reproduce the row order of
// the equivalent single-process run (per policy, per scenario for chaos;
// benchmark order for table1/fig4), which is what makes the pooled result
// byte-identical to the non-pooled one.
func Plan(s SweepSpec) ([]ShardSpec, error) {
	chunk := s.Chunk
	if chunk <= 0 {
		chunk = DefaultChunk
	}
	base := ShardSpec{
		Kind: s.Kind, Bench: s.Bench, Threads: s.Threads,
		Scale: s.Scale, Seed: s.Seed,
	}
	switch s.Kind {
	case KindTrace:
		// A trace job is a single simulation: one shard, resumable through
		// sim snapshots rather than row splits.
		return []ShardSpec{Whole(s)}, nil
	case KindChaos:
		pols := s.Policies
		if len(pols) == 0 {
			pols = exp.DefaultChaosPolicies()
		}
		scens := s.Scenarios
		if len(scens) == 0 {
			scens = fault.Names()
		}
		var out []ShardSpec
		for _, p := range pols {
			for n, i := 0, 0; i < len(scens); n, i = n+1, i+chunk {
				end := i + chunk
				if end > len(scens) {
					end = len(scens)
				}
				sh := base
				sh.ID = "chaos/" + p + "/" + strconv.Itoa(n)
				sh.Policies = []string{p}
				sh.Scenarios = append([]string(nil), scens[i:end]...)
				out = append(out, sh)
			}
		}
		return out, nil
	case KindTable1, KindFig4:
		n := len(workload.Table1(power.DefaultLeakage()))
		var out []ShardSpec
		for c, i := 0, 0; i < n; c, i = c+1, i+chunk {
			end := i + chunk
			if end > n {
				end = n
			}
			sh := base
			sh.ID = s.Kind + "/" + strconv.Itoa(c)
			for j := i; j < end; j++ {
				sh.Indices = append(sh.Indices, j)
			}
			out = append(out, sh)
		}
		return out, nil
	default:
		return nil, fmt.Errorf("pool: unknown job kind %q", s.Kind)
	}
}
