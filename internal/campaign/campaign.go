// Package campaign is the composable chaos layer on top of the repo's fault
// injectors. Each injector hardens one failure axis — sensor faults,
// crashes, network loss, pool fencing, disk corruption, numerical upsets,
// clock lies — with its own schedule format; compound faults are exactly
// where control-plane guarantees quietly stop holding. A campaign Spec embeds
// the four schedule formats plus process-level actions (kill/stop/restart of
// the daemon and workers) on one shared timeline; episodes run the full daemon(+pool) stack end-to-end while
// a Recorder captures the client-observed history; an oracle catalog judges
// the history (exactly-once, byte-identical-or-refusal, sticky fail-safe,
// no non-finite token, readiness consistency); a validity check (Landed)
// rejects a clean episode whose faults did not land on live work; and a
// delta-debugging shrinker reduces any failing composite schedule to a
// minimal repro for the committed testdata/crucible corpus.
//
// This package is in the nondeterminism analyzer's scope: seeds derive via
// internal/splitmix, and the oracles and the shrinker are pure functions of
// their inputs. Process orchestration (spawning, signals) lives in
// cmd/tecfan-crucible; the one episode driver both substrates share (Drive)
// paces on clockfault.OS, never on the time package directly.
package campaign

import (
	"encoding/json"
	"fmt"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"tecfan/internal/clockfault"
	"tecfan/internal/daemon"
	"tecfan/internal/diskfault"
	"tecfan/internal/exp"
	"tecfan/internal/fault"
	"tecfan/internal/netfault"
	"tecfan/internal/numfault"
	"tecfan/internal/schedfile"
	"tecfan/internal/splitmix"
)

// Process-action verbs on the episode timeline.
const (
	// ActKill SIGKILLs the target; a killed daemon needs a later ActRestart
	// or the episode can never fetch results.
	ActKill = "kill"
	// ActStop SIGSTOPs the target; it must be resumed (cont) or replaced
	// (kill/restart) later, or the episode would hang on a frozen process.
	ActStop = "stop"
	// ActCont SIGCONTs a stopped target.
	ActCont = "cont"
	// ActRestart SIGKILLs the target and starts a fresh process on the same
	// state dir and address — the crash-recovery path, end to end.
	ActRestart = "restart"
)

// TargetDaemon is the ProcAction target for the tecfand process; workers are
// addressed as "worker:0", "worker:1", ... up to PoolSpec.Workers.
const TargetDaemon = "daemon"

var validProcActions = map[string]bool{
	ActKill: true, ActStop: true, ActCont: true, ActRestart: true,
}

// ProcAction schedules one signal-level event at offset At from episode
// start. Proc actions are exec-only: the in-process episode runner rejects
// specs that carry any (there is no process to signal).
type ProcAction struct {
	At     schedfile.Duration `json:"at"`
	Target string             `json:"target"`
	Action string             `json:"action"`
}

// PoolSpec switches the episode stack to coordinator + worker-pool mode.
type PoolSpec struct {
	// Workers is how many tecfan-worker processes (or in-process loops) run.
	Workers int `json:"workers"`
	// Chunk is the coordinator's rows-per-shard (0 = daemon default).
	Chunk int `json:"chunk,omitempty"`
	// LeaseTTL is the shard lease TTL (0 = daemon default).
	LeaseTTL schedfile.Duration `json:"lease_ttl,omitempty"`
}

// Spec is one composite chaos campaign: the jobs a client submits, the fault
// lattice active while they run, and the process-level events on the shared
// timeline. The zero fault lattice (no net/disk/num/procs) is the reference
// configuration every chaotic episode is byte-compared against.
type Spec struct {
	// Name labels artifacts and derived idempotency keys.
	Name string `json:"name,omitempty"`
	// Seed is the campaign master seed; per-episode injector seeds derive
	// from it for every embedded schedule whose own seed is 0.
	Seed int64 `json:"seed"`
	// Jobs are submitted in order, each twice under one idempotency key per
	// episode (the replay feeds the exactly-once oracle). Every job needs an
	// explicit, unique ID: the oracles join histories on it. Sensor-fault
	// scenarios (internal/fault) embed per job via JobSpec.Scenario/Seed.
	Jobs []daemon.JobSpec `json:"jobs"`
	// Pool, when set, runs the episode in coordinator+workers mode.
	Pool *PoolSpec `json:"pool,omitempty"`
	// Net interposes the netfault chaos proxy between client and daemon.
	Net *netfault.Schedule `json:"net,omitempty"`
	// Disk arms the diskfault filesystem under the daemon's state dir.
	Disk *diskfault.Schedule `json:"disk,omitempty"`
	// Num arms the numfault injector on the daemon and on every worker.
	Num *numfault.Schedule `json:"num,omitempty"`
	// Clock arms the clockfault injector: the daemon runs under process
	// identity "daemon" and each worker under its own name, so one schedule
	// skews coordinator and workers independently while monotonic
	// arithmetic — and with it lease safety — stays truthful everywhere.
	Clock *clockfault.Schedule `json:"clock,omitempty"`
	// Procs are the signal-level events on the episode timeline.
	Procs []ProcAction `json:"procs,omitempty"`
	// Timeout bounds one episode's wall clock in tecfan-crucible, on either
	// substrate (0 = its -episode-timeout).
	Timeout schedfile.Duration `json:"timeout,omitempty"`
}

// LoadSpec reads and validates a campaign spec through the shared schedfile
// loader, so errors carry the file path plus the embedded schedule's own
// rule-index context.
func LoadSpec(path string) (Spec, error) {
	var s Spec
	if err := schedfile.Load(path, &s, func() error { return s.Validate() }); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// jobIDRe mirrors the daemon's job-id rule.
var jobIDRe = regexp.MustCompile(`^[A-Za-z0-9_-]{1,64}$`)

var validKinds = map[daemon.JobKind]bool{
	daemon.KindTrace: true, daemon.KindChaos: true,
	daemon.KindTable1: true, daemon.KindFig4: true,
}

// Validate rejects malformed specs eagerly — before a single process spawns —
// including proc-action choreography that could only hang or strand an
// episode (a stop never resumed, a daemon killed and never restarted, every
// worker dead before the jobs finish).
func (s Spec) Validate() error {
	if len(s.Jobs) == 0 {
		return fmt.Errorf("campaign: at least one job is required")
	}
	policies := map[string]bool{}
	for _, p := range exp.AllPolicies() {
		policies[p] = true
	}
	seen := map[string]bool{}
	for i, j := range s.Jobs {
		if j.ID == "" {
			return fmt.Errorf("campaign: job %d: explicit id is required (oracles join on it)", i)
		}
		if !jobIDRe.MatchString(j.ID) {
			// Mirrors the daemon's own id rule, rejected here before any
			// process spawns instead of as a 400 mid-episode.
			return fmt.Errorf("campaign: job %d: invalid id %q", i, j.ID)
		}
		if seen[j.ID] {
			return fmt.Errorf("campaign: job %d: duplicate id %q", i, j.ID)
		}
		seen[j.ID] = true
		if !validKinds[j.Kind] {
			return fmt.Errorf("campaign: job %s: unknown kind %q", j.ID, j.Kind)
		}
		if (j.Kind == daemon.KindTrace || j.Kind == daemon.KindChaos) && j.Bench == "" {
			return fmt.Errorf("campaign: job %s: bench is required for kind %q", j.ID, j.Kind)
		}
		if (j.Kind == daemon.KindTrace || j.Kind == daemon.KindChaos) && j.Threads <= 0 {
			return fmt.Errorf("campaign: job %s: threads must be positive", j.ID)
		}
		if j.Scenario != "" {
			if _, err := fault.ByName(j.Scenario); err != nil {
				return fmt.Errorf("campaign: job %s: %w", j.ID, err)
			}
		}
		for _, sc := range j.Scenarios {
			if _, err := fault.ByName(sc); err != nil {
				return fmt.Errorf("campaign: job %s: %w", j.ID, err)
			}
		}
		if j.Policy != "" && !policies[j.Policy] {
			return fmt.Errorf("campaign: job %s: unknown policy %q (valid: %v)", j.ID, j.Policy, exp.AllPolicies())
		}
		for _, p := range j.Policies {
			if !policies[p] {
				return fmt.Errorf("campaign: job %s: unknown policy %q (valid: %v)", j.ID, p, exp.AllPolicies())
			}
		}
	}
	if s.Pool != nil && s.Pool.Workers <= 0 {
		return fmt.Errorf("campaign: pool.workers must be positive")
	}
	if s.Pool != nil && (s.Pool.Chunk < 0 || s.Pool.LeaseTTL < 0) {
		return fmt.Errorf("campaign: pool.chunk and pool.lease_ttl must be non-negative")
	}
	if s.Net != nil {
		if err := s.Net.Validate(); err != nil {
			return fmt.Errorf("campaign: net: %w", err)
		}
	}
	if s.Disk != nil {
		if err := s.Disk.Validate(); err != nil {
			return fmt.Errorf("campaign: disk: %w", err)
		}
	}
	if s.Num != nil {
		if err := s.Num.Validate(); err != nil {
			return fmt.Errorf("campaign: num: %w", err)
		}
	}
	if s.Clock != nil {
		if err := s.Clock.Validate(); err != nil {
			return fmt.Errorf("campaign: clock: %w", err)
		}
	}
	if s.Timeout < 0 {
		return fmt.Errorf("campaign: timeout must be non-negative")
	}
	return s.validateProcs()
}

// validateProcs checks each action in isolation, then the choreography over
// the timeline ordering.
func (s Spec) validateProcs() error {
	for i, p := range s.Procs {
		if p.At < 0 {
			return fmt.Errorf("campaign: proc %d: at must be non-negative", i)
		}
		if !validProcActions[p.Action] {
			return fmt.Errorf("campaign: proc %d: unknown action %q", i, p.Action)
		}
		if p.Target != TargetDaemon {
			idx, ok := workerTarget(p.Target)
			if !ok {
				return fmt.Errorf("campaign: proc %d: target %q (want %q or \"worker:<i>\")", i, p.Target, TargetDaemon)
			}
			if s.Pool == nil {
				return fmt.Errorf("campaign: proc %d: worker target %q without a pool spec", i, p.Target)
			}
			if idx >= s.Pool.Workers {
				return fmt.Errorf("campaign: proc %d: worker index %d out of range (pool has %d)", i, idx, s.Pool.Workers)
			}
		}
	}
	// Replay the timeline per target: a stop must be resumed, a kill without
	// restart leaves the target down for the rest of the episode.
	type state struct{ stopped, dead bool }
	states := map[string]*state{}
	stateOf := func(t string) *state {
		if states[t] == nil {
			states[t] = &state{}
		}
		return states[t]
	}
	for _, p := range TimelineOrder(s.Procs) {
		st := stateOf(p.Target)
		switch p.Action {
		case ActStop:
			st.stopped = true
		case ActCont:
			st.stopped = false
		case ActKill:
			st.stopped, st.dead = false, true
		case ActRestart:
			st.stopped, st.dead = false, false
		}
	}
	if s.Disk != nil && s.Disk.CrashAtOp > 0 && !restartsDaemon(s.Procs) {
		return fmt.Errorf("campaign: disk.crash_at_op power-cuts the daemon: add a %q action for it, or no result can ever be fetched", ActRestart)
	}
	if st := states[TargetDaemon]; st != nil && (st.stopped || st.dead) {
		return fmt.Errorf("campaign: the daemon ends the timeline %s: add a %q (or %q) action, or no result can ever be fetched",
			stateWord(st.stopped), ActRestart, ActCont)
	}
	if s.Pool != nil {
		alive := 0
		for i := 0; i < s.Pool.Workers; i++ {
			st := states[fmt.Sprintf("worker:%d", i)]
			if st == nil || (!st.stopped && !st.dead) {
				alive++
			}
		}
		if alive == 0 {
			return fmt.Errorf("campaign: every worker ends the timeline stopped or dead; leases would expire forever and no shard could finish")
		}
	}
	return nil
}

func restartsDaemon(procs []ProcAction) bool {
	for _, p := range procs {
		if p.Target == TargetDaemon && p.Action == ActRestart {
			return true
		}
	}
	return false
}

func stateWord(stopped bool) string {
	if stopped {
		return "stopped"
	}
	return "dead"
}

// workerTarget parses "worker:<i>".
func workerTarget(t string) (int, bool) {
	rest, ok := strings.CutPrefix(t, "worker:")
	if !ok {
		return 0, false
	}
	i, err := strconv.Atoi(rest)
	if err != nil || i < 0 {
		return 0, false
	}
	return i, true
}

// TimelineOrder returns the proc actions sorted by At (stable on spec order
// for equal offsets) — the order drivers apply them and validation replays
// them.
func TimelineOrder(procs []ProcAction) []ProcAction {
	out := append([]ProcAction(nil), procs...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// deriveSeed mixes the campaign seed, episode index, and a per-injector salt
// into a non-zero seed, so each episode explores a different corner of the
// fault lattice while staying perfectly replayable.
func deriveSeed(base int64, episode int, salt uint64) int64 {
	h := splitmix.Mix(uint64(base) ^ splitmix.Mix(uint64(episode)*0x9e37+salt))
	if h == 0 {
		h = 1
	}
	return int64(h)
}

// Per-injector salts for deriveSeed.
const (
	saltDisk  = 0xd15c
	saltNum   = 0x40f1
	saltNet   = 0x4e7f
	saltClock = 0xc10c
)

// ForEpisode resolves the spec for one episode: every embedded schedule whose
// seed is 0 gets a seed derived from (Seed, episode). Schedules that already
// carry a non-zero seed are left alone — that is how a minimized repro pins
// the exact failing draw sequence when it is replayed as episode 0 forever.
func (s Spec) ForEpisode(episode int) Spec {
	eff := s.Clone()
	if eff.Disk != nil && eff.Disk.Seed == 0 {
		eff.Disk.Seed = deriveSeed(s.Seed, episode, saltDisk)
	}
	if eff.Num != nil && eff.Num.Seed == 0 {
		eff.Num.Seed = deriveSeed(s.Seed, episode, saltNum)
	}
	if eff.Net != nil && eff.Net.Seed == 0 {
		eff.Net.Seed = deriveSeed(s.Seed, episode, saltNet)
	}
	if eff.Clock != nil && eff.Clock.Seed == 0 {
		eff.Clock.Seed = deriveSeed(s.Seed, episode, saltClock)
	}
	return eff
}

// WithoutFaults strips the entire fault lattice — network, disk, numeric,
// clock, proc actions — and the pool, leaving the plain in-process daemon running
// the same jobs. This is the reference configuration: a chaotic episode's
// completed results must be byte-identical to it (or carry a declared
// fail-safe / typed refusal; see the oracle catalog).
func (s Spec) WithoutFaults() Spec {
	eff := s.Clone()
	eff.Net, eff.Disk, eff.Num, eff.Clock = nil, nil, nil, nil
	eff.Procs = nil
	eff.Pool = nil
	return eff
}

// Clone deep-copies the spec through its canonical JSON form.
func (s Spec) Clone() Spec {
	var out Spec
	if err := json.Unmarshal(s.Canonical(), &out); err != nil {
		// A Spec that marshaled cannot fail to unmarshal; this is unreachable
		// short of memory corruption.
		panic("campaign: clone: " + err.Error())
	}
	return out
}

// Canonical returns the spec's canonical JSON encoding — the key the
// shrinker's predicate cache and the corpus dedup use.
func (s Spec) Canonical() []byte {
	data, err := json.Marshal(s)
	if err != nil {
		panic("campaign: marshal: " + err.Error())
	}
	return data
}

// IdempotencyKey derives the stable submission token for a job in an
// episode: resubmitting it (the crucible always submits twice) must dedup
// into the same job, and distinct episodes must never collide.
func IdempotencyKey(campaignName string, episode int, jobID string) string {
	name := campaignName
	if name == "" {
		name = "campaign"
	}
	return fmt.Sprintf("crucible-%s-ep%d-%s", name, episode, jobID)
}
