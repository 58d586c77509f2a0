// Package daemon is the crash-safe control plane for the TECfan stack: a
// long-running HTTP server that executes simulations and chaos sweeps as
// jobs. Every job checkpoints its full run state (thermal field,
// controller memory — including the fault-tolerant controller's fault log —
// workload progress, RNG streams) through internal/checkpoint on a
// configurable cadence, so a crash, SIGKILL, or power loss costs at most one
// checkpoint interval of recomputation and never changes the result: resumed
// runs are bitwise-identical to uninterrupted ones.
//
// Every job reaches an executor as a lease of the daemon's pool.Coordinator:
// in-process executors claim, checkpoint and complete through direct calls,
// remote workers (PoolEnabled) over /pool/*. A panicking, failing or
// stalled attempt is reported and regranted from its last checkpoint, until
// it has failed MaxAttempts times. The admission queue is bounded: a full
// queue sheds load with 429 and a Retry-After hint instead of buffering
// unboundedly. SIGTERM drains gracefully — in-flight jobs are canceled at
// their next control boundary, which persists a final checkpoint for the
// next incarnation to resume.
package daemon

import (
	"context"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"log"
	"maps"
	"math/rand"
	"net/http"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tecfan/internal/checkpoint"
	"tecfan/internal/clockfault"
	"tecfan/internal/diskfault"
	"tecfan/internal/exp"
	"tecfan/internal/numfault"
	"tecfan/internal/numguard"
	"tecfan/internal/pool"
)

// Config tunes the daemon. Zero values take the documented defaults.
type Config struct {
	// StateDir holds job checkpoints (<id>.ckpt) and results
	// (<id>.result — the same atomic checkpoint envelope). Required.
	StateDir string
	// Workers is the number of in-process job executors, none under
	// PoolEnabled (default runtime.GOMAXPROCS(0): every job is a CPU-bound
	// simulation on one goroutine, so one executor per CPU fills the host
	// without oversubscribing it). All executors share the daemon's model.
	Workers int
	// QueueDepth bounds the admission queue; submissions beyond it are shed
	// with 429 (default 8).
	QueueDepth int
	// CheckpointEvery is the sim-level checkpoint cadence in control periods
	// (default 25, i.e. every 50 ms of simulated time at the paper's 2 ms
	// period). Chaos sweeps checkpoint per finished row regardless.
	CheckpointEvery int
	// MaxAttempts fails a job once one of its shards has failed this many
	// attempts (default 3). A panic, an error and a stalled local attempt
	// each count; a remote lease that expires does not.
	MaxAttempts int
	// WatchdogTimeout fails a local attempt that saves no checkpoint or
	// finished row for this long (default 2 m; <0 disables).
	WatchdogTimeout time.Duration
	// SubmitRate and SubmitBurst shape the token-bucket admission control on
	// POST /jobs: sustained submissions per second and the burst above it
	// (defaults 50/s, burst 100; SubmitRate < 0 disables the bucket).
	SubmitRate  float64
	SubmitBurst int
	// RequestTimeout bounds each HTTP request's handling (default 30 s;
	// < 0 disables).
	RequestTimeout time.Duration
	// PoolEnabled hands execution to tecfan-worker processes: the daemon's
	// coordinator shards each job, leases the shards to them under fencing
	// tokens, and merges their results.
	PoolEnabled bool
	// PoolLeaseTTL is how long a worker's shard lease survives without a
	// heartbeat before it is fenced and reassigned (default 10 s).
	PoolLeaseTTL time.Duration
	// PoolChunk is how many sweep rows ride in one shard (default 2).
	PoolChunk int
	// FS is the filesystem seam every durable byte flows through (default
	// the real filesystem; tests and the crucible's disk-fault entries
	// inject a diskfault.FaultFS).
	FS diskfault.FS
	// NumFaults, when non-nil, arms the numerical-chaos injector for every
	// trace job this daemon runs — the seam of the crucible entries
	// transient-nan-recovery and persistent-nan-failsafe, mirroring the
	// diskfault schedule flag.
	NumFaults *numfault.Schedule
	// CheckpointKeep is how many generations of each job checkpoint to
	// retain, head included (default 3; 1 disables rotation). Reads fall
	// back from a corrupt head to the newest verifiable generation.
	CheckpointKeep int
	// ScrubInterval is the cadence of the background scrubber that
	// re-verifies checkpoint envelopes on disk and repairs corrupt
	// generations from a good copy (default 30 s; < 0 disables).
	ScrubInterval time.Duration
	// StorageProbeInterval is how often, while in ENOSPC degraded mode, the
	// daemon test-writes the state dir to detect recovered space
	// (default 2 s).
	StorageProbeInterval time.Duration
	// Logf receives operational log lines (default log.Printf).
	Logf func(format string, args ...any)

	// Clock is the time seam (default clockfault.OS). Stalled-attempt
	// detection, lease expiry, and admission refill all run on this clock's
	// monotonic arithmetic; its wall side only feeds seeds and logs.
	Clock clockfault.Clock

	rng *rand.Rand // id source; tests may seed it
}

func (c *Config) fillDefaults() error {
	if c.StateDir == "" {
		return fmt.Errorf("daemon: StateDir is required")
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 8
	}
	if c.CheckpointEvery <= 0 {
		c.CheckpointEvery = 25
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.WatchdogTimeout == 0 {
		c.WatchdogTimeout = 2 * time.Minute
	}
	if c.SubmitRate == 0 {
		c.SubmitRate = 50
	}
	if c.SubmitBurst <= 0 {
		c.SubmitBurst = 100
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.PoolLeaseTTL <= 0 {
		c.PoolLeaseTTL = pool.DefaultLeaseTTL
	}
	if c.PoolChunk <= 0 {
		c.PoolChunk = pool.DefaultChunk
	}
	if c.FS == nil {
		c.FS = diskfault.OS
	}
	if c.CheckpointKeep <= 0 {
		c.CheckpointKeep = checkpoint.DefaultKeepGenerations
	}
	if c.ScrubInterval == 0 {
		c.ScrubInterval = 30 * time.Second
	}
	if c.StorageProbeInterval <= 0 {
		c.StorageProbeInterval = 2 * time.Second
	}
	if c.Logf == nil {
		c.Logf = log.Printf
	}
	c.Clock = clockfault.Or(c.Clock)
	if c.rng == nil {
		c.rng = rand.New(rand.NewSource(c.Clock.Now().UnixNano()))
	}
	return nil
}

// JobKind selects what a job runs.
type JobKind string

const (
	// KindTrace runs one benchmark under one policy at a fixed fan level
	// with trace recording — the checkpoint-heavy workhorse.
	KindTrace = JobKind(pool.KindTrace)
	// KindChaos runs a chaos sweep, checkpointing per finished row.
	KindChaos = JobKind(pool.KindChaos)
	// KindTable1 reproduces the Table I base-scenario rows, checkpointing per
	// finished row.
	KindTable1 = JobKind(pool.KindTable1)
	// KindFig4 reproduces the §V-B comparison over the Table I benchmarks,
	// checkpointing per finished case.
	KindFig4 = JobKind(pool.KindFig4)
)

// JobSpec is the client-facing description of a job. The same spec always
// produces the same result: thresholds derive deterministically from the
// base scenario when not given, and every random stream is seeded.
type JobSpec struct {
	// ID names the job; optional (a random one is assigned). Client-chosen
	// IDs make results addressable across daemon restarts.
	ID   string  `json:"id,omitempty"`
	Kind JobKind `json:"kind"`

	Bench   string  `json:"bench"`
	Threads int     `json:"threads"`
	Scale   float64 `json:"scale,omitempty"` // instruction-budget scale (default 1)

	// Trace jobs.
	Policy    string  `json:"policy,omitempty"`    // default "TECfan"
	FanLevel  int     `json:"fan_level,omitempty"` // 0 = fastest
	Threshold float64 `json:"threshold,omitempty"` // 0 = base-scenario peak
	Scenario  string  `json:"scenario,omitempty"`  // optional fault scenario
	Seed      int64   `json:"seed,omitempty"`      // fault-target/noise seed

	// Chaos jobs.
	Policies  []string `json:"policies,omitempty"`
	Scenarios []string `json:"scenarios,omitempty"`
}

// JobState is a job's lifecycle phase.
type JobState string

const (
	StateQueued   JobState = "queued"
	StateRunning  JobState = "running"
	StateDone     JobState = "done"
	StateFailed   JobState = "failed"
	StateCanceled JobState = "canceled"
)

// JobView is the status record served over HTTP.
type JobView struct {
	ID       string   `json:"id"`
	Kind     JobKind  `json:"kind"`
	State    JobState `json:"state"`
	Attempts int      `json:"attempts"`
	Error    string   `json:"error,omitempty"`
	// Resumed reports that this incarnation picked the job up from a
	// previous process's checkpoint.
	Resumed bool    `json:"resumed,omitempty"`
	Spec    JobSpec `json:"spec"`
	// RequestID is the X-Request-ID of the submission that created the job,
	// tying every job-log line back to the client call that caused it.
	RequestID string `json:"request_id,omitempty"`
}

// job is the in-memory record.
type job struct {
	spec      JobSpec
	state     JobState
	attempts  int
	err       string
	resumed   bool
	requestID string // X-Request-ID of the creating submission
	// ctx is canceled by DELETE or drain; local attempts run under it.
	ctx    context.Context
	cancel context.CancelFunc
	// deleted marks a client's DELETE: the job's checkpoint goes with it,
	// where a drain keeps it for the next incarnation to resume.
	deleted bool
	done    chan struct{} // closed once the job is terminal and its checkpoint settled
}

func (j *job) terminal() bool {
	return j.state == StateDone || j.state == StateFailed || j.state == StateCanceled
}

// Server is the control-plane daemon.
type Server struct {
	cfg Config

	mu    sync.Mutex
	jobs  map[string]*job
	order []string

	queued   int // jobs no shard of which has been granted yet
	draining bool
	// reserved holds the ids of submissions still persisting their spec;
	// each also holds one queue slot.
	reserved map[string]bool

	// idem is the durable idempotency table; idemMu serializes tokened
	// submissions so two concurrent retries of the same POST cannot both
	// miss the table and enqueue twice.
	idem   *checkpoint.IdemStore
	idemMu sync.Mutex

	admit *tokenBucket

	// pool leases every job to its executors: the local lessees, or under
	// PoolEnabled the remote workers.
	pool *pool.Coordinator
	// execute runs a shard a local lessee was granted: Execute of the one
	// executor all lessees share, or a test's stand-in.
	execute func(ctx context.Context, sh pool.ShardSpec, from *pool.Checkpoint, save func(*pool.Checkpoint) error) (*pool.ShardResult, error)

	// genStores caches the per-job generational checkpoint stores (guarded
	// by mu). Each store serializes its own file operations, so one job's
	// rotation is kept apart from the scrubber without making two jobs'
	// checkpoints wait on each other.
	genStores map[string]*checkpoint.GenStore

	// diverged records jobs whose run confirmed a numeric divergence; the
	// record is sticky (like the FT controller's fail-safe) and surfaces as
	// a /readyz reason until the operator restarts the daemon. numMu guards
	// it; divergedOrder keeps reporting deterministic.
	numMu         sync.Mutex
	diverged      map[string]numguard.Violation
	divergedOrder []string

	// Storage-robustness state: degraded flips on ENOSPC (submissions shed,
	// checkpoints skipped) and back off when a probe write lands again.
	degraded           atomic.Bool
	skippedWrites      atomic.Int64
	scrubPasses        atomic.Int64
	scrubRepairs       atomic.Int64
	quarantinedRetired atomic.Int64

	wg       sync.WaitGroup
	rootCtx  context.Context
	rootStop context.CancelFunc
}

// New builds a Server, creating StateDir if needed and resuming any
// interrupted jobs found there.
func New(cfg Config) (*Server, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	if err := cfg.FS.MkdirAll(cfg.StateDir, 0o755); err != nil {
		return nil, fmt.Errorf("daemon: %w", err)
	}
	idem, err := checkpoint.OpenIdemStoreFS(cfg.FS, filepath.Join(cfg.StateDir, "idempotency.idem"), checkpoint.DefaultIdemMaxEntries, cfg.Logf)
	if err != nil {
		return nil, fmt.Errorf("daemon: %w", err)
	}
	ctx, stop := context.WithCancel(context.Background())
	s := &Server{
		cfg:       cfg,
		jobs:      map[string]*job{},
		reserved:  map[string]bool{},
		idem:      idem,
		admit:     newTokenBucket(cfg.SubmitRate, cfg.SubmitBurst, cfg.Clock),
		genStores: map[string]*checkpoint.GenStore{},
		execute:   pool.NewExecutor(cfg.NumFaults).Execute,
		rootCtx:   ctx,
		rootStop:  stop,
	}
	leaseTTL := localLeaseTTL
	if cfg.PoolEnabled {
		leaseTTL = cfg.PoolLeaseTTL
	}
	s.pool = pool.New(pool.Config{LeaseTTL: leaseTTL, Logf: cfg.Logf, Clock: cfg.Clock})
	if err := s.recover(); err != nil {
		stop()
		return nil, err
	}
	s.sweepIdempotency()
	if !cfg.PoolEnabled {
		for i := 0; i < cfg.Workers; i++ {
			s.wg.Add(1)
			go s.lessee("local-" + strconv.Itoa(i))
		}
	}
	if cfg.ScrubInterval > 0 {
		s.wg.Add(1)
		go s.scrubber()
	}
	s.wg.Add(1)
	go s.storageProbe()
	return s, nil
}

var (
	idRe    = regexp.MustCompile(`^[A-Za-z0-9_-]{1,64}$`)
	tokenRe = regexp.MustCompile(`^[A-Za-z0-9._-]{1,128}$`)
)

// Submit validates and enqueues a job. A full queue returns ErrQueueFull; a
// draining server returns ErrDraining.
func (s *Server) Submit(spec JobSpec) (string, error) {
	return s.submit(spec, "")
}

// SubmitIdempotent submits a job under a client idempotency token: a token
// the daemon has seen before — in this incarnation or any earlier one, the
// table is durable — returns the original job's id with dup=true instead of
// enqueuing a second copy. requestID is the submission's X-Request-ID, woven
// into the job log.
//
// Ordering is the exactly-once argument: the token is recorded durably
// BEFORE the job's spec is persisted and the job enqueued. A crash between
// the two leaves a token pointing at a job that never existed; startup
// sweeps such orphans (sweepIdempotency), so the client's retry submits
// afresh — one run, not zero, not two. The reverse order would leave a
// persisted job the retry could not be matched to, and the retry would
// enqueue a duplicate.
func (s *Server) SubmitIdempotent(spec JobSpec, token, requestID string) (id string, dup bool, err error) {
	if token == "" {
		id, err = s.submit(spec, requestID)
		return id, false, err
	}
	if !tokenRe.MatchString(token) {
		return "", false, fmt.Errorf("daemon: invalid idempotency token %q", token)
	}
	if err := validateSpec(&spec); err != nil {
		// Reject garbage before burning a durable table entry on it.
		return "", false, err
	}
	s.idemMu.Lock()
	defer s.idemMu.Unlock()
	if prior, ok := s.idem.Get(token); ok {
		s.cfg.Logf("daemon: request %s: idempotency token replay -> job %s", requestID, prior)
		return prior, true, nil
	}
	if spec.ID == "" {
		s.mu.Lock()
		spec.ID = s.newID()
		s.mu.Unlock()
	}
	if err := s.idem.Put(token, spec.ID); err != nil {
		return "", false, fmt.Errorf("daemon: recording idempotency token: %w", err)
	}
	id, err = s.submit(spec, requestID)
	if err != nil {
		// The reservation must not outlive the refusal, or every retry of a
		// shed submission would be "deduplicated" into a job that was never
		// accepted.
		if derr := s.idem.Delete(token); derr != nil {
			s.cfg.Logf("daemon: rolling back idempotency token: %v", derr)
		}
		return "", false, err
	}
	return id, false, nil
}

func (s *Server) submit(spec JobSpec, requestID string) (string, error) {
	if err := validateSpec(&spec); err != nil {
		return "", err
	}
	if s.degraded.Load() {
		// A spec that cannot be persisted would vanish in a crash; shed it
		// with a retryable status instead of making a promise the disk
		// cannot keep.
		return "", ErrStorageDegraded
	}
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return "", ErrDraining
	}
	if spec.ID == "" {
		spec.ID = s.newID()
	}
	if _, exists := s.jobs[spec.ID]; exists || s.reserved[spec.ID] {
		s.mu.Unlock()
		return "", fmt.Errorf("%w: %s", ErrDuplicateID, spec.ID)
	}
	if s.queueFullLocked() {
		s.mu.Unlock()
		return "", ErrQueueFull
	}
	s.reserved[spec.ID] = true
	s.mu.Unlock()
	// Persist the bare spec before any executor can see the job: a crash
	// before the first checkpoint must still resume (restart) the job, and
	// a spec write that landed after the job's first progress checkpoint
	// would replace it as the head generation. A spec the disk would not
	// take is a promise it cannot keep; refuse the submission retryably.
	err := s.persistJob(&persistedJob{Spec: spec})
	if err != nil {
		s.cfg.Logf("daemon: persisting spec for %s: %v", spec.ID, err)
		err = fmt.Errorf("%w: %v", ErrSpecNotPersisted, err)
	}
	s.mu.Lock()
	delete(s.reserved, spec.ID)
	if err == nil && s.draining {
		err = ErrDraining // the queue closed during the write
	}
	if err != nil {
		s.mu.Unlock()
		// The reservation kept every other submission of this id out, so
		// the store holds only what this one wrote.
		_ = s.gens(spec.ID).RemoveAll()
		s.dropGens(spec.ID)
		return "", err
	}
	j := s.addJobLocked(spec, requestID, false)
	s.mu.Unlock()
	s.register(j, nil)
	return spec.ID, nil
}

// addJobLocked lists a queued job. s.mu is held.
func (s *Server) addJobLocked(spec JobSpec, requestID string, resumed bool) *job {
	j := &job{spec: spec, state: StateQueued, requestID: requestID, resumed: resumed, done: make(chan struct{})}
	j.ctx, j.cancel = context.WithCancel(s.rootCtx)
	s.jobs[spec.ID] = j
	s.order = append(s.order, spec.ID)
	s.queued++
	return j
}

// queueFullLocked reports whether every queue slot is taken, counting the
// slots reserved by submissions still persisting their spec. s.mu is held.
func (s *Server) queueFullLocked() bool {
	return s.queued+len(s.reserved) >= s.cfg.QueueDepth
}

// sweepIdempotency drops tokens whose job left no trace on disk: the crash
// landed between the token write and the job-spec write, so the submission
// never happened — the client's retry must be allowed to start it fresh.
func (s *Server) sweepIdempotency() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for token, id := range s.idem.All() {
		if _, ok := s.jobs[id]; ok {
			continue
		}
		s.cfg.Logf("daemon: sweeping orphaned idempotency token for job %s (crash before spec persisted)", id)
		if err := s.idem.Delete(token); err != nil {
			s.cfg.Logf("daemon: sweeping idempotency token: %v", err)
		}
	}
}

// Typed submission failures.
var (
	ErrQueueFull = fmt.Errorf("daemon: queue full")
	// ErrSpecNotPersisted refuses a submission whose spec could not be
	// written durably (torn write, EIO); retrying is safe.
	ErrSpecNotPersisted = fmt.Errorf("daemon: job spec not persisted")
	ErrDraining         = fmt.Errorf("daemon: draining")
	ErrDuplicateID      = fmt.Errorf("daemon: duplicate job id")
)

func validateSpec(spec *JobSpec) error {
	if spec.ID != "" && !idRe.MatchString(spec.ID) {
		return fmt.Errorf("daemon: invalid job id %q", spec.ID)
	}
	switch spec.Kind {
	case KindTrace, KindChaos:
		if spec.Bench == "" {
			return fmt.Errorf("daemon: bench is required")
		}
		if spec.Threads <= 0 {
			return fmt.Errorf("daemon: threads must be positive")
		}
	case KindTable1, KindFig4:
		// Whole-table sweeps over the fixed Table I set: no bench selection.
	default:
		return fmt.Errorf("daemon: unknown job kind %q", spec.Kind)
	}
	if spec.Scale < 0 {
		return fmt.Errorf("daemon: scale must be non-negative")
	}
	if spec.Kind == KindTrace {
		if spec.Policy == "" {
			spec.Policy = "TECfan"
		}
		// Refused here, not by the runner: an attempt at a level the fan
		// does not have fails the same way on every retry.
		if spec.FanLevel < 0 || spec.FanLevel >= fanLevels {
			return fmt.Errorf("daemon: fan_level %d out of range [0, %d)", spec.FanLevel, fanLevels)
		}
	}
	return nil
}

// fanLevels is the level count of the fan every job runs under.
var fanLevels = exp.FanModel().NumLevels()

func (s *Server) newID() string {
	// Collision-proof within the map we hold the lock on.
	for {
		var raw [4]byte
		binary.BigEndian.PutUint32(raw[:], s.cfg.rng.Uint32())
		id := "job-" + hex.EncodeToString(raw[:])
		if _, ok := s.jobs[id]; !ok {
			return id
		}
	}
}

// Cancel requests cancellation of a queued or running job. A local attempt
// ends its job at its next control boundary; any other job ends here.
func (s *Server) Cancel(id string) error {
	s.mu.Lock()
	j, ok := s.jobs[id]
	local := ok && j.state == StateRunning && !s.cfg.PoolEnabled
	if ok && !j.terminal() {
		j.deleted = true
	}
	s.mu.Unlock()
	switch {
	case !ok:
		return fmt.Errorf("daemon: no such job %s", id)
	case local:
		j.cancel()
	default:
		s.finish(id, j, StateCanceled, context.Canceled.Error())
	}
	return nil
}

// Job returns a job's status view.
func (s *Server) Job(id string) (JobView, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobView{}, false
	}
	return s.viewLocked(id, j), true
}

// Jobs lists every job in submission order.
func (s *Server) Jobs() []JobView {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobView, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.viewLocked(id, s.jobs[id]))
	}
	return out
}

func (s *Server) viewLocked(id string, j *job) JobView {
	return JobView{
		ID: id, Kind: j.spec.Kind, State: j.state, Attempts: j.attempts,
		Error: j.err, Resumed: j.resumed, Spec: j.spec, RequestID: j.requestID,
	}
}

// Draining reports whether the server has begun shutdown.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Shutdown drains the daemon: no new submissions, running local attempts
// are canceled at their next control boundary (persisting a final
// checkpoint), and every job left unfinished ends canceled once the
// executors have stopped. It returns when that is done or ctx expires.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil
	}
	s.draining = true
	s.mu.Unlock()
	s.rootStop()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		s.mu.Lock()
		jobs := maps.Clone(s.jobs)
		s.mu.Unlock()
		for id, j := range jobs {
			s.finish(id, j, StateCanceled, "daemon draining")
		}
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("daemon: shutdown timed out: %w", ctx.Err())
	}
}

// finish moves a job to its terminal state, once, and forgets its lease.
func (s *Server) finish(id string, j *job, st JobState, msg string) {
	s.mu.Lock()
	if j.terminal() {
		s.mu.Unlock()
		return
	}
	if j.state == StateQueued {
		s.queued--
	}
	j.state = st
	j.err = msg
	rid, forget := j.requestID, st == StateDone || j.deleted
	s.mu.Unlock()
	j.cancel()
	s.pool.DropJob(id)
	if forget {
		// The result file is durable, or the client wants the job gone: the
		// checkpoint (all generations) has served its purpose, and recover
		// must not resume it. Quarantined .bad-N files stay for post-mortem.
		_ = s.gens(id).RemoveAll()
		s.dropGens(id)
	}
	// Last, so a Wait that returns sees the state dir settled too.
	close(j.done)
	if rid != "" {
		s.cfg.Logf("daemon: job %s -> %s (request %s)", id, st, rid)
	} else {
		s.cfg.Logf("daemon: job %s -> %s", id, st)
	}
}

// Wait blocks until the job reaches a terminal state or ctx expires.
func (s *Server) Wait(ctx context.Context, id string) error {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("daemon: no such job %s", id)
	}
	select {
	case <-j.done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (s *Server) ckptPath(id string) string {
	return filepath.Join(s.cfg.StateDir, id+".ckpt")
}

func (s *Server) resultPath(id string) string {
	return filepath.Join(s.cfg.StateDir, id+".result")
}

// Handler returns the daemon's HTTP API, wrapped in the request-ID and
// per-request-timeout middleware.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /livez", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", serveJSON(s.Jobs))
	mux.HandleFunc("GET /jobs/{id}", s.handleJob)
	mux.HandleFunc("DELETE /jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /storage", serveJSON(s.StorageStats)) // degraded flag, skips, quarantines, scrubs
	// The coordinator leases every job, local or remote, so its read-only
	// views are always served; only the worker protocol needs PoolEnabled.
	mux.HandleFunc("GET /pool/stats", serveJSON(s.pool.Stats))
	mux.HandleFunc("GET /pool/leases", serveJSON(s.pool.Leases))
	if s.cfg.PoolEnabled {
		mux.HandleFunc("POST /pool/claim", poolCall(pool.DecodeClaimRequest, s.poolClaim))
		mux.HandleFunc("POST /pool/heartbeat", poolCall(pool.DecodeHeartbeat, s.poolHeartbeat))
		mux.HandleFunc("POST /pool/checkpoint", poolCall(pool.DecodeCheckpointUpload, s.poolCheckpoint))
		mux.HandleFunc("POST /pool/complete", poolCall(pool.DecodeComplete, s.poolComplete))
	}
	var h http.Handler = mux
	if s.cfg.RequestTimeout > 0 {
		h = withRequestTimeout(h, s.cfg.RequestTimeout)
	}
	// Outermost so even timeout/request-ID rejections carry the ready state.
	return s.withReadyHeader(s.withRequestID(h))
}

// recover scans StateDir on startup: jobs with results load as done; jobs
// with only a checkpoint re-enter the coordinator and resume where they
// left off, however many there are. Job ids are derived from head files AND
// rotated generations, so a job whose head was quarantined but whose .gN
// fallbacks survive still resumes.
func (s *Server) recover() error {
	entries, err := s.cfg.FS.ReadDir(s.cfg.StateDir)
	if err != nil {
		return fmt.Errorf("daemon: %w", err)
	}
	seen := map[string]bool{}
	for _, e := range entries {
		m := ckptFileRe.FindStringSubmatch(e.Name())
		if m == nil || seen[m[1]] {
			continue
		}
		id := m[1]
		seen[id] = true
		rec, err := s.loadJob(id)
		if err != nil {
			// No generation of this checkpoint verifies (torn write beaten by
			// the atomic rename, version skew after an upgrade, rot). Not a
			// crash: loadJob already quarantined the corpses; log, move on.
			s.cfg.Logf("daemon: ignoring unreadable checkpoint for %s: %v", id, err)
			continue
		}
		if _, err := s.cfg.FS.Stat(s.resultPath(id)); err == nil {
			// Finished before the previous incarnation died; the checkpoint
			// outlived its usefulness.
			_ = s.gens(id).RemoveAll()
			s.dropGens(id)
			continue
		}
		s.cfg.Logf("daemon: resuming job %s from checkpoint (progress: %v)", id, rec.Pool != nil)
		s.register(s.addJobLocked(rec.Spec, "", true), rec.Pool) // no goroutine runs yet
	}
	// Results without live jobs stay on disk and are served directly; list
	// them so GET /jobs shows history across restarts.
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".result") {
			continue
		}
		id := strings.TrimSuffix(name, ".result")
		if _, ok := s.jobs[id]; ok {
			continue
		}
		j := &job{spec: JobSpec{ID: id}, state: StateDone, resumed: true, done: make(chan struct{})}
		close(j.done)
		s.jobs[id] = j
		s.order = append(s.order, id)
	}
	return nil
}
