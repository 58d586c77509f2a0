package daemon

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"tecfan/internal/checkpoint"
	"tecfan/internal/diskfault"
	"tecfan/internal/pool"
)

// enospcToggle wraps a real FS and, while tripped, refuses every file
// creation with ENOSPC — a full disk an operator later clears. It also
// counts creation attempts so tests can prove degraded mode stops trying.
type enospcToggle struct {
	diskfault.FS
	full     atomic.Bool
	attempts atomic.Int64
}

func (f *enospcToggle) enospc(op, name string) error {
	return &os.PathError{Op: op, Path: name, Err: syscall.ENOSPC}
}

func (f *enospcToggle) CreateTemp(dir, pattern string) (diskfault.File, error) {
	f.attempts.Add(1)
	if f.full.Load() {
		return nil, f.enospc("createtemp", filepath.Join(dir, pattern))
	}
	return f.FS.CreateTemp(dir, pattern)
}

func (f *enospcToggle) Create(name string) (diskfault.File, error) {
	f.attempts.Add(1)
	if f.full.Load() {
		return nil, f.enospc("create", name)
	}
	return f.FS.Create(name)
}

// syncGate wraps the real FS and holds the fsync of a job's checkpoint
// write until open is called: a disk stalled under one write. It holds at
// most one write per job, the first one hold picks from the decoded record.
type syncGate struct {
	diskfault.FS
	hold func(id string, rec *persistedJob) bool
	held chan struct{}
	rel  chan struct{}

	mu     sync.Mutex
	seen   map[string]bool
	opened sync.Once
}

func newSyncGate(hold func(id string, rec *persistedJob) bool) *syncGate {
	return &syncGate{FS: diskfault.OS, hold: hold, held: make(chan struct{}, 16),
		rel: make(chan struct{}), seen: map[string]bool{}}
}

// open releases every held fsync, now and from then on.
func (g *syncGate) open() { g.opened.Do(func() { close(g.rel) }) }

// waitHeld waits until n writes are held.
func (g *syncGate) waitHeld(t *testing.T, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		select {
		case <-g.held:
		case <-time.After(60 * time.Second):
			t.Fatalf("%d of %d checkpoint writes held", i, n)
		}
	}
}

func (g *syncGate) CreateTemp(dir, pattern string) (diskfault.File, error) {
	f, err := g.FS.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	id, ok := strings.CutSuffix(pattern, ".ckpt.tmp*")
	if !ok {
		return f, nil
	}
	return &gatedFile{File: f, gate: g, id: id}, nil
}

type gatedFile struct {
	diskfault.File
	gate *syncGate
	id   string
	data []byte
}

func (f *gatedFile) Write(p []byte) (int, error) {
	f.data = append(f.data, p...)
	return f.File.Write(p)
}

func (f *gatedFile) Sync() error {
	g := f.gate
	g.mu.Lock()
	hold := false
	if !g.seen[f.id] {
		if rec := decodeJob(f.data); rec != nil && g.hold(f.id, rec) {
			g.seen[f.id], hold = true, true
		}
	}
	g.mu.Unlock()
	if hold {
		g.held <- struct{}{}
		<-g.rel
	}
	return f.File.Sync()
}

// decodeJob decodes the job record in a checkpoint file's bytes, or returns
// nil.
func decodeJob(data []byte) *persistedJob {
	payload, err := checkpoint.Decode(data)
	if err != nil {
		return nil
	}
	var rec persistedJob
	if gob.NewDecoder(bytes.NewReader(payload)).Decode(&rec) != nil {
		return nil
	}
	return &rec
}

func waitCond(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestENOSPCDegradedMode walks the full degraded-mode arc: a state write
// hits ENOSPC, the daemon sheds submissions with 503 and flips /readyz,
// stops attempting state writes, keeps serving reads — then auto-recovers
// the moment the probe lands again.
func TestENOSPCDegradedMode(t *testing.T) {
	fs := &enospcToggle{FS: diskfault.OS}
	cfg := fastConfig(t)
	cfg.FS = fs
	cfg.ScrubInterval = -1 // deterministic: no background writes
	cfg.StorageProbeInterval = 10 * time.Millisecond
	s := newTestServer(t, cfg)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	// Complete a tiny job while healthy so a durable result exists to read
	// back during the outage.
	id, err := s.Submit(JobSpec{ID: "pre", Kind: KindTrace, Bench: "cholesky",
		Threads: 16, Policy: "TECfan", Scale: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, id, StateDone)

	// The disk fills; the next state write trips degraded mode.
	fs.full.Store(true)
	if err := s.persistJob(&persistedJob{Spec: JobSpec{ID: "x"}}); !diskfault.IsNoSpace(err) {
		t.Fatalf("persist on full disk = %v, want ENOSPC", err)
	}
	if !s.StorageDegraded() {
		t.Fatal("daemon not degraded after ENOSPC")
	}

	// Submissions are shed with 503 + Retry-After.
	resp, err := http.Post(srv.URL+"/jobs", "application/json",
		strings.NewReader(`{"id":"shed","kind":"trace","bench":"cholesky","threads":16}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while degraded = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed submission missing Retry-After")
	}

	// /readyz flips with the storage reason.
	resp, err = http.Get(srv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	body := make([]byte, 1024)
	n, _ := resp.Body.Read(body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz while degraded = %d, want 503", resp.StatusCode)
	}
	if !strings.Contains(string(body[:n]), "storage degraded") {
		t.Fatalf("readyz reasons missing storage: %s", body[:n])
	}

	// While degraded no state write is attempted: persistJob skips without
	// touching the filesystem and counts the skip.
	before := fs.attempts.Load()
	if err := s.persistJob(&persistedJob{Spec: JobSpec{ID: "y"}}); err != nil {
		t.Fatalf("degraded persist should skip, got %v", err)
	}
	// The probe goroutine also creates files; tolerate those by checking
	// only that persistJob itself added no attempt synchronously... it
	// cannot be distinguished by count alone, so assert via the skip
	// counter AND that the checkpoint file never appeared.
	if got := s.StorageStats().SkippedCheckpoints; got == 0 {
		t.Fatal("skipped-checkpoint counter not incremented")
	}
	if _, err := os.Stat(s.ckptPath("y")); !os.IsNotExist(err) {
		t.Fatalf("state file written while degraded: %v", err)
	}
	_ = before

	// Reads still work: status list and the pre-outage result both serve.
	resp, err = http.Get(srv.URL + "/jobs/pre/result")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result read while degraded = %d, want 200", resp.StatusCode)
	}

	// Space returns; the probe notices and the daemon recovers on its own.
	fs.full.Store(false)
	waitCond(t, "degraded mode to clear", func() bool { return !s.StorageDegraded() })
	resp, err = http.Post(srv.URL+"/jobs", "application/json",
		strings.NewReader(`{"id":"after","kind":"trace","bench":"cholesky","threads":16,"scale":0.01}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit after recovery = %d, want 202", resp.StatusCode)
	}
	waitState(t, s, "after", StateDone)
}

// TestENOSPCDegradedEntryViaFaultFS proves the detection path against the
// real fault filesystem: a seeded schedule that refuses checkpoint and
// probe creations with ENOSPC flips the daemon degraded and keeps it there,
// because the probe keeps failing too.
func TestENOSPCDegradedEntryViaFaultFS(t *testing.T) {
	ffs, err := diskfault.New(diskfault.Schedule{Rules: []diskfault.Rule{
		{Action: diskfault.ActENOSPC, Path: "*.ckpt.tmp*"},
		{Action: diskfault.ActENOSPC, Path: ".readyz-probe-*"},
	}}, &diskfault.Options{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastConfig(t)
	cfg.FS = ffs
	cfg.ScrubInterval = -1
	cfg.StorageProbeInterval = 5 * time.Millisecond
	s := newTestServer(t, cfg)

	if err := s.persistJob(&persistedJob{Spec: JobSpec{ID: "j"}}); !diskfault.IsNoSpace(err) {
		t.Fatalf("persist through fault FS = %v, want ENOSPC", err)
	}
	if !s.StorageDegraded() {
		t.Fatal("fault-FS ENOSPC did not trip degraded mode")
	}
	if _, err := s.Submit(JobSpec{ID: "shed", Kind: KindTrace, Bench: "cholesky", Threads: 16}); err != ErrStorageDegraded {
		t.Fatalf("submit while degraded = %v, want ErrStorageDegraded", err)
	}
	// Give the probe a few cycles: it must NOT clear degraded while the
	// schedule still refuses probe files.
	time.Sleep(30 * time.Millisecond)
	if !s.StorageDegraded() {
		t.Fatal("degraded cleared while probes still fail")
	}
}

// TestScrubRepairsThroughDaemon corrupts a rotated generation on disk and
// lets the daemon's scrub pass find and repair it from the good head.
func TestScrubRepairsThroughDaemon(t *testing.T) {
	cfg := fastConfig(t)
	cfg.ScrubInterval = -1 // drive scrubs by hand
	s := newTestServer(t, cfg)
	spec := JobSpec{ID: "scrubme", Kind: KindTrace, Bench: "cholesky", Threads: 16}
	if err := s.persistJob(&persistedJob{Spec: spec}); err != nil {
		t.Fatal(err)
	}
	if err := s.persistJob(checkpointRecord(t, spec, &pool.Checkpoint{Threshold: 1})); err != nil {
		t.Fatal(err)
	}
	g1 := s.ckptPath("scrubme") + ".g1"
	if err := os.WriteFile(g1, []byte("bit rot"), 0o644); err != nil {
		t.Fatal(err)
	}
	if n := s.ScrubNow(); n != 1 {
		t.Fatalf("ScrubNow repaired %d generations, want 1", n)
	}
	if _, err := checkpoint.ReadFileFS(diskfault.OS, g1); err != nil {
		t.Fatalf("repaired generation does not verify: %v", err)
	}
	st := s.StorageStats()
	if st.ScrubRepairs != 1 || st.Quarantined == 0 {
		t.Fatalf("stats = %+v, want 1 repair and a quarantine", st)
	}
}

// TestResumeFromFallbackGeneration corrupts the checkpoint head between two
// daemon incarnations; the restart must resume from the .g1 fallback rather
// than forgetting the job.
func TestResumeFromFallbackGeneration(t *testing.T) {
	cfg := fastConfig(t)
	cfg.ScrubInterval = -1
	s := newTestServer(t, cfg)
	spec := JobSpec{ID: "fall", Kind: KindTrace, Bench: "cholesky", Threads: 16,
		Policy: "TECfan", Scale: 0.01}
	if err := s.persistJob(&persistedJob{Spec: spec}); err != nil {
		t.Fatal(err)
	}
	if err := s.persistJob(checkpointRecord(t, spec, &pool.Checkpoint{Threshold: 42})); err != nil {
		t.Fatal(err)
	}
	head := s.ckptPath("fall")
	raw, _ := os.ReadFile(head)
	raw[len(raw)-1] ^= 0x01
	if err := os.WriteFile(head, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	// Second incarnation over the same state dir: recover() must find the
	// job via the surviving .g1 fallback (a failed recovery would ignore
	// the id entirely), quarantine the rotten head, and run it to done.
	cfg2 := cfg
	s2 := newTestServer(t, cfg2)
	if _, ok := s2.Job("fall"); !ok {
		t.Fatal("job not re-queued from fallback generation")
	}
	if _, err := os.Stat(head + ".bad-1"); err != nil {
		t.Fatalf("corrupt head not quarantined: %v", err)
	}
	waitState(t, s2, "fall", StateDone)
}

// TestTornSpecWriteRefusesSubmission: a job whose spec never reached the disk
// would vanish in a crash, taking an accepted submission with it. While the
// job is still queued the daemon withdraws it and refuses retryably; once the
// disk takes the write, the retry is accepted.
func TestTornSpecWriteRefusesSubmission(t *testing.T) {
	ffs, err := diskfault.New(diskfault.Schedule{Rules: []diskfault.Rule{
		{Action: diskfault.ActTear, Path: "torn.ckpt.tmp*"},
	}}, &diskfault.Options{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastConfig(t)
	cfg.FS = ffs
	cfg.Workers = 1
	cfg.ScrubInterval = -1
	s := newTestServer(t, cfg)
	stubExec(s, func(ctx context.Context, _ func(*pool.Checkpoint) error) error {
		<-ctx.Done() // hold the executor until shutdown
		return ctx.Err()
	})

	// Occupy the only executor so the next job stays queued.
	if _, err := s.Submit(traceSpec("busy")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if v, _ := s.Job("busy"); v.State == StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("busy job never started")
		}
		time.Sleep(time.Millisecond)
	}

	if _, err := s.Submit(traceSpec("torn")); !errors.Is(err, ErrSpecNotPersisted) {
		t.Fatalf("submit with a torn spec write = %v, want ErrSpecNotPersisted", err)
	}
	if _, ok := s.Job("torn"); ok {
		t.Fatal("refused job is still listed")
	}
	for _, v := range s.Jobs() {
		if v.ID == "torn" {
			t.Fatal("refused job is still in the job table")
		}
	}
	// A different id is not torn: the daemon keeps accepting work.
	if _, err := s.Submit(traceSpec("whole")); err != nil {
		t.Fatalf("submit after a refusal = %v", err)
	}
}

// TestScrubOnlyHeldStores: the scrubber scrubs the stores the daemon holds
// and never creates one. A checkpoint no job owns — here a stray file with a
// rotten generation, like the files of a job that finished mid-pass — is
// neither repaired nor given a store that would never be dropped.
func TestScrubOnlyHeldStores(t *testing.T) {
	cfg := fastConfig(t)
	cfg.ScrubInterval = -1
	s := newTestServer(t, cfg)
	head := s.ckptPath("stray")
	if err := checkpoint.WriteFileFS(diskfault.OS, head, []byte("orphan")); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(head+".g1", []byte("bit rot"), 0o644); err != nil {
		t.Fatal(err)
	}
	if n := s.ScrubNow(); n != 0 {
		t.Fatalf("ScrubNow repaired %d generations of a checkpoint no job owns", n)
	}
	s.mu.Lock()
	_, cached := s.genStores["stray"]
	s.mu.Unlock()
	if cached {
		t.Fatal("scrub created a store for a checkpoint no job owns")
	}
}

// TestJobCheckpointNeverWaitsOnAnother: checkpoint I/O is serialized per
// job, not per daemon. While job a's checkpoint is stuck in fsync, job b is
// accepted (its spec persists), checkpoints and finishes on the other
// executor.
func TestJobCheckpointNeverWaitsOnAnother(t *testing.T) {
	gate := newSyncGate(func(id string, rec *persistedJob) bool {
		return id == "a" && rec.Pool != nil
	})
	cfg := fastConfig(t)
	cfg.FS = gate
	cfg.Workers = 2
	cfg.ScrubInterval = -1
	s := newTestServer(t, cfg)
	t.Cleanup(gate.open) // before the server's shutdown: cleanups run last-in first-out
	stubExec(s, func(ctx context.Context, save func(*pool.Checkpoint) error) error {
		for i := 1; i <= 3; i++ {
			if err := save(&pool.Checkpoint{Threshold: float64(i)}); err != nil {
				return err
			}
		}
		return nil
	})

	if _, err := s.Submit(JobSpec{ID: "a", Kind: KindTrace, Bench: "cholesky", Threads: 16}); err != nil {
		t.Fatal(err)
	}
	gate.waitHeld(t, 1)

	done := make(chan error, 1)
	go func() {
		if _, err := s.Submit(JobSpec{ID: "b", Kind: KindTrace, Bench: "cholesky", Threads: 16}); err != nil {
			done <- err
			return
		}
		done <- s.Wait(context.Background(), "b")
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("job b waited on job a's checkpoint fsync")
	}
	if v, _ := s.Job("b"); v.State != StateDone {
		t.Fatalf("job b state = %s (%s), want done", v.State, v.Error)
	}
	if v, _ := s.Job("a"); v.State != StateRunning {
		t.Fatalf("job a state = %s while its checkpoint is held, want running", v.State)
	}
	gate.open()
	waitState(t, s, "a", StateDone)
}

// TestSpecPersistedBeforeExecutorStarts holds job a's spec write in fsync.
// Until that write lands, the job must be neither listed nor started by an
// idle executor: an executor that ran first could checkpoint progress that
// the late spec write would then replace as the head generation.
func TestSpecPersistedBeforeExecutorStarts(t *testing.T) {
	var startedEarly atomic.Bool
	gate := newSyncGate(func(id string, rec *persistedJob) bool {
		return id == "a" && rec.Pool == nil
	})
	cfg := fastConfig(t)
	cfg.FS = gate
	cfg.Workers = 1
	cfg.ScrubInterval = -1
	s := newTestServer(t, cfg)
	t.Cleanup(gate.open)
	stubExec(s, func(context.Context, func(*pool.Checkpoint) error) error {
		if _, err := s.loadJob("a"); err != nil {
			startedEarly.Store(true)
		}
		return nil
	})

	done := make(chan error, 1)
	go func() {
		_, err := s.Submit(JobSpec{ID: "a", Kind: KindTrace, Bench: "cholesky", Threads: 16})
		done <- err
	}()
	gate.waitHeld(t, 1)
	if v, ok := s.Job("a"); ok {
		t.Fatalf("job a is listed (%s) before its spec is persisted", v.State)
	}
	gate.open()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	waitState(t, s, "a", StateDone)
	if startedEarly.Load() {
		t.Fatal("an executor started job a before its spec was persisted")
	}
}
