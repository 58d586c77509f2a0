package daemon

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
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
	if err := s.persistJob(&persistedJob{Spec: spec, Progress: &pool.Checkpoint{Threshold: 1}}); err != nil {
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
	if err := s.persistJob(&persistedJob{Spec: spec, Progress: &pool.Checkpoint{Threshold: 42}}); err != nil {
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
	testRunHook = func(ctx context.Context, id string, spec JobSpec) error {
		<-ctx.Done() // hold the executor until shutdown
		return ctx.Err()
	}
	// Cleanups run last-in first-out: the server's shutdown (registered by
	// newTestServer) stops its executor before the hook is cleared.
	t.Cleanup(func() { testRunHook = nil })

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
