package daemon

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"
	"time"

	"tecfan/internal/clockfault"
)

// TestSubmitIdempotent: a replayed token returns the original job id without
// enqueuing a second job; distinct tokens create distinct jobs.
func TestSubmitIdempotent(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	s := newTestServer(t, fastConfig(t))
	stubExec(s, blockUntil(block))
	spec := traceSpec("")
	id1, dup, err := s.SubmitIdempotent(spec, "tok-a", "req-1")
	if err != nil || dup {
		t.Fatalf("first submit: id=%q dup=%v err=%v", id1, dup, err)
	}
	id2, dup, err := s.SubmitIdempotent(spec, "tok-a", "req-2")
	if err != nil || !dup || id2 != id1 {
		t.Fatalf("replay: id=%q dup=%v err=%v (want %q, true)", id2, dup, err, id1)
	}
	id3, dup, err := s.SubmitIdempotent(spec, "tok-b", "req-3")
	if err != nil || dup || id3 == id1 {
		t.Fatalf("fresh token: id=%q dup=%v err=%v", id3, dup, err)
	}
	if n := len(s.Jobs()); n != 2 {
		t.Fatalf("two logical submissions produced %d jobs", n)
	}
	// Invalid tokens are rejected before touching the table.
	if _, _, err := s.SubmitIdempotent(spec, "bad token!", ""); err == nil {
		t.Fatal("invalid token accepted")
	}
}

// TestIdempotencySurvivesRestart: the token table is durable — a daemon
// restarted on the same state dir still dedups a token its predecessor saw.
func TestIdempotencySurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	cfg1 := fastConfig(t)
	cfg1.StateDir = dir
	s1, err := New(cfg1)
	if err != nil {
		t.Fatal(err)
	}
	id1, _, err := s1.SubmitIdempotent(traceSpec(""), "tok-restart", "req-1")
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s1, id1, StateDone)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	cfg2 := fastConfig(t)
	cfg2.StateDir = dir
	s2 := newTestServer(t, cfg2)
	before := len(s2.Jobs())
	id2, dup, err := s2.SubmitIdempotent(traceSpec(""), "tok-restart", "req-2")
	if err != nil || !dup || id2 != id1 {
		t.Fatalf("post-restart replay: id=%q dup=%v err=%v (want %q, true)", id2, dup, err, id1)
	}
	if after := len(s2.Jobs()); after != before {
		t.Fatalf("replay after restart grew the job list %d -> %d", before, after)
	}
}

// TestIdempotencySweepsOrphans: a token whose job left no checkpoint or
// result (crash between the token write and the spec write) is swept at
// startup so the retry can run the job fresh.
func TestIdempotencySweepsOrphans(t *testing.T) {
	dir := t.TempDir()
	// Simulate the crash window: a durable token pointing at a job that was
	// never persisted.
	pre, err := New(Config{StateDir: dir, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if err := pre.idem.Put("tok-orphan", "job-never-born"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = pre.Shutdown(ctx)

	s := newTestServer(t, Config{StateDir: dir, Logf: t.Logf, WatchdogTimeout: -1})
	if _, ok := s.idem.Get("tok-orphan"); ok {
		t.Fatal("orphaned token survived startup sweep")
	}
	// The retried submission starts the job for real this time.
	id, dup, err := s.SubmitIdempotent(traceSpec(""), "tok-orphan", "req-retry")
	if err != nil || dup {
		t.Fatalf("retry after sweep: id=%q dup=%v err=%v", id, dup, err)
	}
	if id == "job-never-born" {
		t.Fatal("retry was matched to the phantom job")
	}
	waitState(t, s, id, StateDone)
}

// TestIdempotentSubmitRollsBackOnRefusal: a shed submission must not leave
// its token behind, or every retry would dedup into a job that was never
// accepted.
func TestIdempotentSubmitRollsBackOnRefusal(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	cfg := fastConfig(t)
	cfg.Workers = 1
	cfg.QueueDepth = 1
	s := newTestServer(t, cfg)
	stubExec(s, blockUntil(block))
	// Fill the worker and the queue.
	if _, err := s.Submit(traceSpec("fill-worker")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if v, _ := s.Job("fill-worker"); v.State == StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("fill job never started")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := s.Submit(traceSpec("fill-queue")); err != nil {
		t.Fatal(err)
	}

	if _, _, err := s.SubmitIdempotent(traceSpec(""), "tok-shed", "req-1"); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow submit = %v, want ErrQueueFull", err)
	}
	if _, ok := s.idem.Get("tok-shed"); ok {
		t.Fatal("token survived a shed submission")
	}
}

// TestReadyzGating: /readyz flips to 503 when the queue is full and when the
// checkpoint dir stops being writable, and reports why.
func TestReadyzGating(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	cfg := fastConfig(t)
	cfg.Workers = 1
	cfg.QueueDepth = 1
	s := newTestServer(t, cfg)
	stubExec(s, blockUntil(block))
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	readyz := func() (int, string) {
		resp, err := http.Get(srv.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body struct {
			Reasons []string `json:"reasons"`
		}
		_ = json.NewDecoder(resp.Body).Decode(&body)
		reason := ""
		if len(body.Reasons) > 0 {
			reason = body.Reasons[0]
		}
		return resp.StatusCode, reason
	}

	if code, _ := readyz(); code != http.StatusOK {
		t.Fatalf("idle readyz = %d, want 200", code)
	}

	// Fill the worker, then the queue: readiness must flip.
	if _, err := s.Submit(traceSpec("w")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if v, _ := s.Job("w"); v.State == StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := s.Submit(traceSpec("q")); err != nil {
		t.Fatal(err)
	}
	if code, reason := readyz(); code != http.StatusServiceUnavailable || reason != "queue full" {
		t.Fatalf("full-queue readyz = %d %q, want 503 \"queue full\"", code, reason)
	}

	// A vanished state dir (the strongest form of "unwritable" that works
	// regardless of uid) must also unready the daemon.
	if err := os.RemoveAll(cfg.StateDir); err != nil {
		t.Fatal(err)
	}
	if code, _ := readyz(); code != http.StatusServiceUnavailable {
		t.Fatalf("unwritable-state readyz = %d, want 503", code)
	}
	if err := os.MkdirAll(cfg.StateDir, 0o755); err != nil {
		t.Fatal(err)
	}
}

// TestSubmitRateLimit: the token bucket sheds POST /jobs beyond the burst
// with 429 + Retry-After, and refills with the (fake) clock.
func TestSubmitRateLimit(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	clk := clockfault.NewManual(time.Unix(1000, 0))
	cfg := fastConfig(t)
	cfg.QueueDepth = 64
	cfg.SubmitRate = 1
	cfg.SubmitBurst = 2
	cfg.Clock = clk
	s := newTestServer(t, cfg)
	stubExec(s, blockUntil(block))
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	submit := func() *http.Response {
		body, _ := json.Marshal(traceSpec(""))
		resp, err := http.Post(srv.URL+"/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}
	for i := 0; i < 2; i++ {
		if resp := submit(); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("burst submit %d = %d", i, resp.StatusCode)
		}
	}
	resp := submit()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-rate submit = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("rate-limited 429 without Retry-After")
	}
	// Advance the clock: a token refills and the next submission is admitted.
	clk.Advance(1500 * time.Millisecond)
	if resp := submit(); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("post-refill submit = %d, want 202", resp.StatusCode)
	}
}

// TestRequestIDPropagation: a client X-Request-ID is echoed and recorded on
// the job; an absent or malformed one is replaced with a generated id.
func TestRequestIDPropagation(t *testing.T) {
	s := newTestServer(t, fastConfig(t))
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	body, _ := json.Marshal(traceSpec("rid-job"))
	req, _ := http.NewRequest(http.MethodPost, srv.URL+"/jobs", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-ID", "drill-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != "drill-42" {
		t.Fatalf("echoed request id = %q, want drill-42", got)
	}
	v, ok := s.Job("rid-job")
	if !ok || v.RequestID != "drill-42" {
		t.Fatalf("job request id = %q, want drill-42", v.RequestID)
	}

	// Malformed ids are replaced, not propagated.
	req, _ = http.NewRequest(http.MethodGet, srv.URL+"/jobs", nil)
	req.Header.Set("X-Request-ID", "bad id with spaces")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got == "" || got == "bad id with spaces" {
		t.Fatalf("malformed request id handled as %q", got)
	}
	waitState(t, s, "rid-job", StateDone)
}

// TestTokenBucket exercises the bucket directly: burst, exhaustion, refill,
// and the disabled (< 0 rate) pass-through.
func TestTokenBucket(t *testing.T) {
	clock := clockfault.NewManual(time.Unix(0, 0))
	b := newTokenBucket(2, 3, clock)
	for i := 0; i < 3; i++ {
		if ok, _ := b.take(); !ok {
			t.Fatalf("burst take %d refused", i)
		}
	}
	ok, wait := b.take()
	if ok || wait <= 0 {
		t.Fatalf("empty bucket take = %v wait %s", ok, wait)
	}
	clock.Advance(time.Second) // refills 2 tokens
	for i := 0; i < 2; i++ {
		if ok, _ := b.take(); !ok {
			t.Fatalf("post-refill take %d refused", i)
		}
	}
	if ok, _ := b.take(); ok {
		t.Fatal("bucket over-refilled")
	}
	if disabled := newTokenBucket(-1, 0, clock); disabled != nil {
		t.Fatal("negative rate should disable the bucket")
	}
	var nilBucket *tokenBucket
	if ok, _ := nilBucket.take(); !ok {
		t.Fatal("disabled bucket refused")
	}
}
