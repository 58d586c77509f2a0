package client

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"tecfan/internal/daemon"
	"tecfan/internal/netfault"
	"tecfan/internal/schedfile"
)

// startDaemon runs a real daemon.Server behind its real HTTP handler.
func startDaemon(t *testing.T, mut func(*daemon.Config)) (*daemon.Server, *httptest.Server) {
	t.Helper()
	cfg := daemon.Config{
		StateDir:        t.TempDir(),
		Workers:         2,
		QueueDepth:      32,
		CheckpointEvery: 1,
		WatchdogTimeout: -1,
		Logf:            t.Logf,
	}
	if mut != nil {
		mut(&cfg)
	}
	srv, err := daemon.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		hs.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})
	return srv, hs
}

func drillSpec(id string) daemon.JobSpec {
	return daemon.JobSpec{
		ID:      id,
		Kind:    daemon.KindTrace,
		Bench:   "cholesky",
		Threads: 16,
		Policy:  "TECfan-FT",
		Scale:   0.001,
	}
}

// TestClientHonorsDaemonShedding drives the daemon's real token-bucket 429
// path through the client: with a zero refill rate and burst 1, the second
// submission is shed with Retry-After, and the client must sleep exactly the
// daemon's hint (not its own sub-second backoff) before giving up.
func TestClientHonorsDaemonShedding(t *testing.T) {
	_, hs := startDaemon(t, func(cfg *daemon.Config) {
		cfg.SubmitRate = 0.000001 // effectively no refill
		cfg.SubmitBurst = 1
	})

	rec := &sleepRecorder{}
	c := testClient(t, hs.URL, rec, func(cfg *Config) {
		cfg.MaxRetries = 2
		cfg.BackoffBase = time.Millisecond
		cfg.BackoffMax = 10 * time.Millisecond
	})

	ctx := context.Background()
	if _, err := c.Submit(ctx, drillSpec("shed-0")); err != nil {
		t.Fatalf("first submit: %v", err)
	}
	_, err := c.Submit(ctx, drillSpec("shed-1"))
	if err == nil {
		t.Fatal("second submit got past an exhausted bucket")
	}
	delays := rec.all()
	if len(delays) != 2 {
		t.Fatalf("client slept %d times, want 2 retries", len(delays))
	}
	for i, d := range delays {
		// The bucket's Retry-After is whole seconds (min 1); the client's own
		// backoff here tops out at 10ms, so any >=1s sleep proves the server
		// hint won.
		if d < time.Second {
			t.Errorf("retry %d slept %s; daemon's Retry-After (>=1s) not honored", i, d)
		}
	}
}

// TestClientSubmitDedupAgainstDaemon proves the end-to-end idempotency
// contract: replaying a key returns the original job id with
// deduplicated=true and enqueues nothing new.
func TestClientSubmitDedupAgainstDaemon(t *testing.T) {
	srv, hs := startDaemon(t, nil)
	c := testClient(t, hs.URL, nil, nil)

	ctx := context.Background()
	key := NewIdempotencyKey()
	id1, dup1, err := c.SubmitWithKey(ctx, key, drillSpec("dedup-0"))
	if err != nil || dup1 {
		t.Fatalf("first submit = dup %v, %v", dup1, err)
	}
	id2, dup2, err := c.SubmitWithKey(ctx, key, drillSpec("dedup-0"))
	if err != nil || !dup2 || id2 != id1 {
		t.Fatalf("replay = %q dup %v, %v; want %q dup true", id2, dup2, err, id1)
	}
	if got := len(srv.Jobs()); got != 1 {
		t.Fatalf("daemon holds %d jobs after replay, want 1", got)
	}
}

// TestSoakExactlyOnceThroughChaos is the in-process soak drill: a real
// daemon behind a seeded netfault proxy (latency + drops + resets + a
// periodic partition window), hammered by concurrent clients that retry
// with idempotency keys. Every job must complete exactly once, and every
// result must be byte-identical to a fault-free reference run.
func TestSoakExactlyOnceThroughChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("soak drill skipped in -short mode")
	}
	const jobs = 6

	// Reference pass: no proxy, no faults.
	reference := make(map[string][]byte, jobs)
	{
		_, hs := startDaemon(t, nil)
		c := testClient(t, hs.URL, nil, nil)
		ctx := context.Background()
		for i := 0; i < jobs; i++ {
			id := fmt.Sprintf("soak-%d", i)
			if _, err := c.Submit(ctx, drillSpec(id)); err != nil {
				t.Fatalf("reference submit %s: %v", id, err)
			}
		}
		for i := 0; i < jobs; i++ {
			id := fmt.Sprintf("soak-%d", i)
			if _, err := c.Wait(ctx, id, 5*time.Millisecond); err != nil {
				t.Fatalf("reference wait %s: %v", id, err)
			}
			data, err := c.Result(ctx, id)
			if err != nil {
				t.Fatalf("reference result %s: %v", id, err)
			}
			reference[id] = data
		}
	}

	// Chaos pass: same jobs through an adversarial proxy.
	srv, hs := startDaemon(t, nil)
	sched := netfault.Schedule{
		Seed: 42,
		Base: netfault.Fault{
			Latency: schedfile.Duration(2 * time.Millisecond),
			Jitter:  schedfile.Duration(3 * time.Millisecond),
			Drop:    0.15,
			Reset:   0.10,
		},
		Windows: []netfault.Window{{
			From:      schedfile.Duration(50 * time.Millisecond),
			To:        schedfile.Duration(120 * time.Millisecond),
			Partition: true,
		}},
		Period: schedfile.Duration(400 * time.Millisecond),
	}
	proxy, err := netfault.New("127.0.0.1:0", hs.Listener.Addr().String(), sched, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	var wg sync.WaitGroup
	errs := make(chan error, jobs)
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id := fmt.Sprintf("soak-%d", i)
			cfg := Config{
				BaseURL:        "http://" + proxy.Addr(),
				RequestTimeout: 2 * time.Second,
				MaxRetries:     40,
				BackoffBase:    10 * time.Millisecond,
				BackoffMax:     200 * time.Millisecond,
				Seed:           int64(1000 + i),
				Breaker: BreakerConfig{
					FailureThreshold: 8,
					Cooldown:         100 * time.Millisecond,
					ProbeBudget:      2,
					SuccessThreshold: 1,
				},
			}
			c, err := New(cfg)
			if err != nil {
				errs <- err
				return
			}
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			defer cancel()
			key := NewIdempotencyKey()
			// Submit twice with the same key on purpose: the second pass is a
			// client that lost the first response and replays.
			if _, _, err := c.SubmitWithKey(ctx, key, drillSpec(id)); err != nil {
				errs <- fmt.Errorf("%s: submit: %w", id, err)
				return
			}
			if _, dup, err := c.SubmitWithKey(ctx, key, drillSpec(id)); err != nil {
				errs <- fmt.Errorf("%s: replay: %w", id, err)
				return
			} else if !dup {
				errs <- fmt.Errorf("%s: replay was not deduplicated", id)
				return
			}
			if _, err := c.Wait(ctx, id, 20*time.Millisecond); err != nil {
				errs <- fmt.Errorf("%s: wait: %w", id, err)
				return
			}
			data, err := c.Result(ctx, id)
			if err != nil {
				errs <- fmt.Errorf("%s: result: %w", id, err)
				return
			}
			if !bytes.Equal(data, reference[id]) {
				errs <- fmt.Errorf("%s: chaos result differs from fault-free reference", id)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if t.Failed() {
		return
	}
	if got := len(srv.Jobs()); got != jobs {
		t.Fatalf("daemon ran %d jobs, want exactly %d (duplicate submissions leaked through)", got, jobs)
	}
}
