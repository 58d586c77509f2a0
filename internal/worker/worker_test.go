package worker_test

import (
	"context"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"tecfan/internal/client"
	"tecfan/internal/daemon"
	"tecfan/internal/worker"
)

// TestConcurrentWorkersReportEveryOutcome: three workers share one
// coordinator's leases over a good sweep and a job that fails on every
// attempt. Every good shard completes exactly once, every failed attempt is
// reported, and both jobs end.
func TestConcurrentWorkersReportEveryOutcome(t *testing.T) {
	s, err := daemon.New(daemon.Config{
		StateDir: t.TempDir(), CheckpointEvery: 1, WatchdogTimeout: -1, Logf: t.Logf,
		PoolEnabled: true, PoolChunk: 1, PoolLeaseTTL: 5 * time.Second, MaxAttempts: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.Handler())
	defer func() {
		srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	}()
	newClient := func() *client.Client {
		cl, err := client.New(client.Config{BaseURL: srv.URL, Logf: t.Logf, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		return cl
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	wctx, stop := context.WithCancel(ctx)
	var wg sync.WaitGroup
	var ws []*worker.Worker
	for i := 0; i < 3; i++ {
		w, err := worker.New(worker.Config{Client: newClient(), Name: fmt.Sprintf("w%d", i), Poll: 10 * time.Millisecond, Logf: t.Logf})
		if err != nil {
			t.Fatal(err)
		}
		ws = append(ws, w)
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = w.Run(wctx)
		}()
	}
	defer func() { stop(); wg.Wait() }()

	cl := newClient()
	for _, spec := range []daemon.JobSpec{
		{ID: "good", Kind: daemon.KindTable1, Scale: 0.001},
		{ID: "bad", Kind: daemon.KindTrace, Bench: "cholesky", Threads: 16, Threshold: -1}, // fails every attempt
	} {
		if _, err := cl.Submit(ctx, spec); err != nil {
			t.Fatal(err)
		}
	}
	for id, want := range map[string]daemon.JobState{"good": daemon.StateDone, "bad": daemon.StateFailed} {
		v, err := cl.Wait(ctx, id, 10*time.Millisecond)
		if err != nil || v.State != want {
			t.Fatalf("job %s ended %s (%v %s), want %s", id, v.State, err, v.Error, want)
		}
	}
	st, err := cl.PoolStats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// A worker counts a shard done only once the coordinator has
	// acknowledged it, so its count can trail the job's end: stop the
	// workers and wait for Run to return before reading their counters.
	stop()
	wg.Wait()
	var done, failed int64
	for _, w := range ws {
		done += w.Stats().ShardsDone
		failed += w.Stats().ShardErrors
	}
	if st.Completes != 8 || done != 8 || failed != 2 {
		t.Fatalf("coordinator completes %d, workers done %d and failed %d; want 8, 8 and 2", st.Completes, done, failed)
	}
}
