package worker

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"tecfan/internal/client"
	"tecfan/internal/daemon"
	"tecfan/internal/pool"
)

// TestPanickingShardIsAFailedAttempt: a shard whose execution panics is
// reported as a failed attempt instead of killing the worker, so the worker
// keeps serving and the job ends failed once the shard has used up the
// coordinator's MaxAttempts. Without the recover, the panic ends the test
// binary and the lease only expires, which is no attempt at all.
func TestPanickingShardIsAFailedAttempt(t *testing.T) {
	const maxAttempts = 2
	s, err := daemon.New(daemon.Config{
		StateDir: t.TempDir(), WatchdogTimeout: -1, Logf: t.Logf,
		PoolEnabled: true, PoolLeaseTTL: 5 * time.Second, MaxAttempts: maxAttempts,
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
	cl, err := client.New(client.Config{BaseURL: srv.URL, Logf: t.Logf, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	w, err := New(Config{Client: cl, Name: "w0", Poll: 10 * time.Millisecond, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	w.execute = func(context.Context, pool.ShardSpec, *pool.Checkpoint, func(*pool.Checkpoint) error) (*pool.ShardResult, error) {
		panic("injected shard panic")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	wctx, stop := context.WithCancel(ctx)
	ran := make(chan error, 1)
	go func() { ran <- w.Run(wctx) }()
	defer func() { stop(); <-ran }()

	if _, err := cl.Submit(ctx, daemon.JobSpec{ID: "boom", Kind: daemon.KindTrace, Bench: "cholesky", Threads: 16, Policy: "TECfan", Scale: 0.001}); err != nil {
		t.Fatal(err)
	}
	v, err := cl.Wait(ctx, "boom", 10*time.Millisecond)
	if err != nil || v.State != daemon.StateFailed {
		t.Fatalf("job ended %s (%v %s), want %s", v.State, err, v.Error, daemon.StateFailed)
	}
	st := w.Stats()
	if st.ShardErrors != maxAttempts || st.ShardsDone != 0 {
		t.Fatalf("worker stats %+v, want %d shard errors and no shard done", st, maxAttempts)
	}
	ps, err := cl.PoolStats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if ps.ExpiredLeases != 0 || ps.Grants != maxAttempts {
		t.Fatalf("pool stats %+v, want %d grants and no expired lease: every panicked attempt is reported, not left to expire", ps, maxAttempts)
	}
}
