// Pool-mode integration tests: a real coordinator daemon over HTTP, real
// worker loops from internal/worker, real simulations at tiny scale. They
// live in an external test package because the worker reaches the daemon
// through internal/client, which itself imports daemon.
package daemon_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"tecfan/internal/client"
	"tecfan/internal/daemon"
	"tecfan/internal/exp"
	"tecfan/internal/floats"
	"tecfan/internal/pool"
	"tecfan/internal/worker"
)

// logBuffer is a concurrency-safe Logf sink the tests grep for fencing lines.
type logBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (l *logBuffer) logf(format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	fmt.Fprintf(&l.b, format+"\n", args...)
}

func (l *logBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

func startDaemonHTTP(t *testing.T, cfg daemon.Config) (*daemon.Server, string) {
	t.Helper()
	s, err := daemon.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s, srv.URL
}

func poolClient(t *testing.T, url string) *client.Client {
	t.Helper()
	cl, err := client.New(client.Config{BaseURL: url, Logf: t.Logf, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

// startWorkers launches n worker loops against the coordinator and stops
// them at test cleanup.
func startWorkers(t *testing.T, url string, n int) []*worker.Worker {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	var ws []*worker.Worker
	for i := 0; i < n; i++ {
		w, err := worker.New(worker.Config{
			Client: poolClient(t, url),
			Name:   fmt.Sprintf("itw%d", i),
			Poll:   20 * time.Millisecond,
			Logf:   t.Logf,
		})
		if err != nil {
			t.Fatal(err)
		}
		ws = append(ws, w)
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = w.Run(ctx)
		}()
	}
	t.Cleanup(func() { cancel(); wg.Wait() })
	return ws
}

// runJob submits a spec, waits for it to finish, and returns the durable
// result bytes.
func runJob(t *testing.T, cl *client.Client, spec daemon.JobSpec) []byte {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	id, err := cl.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	v, err := cl.Wait(ctx, id, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if v.State != daemon.StateDone {
		t.Fatalf("job %s ended %s: %s", id, v.State, v.Error)
	}
	data, err := cl.Result(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// chaosCmpSpec is a three-shard chaos sweep at the smallest scale where
// each of its faults leaves a mark on its row (at 0.05 the fan-stuck-slow
// row still equals its fault-free base), so a shard merge that mishandled
// a faulted run would show.
func chaosCmpSpec() daemon.JobSpec {
	return daemon.JobSpec{
		ID: "pool-cmp", Kind: daemon.KindChaos,
		Bench: "cholesky", Threads: 16, Scale: 0.1,
		Policies:  []string{"TECfan-FT"},
		Scenarios: []string{"sensor-dropout", "tec-fail-off", "fan-stuck-slow"},
		Seed:      7,
	}
}

// checkPooledByteIdentical runs spec (a) in-process and (b) sharded across
// two workers at the given chunk size, requires byte-identical result files,
// and returns the result and the workers so a caller can inspect what they
// uploaded.
func checkPooledByteIdentical(t *testing.T, spec daemon.JobSpec, chunk int) ([]byte, []*worker.Worker) {
	t.Helper()
	refCfg := daemon.Config{
		StateDir: t.TempDir(), CheckpointEvery: 1, WatchdogTimeout: -1, Logf: t.Logf,
	}
	_, refURL := startDaemonHTTP(t, refCfg)
	want := runJob(t, poolClient(t, refURL), spec)

	poolCfg := daemon.Config{
		StateDir: t.TempDir(), CheckpointEvery: 1, WatchdogTimeout: -1, Logf: t.Logf,
		PoolEnabled: true, PoolChunk: chunk, PoolLeaseTTL: 5 * time.Second,
	}
	_, poolURL := startDaemonHTTP(t, poolCfg)
	ws := startWorkers(t, poolURL, 2)
	got := runJob(t, poolClient(t, poolURL), spec)

	if !bytes.Equal(got, want) {
		t.Fatalf("pooled %s result differs from in-process run:\npooled: %s\nref:    %s", spec.Kind, got, want)
	}
	return got, ws
}

// TestPooledChaosByteIdenticalToInProcess: the same chaos sweep run
// in-process and sharded at chunk 1 must produce byte-identical results,
// on rows that each carry their fault.
func TestPooledChaosByteIdenticalToInProcess(t *testing.T) {
	data, _ := checkPooledByteIdentical(t, chaosCmpSpec(), 1)
	var res exp.ChaosResult
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("chaos result has %d rows, want 3", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.DetectionLatency < 0 && floats.Same(row.EPI, row.BaseEPI) {
			t.Errorf("scenario %s left no trace: no detection, and EPI %v equals the fault-free run's", row.Scenario, row.EPI)
		}
	}
}

// TestPooledTable1ByteIdenticalToInProcess covers the Table 1 job kind.
func TestPooledTable1ByteIdenticalToInProcess(t *testing.T) {
	checkPooledByteIdentical(t, daemon.JobSpec{ID: "t1-cmp", Kind: daemon.KindTable1, Scale: 0.001}, 3)
}

// TestPooledFig4ByteIdenticalToInProcess covers the Fig. 4 job kind.
func TestPooledFig4ByteIdenticalToInProcess(t *testing.T) {
	checkPooledByteIdentical(t, daemon.JobSpec{ID: "f4-cmp", Kind: daemon.KindFig4, Scale: 0.001}, 3)
}

// TestPooledTraceByteIdenticalToInProcess covers the trace job kind. The
// job checkpoints every control period, so its pooled run resumes nothing
// but still uploads its pinned threshold and its snapshots.
func TestPooledTraceByteIdenticalToInProcess(t *testing.T) {
	_, ws := checkPooledByteIdentical(t, daemon.JobSpec{
		ID: "tr-cmp", Kind: daemon.KindTrace,
		Bench: "cholesky", Threads: 16, Policy: "TECfan-FT", Scale: 0.05,
	}, 1)
	if uploads := ws[0].Stats().Checkpoints + ws[1].Stats().Checkpoints; uploads < 2 {
		t.Fatalf("trace shard uploaded %d checkpoints, want the pin and at least one snapshot", uploads)
	}
}

// TestPoolZombieFencedOverHTTP drives the zombie-writer scenario end to end
// over the wire: a worker claims a shard, goes silent past its lease, and
// its late checkpoint upload must be answered 410 (mapped back to
// pool.ErrFenced by the client), logged by the coordinator, and the shard
// must be regranted to a live worker that then finishes the job.
func TestPoolZombieFencedOverHTTP(t *testing.T) {
	var logs logBuffer
	cfg := daemon.Config{
		StateDir: t.TempDir(), CheckpointEvery: 1, WatchdogTimeout: -1, Logf: logs.logf,
		PoolEnabled: true, PoolChunk: 1, PoolLeaseTTL: 200 * time.Millisecond,
	}
	_, url := startDaemonHTTP(t, cfg)
	cl := poolClient(t, url)

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	id, err := cl.Submit(ctx, chaosCmpSpec())
	if err != nil {
		t.Fatal(err)
	}

	// The zombie claims the first shard and never heartbeats.
	var grant *pool.ClaimResponse
	for grant == nil {
		if grant, err = cl.PoolClaim(ctx, "zombie"); err != nil {
			t.Fatal(err)
		}
		if grant == nil {
			time.Sleep(10 * time.Millisecond)
		}
	}
	time.Sleep(300 * time.Millisecond) // outlive the lease

	// The stall ends; the zombie tries to upload progress under its dead
	// token. The coordinator must reject and log the fencing.
	err = cl.PoolCheckpoint(ctx, &pool.CheckpointUpload{
		Worker: "zombie", JobID: grant.JobID, ShardID: grant.Shard.ID,
		Token: grant.Token, Data: []byte("stale progress"),
	})
	if !errors.Is(err, pool.ErrFenced) {
		t.Fatalf("zombie checkpoint upload = %v, want ErrFenced", err)
	}
	if !strings.Contains(logs.String(), "fenced checkpoint upload") {
		t.Fatalf("coordinator did not log the fenced upload:\n%s", logs.String())
	}

	// A completion under the dead token is equally rejected.
	err = cl.PoolComplete(ctx, &pool.CompleteRequest{
		Worker: "zombie", JobID: grant.JobID, ShardID: grant.Shard.ID,
		Token: grant.Token, Result: []byte("stale result"),
	})
	if !errors.Is(err, pool.ErrFenced) {
		t.Fatalf("zombie complete = %v, want ErrFenced", err)
	}

	// Live workers pick the shard back up and finish the sweep.
	startWorkers(t, url, 2)
	v, err := cl.Wait(ctx, id, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if v.State != daemon.StateDone {
		t.Fatalf("job ended %s: %s", v.State, v.Error)
	}

	st, err := cl.PoolStats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// 3 shards, each completed exactly once despite the zombie's grant.
	if st.Completes != 3 {
		t.Fatalf("completes = %d, want 3 (exactly-once violated): %+v", st.Completes, st)
	}
	if st.FencedRejects < 2 || st.ExpiredLeases < 1 {
		t.Fatalf("fencing counters too low: %+v", st)
	}
}

// TestPoolReadyzRequiresWorkers: a pool-mode coordinator with no live
// workers cannot make progress and must fail readiness until one polls.
func TestPoolReadyzRequiresWorkers(t *testing.T) {
	cfg := daemon.Config{
		StateDir: t.TempDir(), WatchdogTimeout: -1, Logf: t.Logf,
		PoolEnabled: true, PoolLeaseTTL: 5 * time.Second,
	}
	_, url := startDaemonHTTP(t, cfg)
	cl := poolClient(t, url)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	// Plain GET: a 503 is retryable to the hardened client, and here the 503
	// is the expected answer, not a fault to ride out.
	resp, err := http.Get(url + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz = %d with zero live workers, want 503", resp.StatusCode)
	}
	if _, err := cl.PoolClaim(ctx, "probe"); err != nil {
		t.Fatal(err)
	}
	if err := cl.Ready(ctx); err != nil {
		t.Fatalf("readyz failed with a live worker: %v", err)
	}
}

// TestPooledShardFailureFailsJob: a shard that fails on every worker is
// reported each time, and after MaxAttempts reports the job ends failed
// with the cause, instead of being re-leased forever.
func TestPooledShardFailureFailsJob(t *testing.T) {
	cfg := daemon.Config{
		StateDir: t.TempDir(), CheckpointEvery: 1, WatchdogTimeout: -1, Logf: t.Logf,
		PoolEnabled: true, PoolLeaseTTL: 200 * time.Millisecond, MaxAttempts: 2,
	}
	_, url := startDaemonHTTP(t, cfg)
	ws := startWorkers(t, url, 2)
	cl := poolClient(t, url)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	id, err := cl.Submit(ctx, daemon.JobSpec{ID: "doomed", Kind: daemon.KindTrace, Bench: "no-such-bench", Threads: 16})
	if err != nil {
		t.Fatal(err)
	}
	v, err := cl.Wait(ctx, id, 20*time.Millisecond)
	if err != nil {
		t.Fatalf("job never ended: %v", err)
	}
	if v.State != daemon.StateFailed || !strings.Contains(v.Error, "attempt 2/2") || !strings.Contains(v.Error, "no-such-bench") {
		t.Fatalf("job ended %s (%q), want failed after two attempts with the cause", v.State, v.Error)
	}
	if errs := ws[0].Stats().ShardErrors + ws[1].Stats().ShardErrors; errs != 2 {
		t.Fatalf("workers saw %d shard failures, want 2", errs)
	}
}
