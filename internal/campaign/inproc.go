package campaign

import (
	"context"
	"fmt"
	"net/http/httptest"
	"os"
	"strings"
	"time"

	"tecfan/internal/client"
	"tecfan/internal/clockfault"
	"tecfan/internal/daemon"
	"tecfan/internal/diskfault"
	"tecfan/internal/netfault"
	"tecfan/internal/worker"
)

// RunEpisode runs one episode of the spec entirely in-process: a real daemon
// behind httptest, optional worker-pool loops, optional netfault proxy on the
// client path, optional diskfault FS and numfault schedule — and drives it
// (Drive) to the client-observed history for the oracles. logf receives
// daemon/worker/client operational lines (nil: silent).
//
// Two spec features only the exec path (tecfan-crucible -bin-dir) can honor
// are rejected here: proc actions (there is no process to signal) and a disk
// crash point (an in-process daemon cannot die and restart). The meta-tests
// and the shrinker run on this path; full campaigns run on the exec path.
func RunEpisode(ctx context.Context, spec Spec, episode int, logf func(string, ...any)) (*History, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if len(spec.Procs) > 0 {
		return nil, fmt.Errorf("campaign: in-process runner cannot apply proc actions; use cmd/tecfan-crucible")
	}
	if spec.Disk != nil && spec.Disk.CrashAtOp > 0 {
		return nil, fmt.Errorf("campaign: in-process runner cannot honor disk.crash_at_op; use cmd/tecfan-crucible")
	}
	eff := spec.ForEpisode(episode)
	if logf == nil {
		logf = func(string, ...any) {}
	}

	// Each process identity gets its own FaultClock over the shared schedule,
	// so coordinator and workers carry independent skews from one spec.
	clockFor := func(proc string) (clockfault.Clock, error) {
		if eff.Clock == nil {
			return nil, nil
		}
		return clockfault.New(*eff.Clock, proc, &clockfault.Options{Logf: logf})
	}
	daemonClock, err := clockFor(TargetDaemon)
	if err != nil {
		return nil, err
	}

	stateDir, err := os.MkdirTemp("", "crucible-ep")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(stateDir)
	cfg := daemon.Config{
		StateDir: stateDir, NumFaults: eff.Num, Clock: daemonClock, Logf: logf,
		CheckpointEvery: CheckpointEvery, ScrubInterval: ScrubInterval, StorageProbeInterval: StorageProbeInterval,
	}
	if eff.Disk != nil {
		if cfg.FS, err = diskfault.New(*eff.Disk, &diskfault.Options{Logf: logf}); err != nil {
			return nil, err
		}
	}
	if p := eff.Pool; p != nil {
		cfg.PoolEnabled, cfg.PoolChunk, cfg.PoolLeaseTTL = true, p.Chunk, p.LeaseTTL.Std()
	}
	srv, err := daemon.New(cfg)
	if err != nil {
		return nil, err
	}
	hs := httptest.NewServer(srv.Handler())
	defer func() {
		hs.Close()
		sctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = srv.Shutdown(sctx)
	}()

	// The client — and, in pool mode, every worker — reaches the daemon
	// through the chaos proxy when the spec has one.
	clientURL := hs.URL
	if eff.Net != nil {
		proxy, err := netfault.New("127.0.0.1:0", strings.TrimPrefix(hs.URL, "http://"), *eff.Net, logf)
		if err != nil {
			return nil, err
		}
		defer proxy.Close()
		clientURL = "http://" + proxy.Addr()
	}
	if eff.Pool != nil {
		stop, err := startPoolWorkers(clientURL, eff, clockFor, logf)
		if err != nil {
			return nil, err
		}
		defer stop()
	}
	return Drive(ctx, eff, NewRecorder(eff.Name, episode), clientURL, hs.URL, nil, logf)
}

// startPoolWorkers launches the spec's worker loops against the coordinator,
// each armed with the same numeric fault schedule the daemon carries (the
// exec path passes the same schedule via -numfault-schedule) and its own
// per-identity FaultClock (via -clockfault-schedule there).
func startPoolWorkers(coordURL string, eff Spec, clockFor func(string) (clockfault.Clock, error), logf func(string, ...any)) (stop func(), err error) {
	wctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{}, eff.Pool.Workers)
	started := 0
	for i := 0; i < eff.Pool.Workers; i++ {
		name := fmt.Sprintf("crucible-w%d", i)
		wclk, err := clockFor(name)
		if err != nil {
			cancel()
			return nil, err
		}
		wcl, err := client.New(client.Config{BaseURL: coordURL, Logf: logf, Seed: int64(10 + i), Clock: wclk})
		if err != nil {
			cancel()
			return nil, err
		}
		w, err := worker.New(worker.Config{
			Client:    wcl,
			Name:      name,
			Poll:      WorkerPoll,
			Logf:      logf,
			Clock:     wclk,
			NumFaults: eff.Num,
		})
		if err != nil {
			cancel()
			return nil, err
		}
		started++
		go func() {
			defer func() { done <- struct{}{} }()
			_ = w.Run(wctx)
		}()
	}
	return func() {
		cancel()
		for i := 0; i < started; i++ {
			<-done
		}
	}, nil
}

// Reference runs the spec's fault-free configuration (WithoutFaults) for the
// same episode and returns job ID -> durable result bytes — the byte-identity
// baseline the result-integrity oracle compares chaotic episodes against.
// Every job must complete in the reference run; anything else is an error in
// the spec itself, not a chaos finding.
func Reference(ctx context.Context, spec Spec, episode int, logf func(string, ...any)) (map[string][]byte, error) {
	h, err := RunEpisode(ctx, spec.WithoutFaults(), episode, logf)
	if err != nil {
		return nil, fmt.Errorf("campaign: reference run: %w", err)
	}
	ref := make(map[string][]byte, len(h.Results))
	for _, r := range h.Results {
		if r.State != string(daemon.StateDone) {
			return nil, fmt.Errorf("campaign: reference run: job %s ended %s: %s", r.JobID, r.State, r.Error)
		}
		ref[r.JobID] = r.Result
	}
	for _, j := range spec.Jobs {
		if _, ok := ref[j.ID]; !ok {
			return nil, fmt.Errorf("campaign: reference run: job %s produced no result", j.ID)
		}
	}
	return ref, nil
}
