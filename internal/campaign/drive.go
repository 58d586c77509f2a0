package campaign

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"tecfan/internal/client"
	"tecfan/internal/clockfault"
	"tecfan/internal/daemon"
)

// waitPoll is how often Drive polls a job it waits for, on both substrates:
// the interval every committed corpus entry's timeline was tuned against.
const waitPoll = 100 * time.Millisecond

// The stack settings every episode runs with, in-process (RunEpisode, and
// with it every Reference) and as spawned binaries (tecfan-crucible passes
// them as tecfand's and tecfan-worker's flags), so both substrates start the
// same stack. A checkpoint every control period gives a kill or power cut
// fresh state to land on; the short scrub and probe intervals let storage
// faults surface and clear within one episode.
const (
	CheckpointEvery      = 1                      // tecfand -checkpoint-every
	ScrubInterval        = 2 * time.Second        // tecfand -scrub-interval
	StorageProbeInterval = 500 * time.Millisecond // tecfand -storage-probe-interval
	WorkerPoll           = 100 * time.Millisecond // tecfan-worker -poll
)

// Drive is the client side of every episode, in-process or against spawned
// binaries alike; the caller only starts, faults and stops the stack. It
// submits each of eff's jobs twice under one idempotency key, waits for
// them, fetches the results of done jobs and reads the final job listing and
// lease ledger, recording everything in rec, and returns rec's history.
//
// clientURL is where the client's calls go: the chaos proxy when the spec
// has one, else the daemon. Readiness probes, result fetches and the final
// listings go straight to daemonURL: the bytes being judged are the daemon's
// durable state, and a sample lost to network chaos is not evidence about
// the daemon. A non-nil timelineDone holds the final listings until every
// scheduled proc action has landed, so the history covers the timeline.
//
// A job still unfinished after four fifths of ctx's remaining budget is
// stranded: Drive records what the daemon says about it and leaves it to the
// bounded-liveness oracle, rather than end in a timeout that can be neither
// judged nor shrunk. The driver paces on clockfault.OS, the clock its HTTP
// clients sleep on; nothing an oracle or the shrinker computes reads it.
func Drive(ctx context.Context, eff Spec, rec *Recorder, clientURL, daemonURL string, timelineDone <-chan struct{}, logf func(string, ...any)) (*History, error) {
	cl, err := client.New(client.Config{
		BaseURL: clientURL, Seed: 1, Logf: logf, MaxRetries: 12, Observer: rec.Observer(),
	})
	if err != nil {
		return rec.History(), err
	}
	direct, err := client.New(client.Config{BaseURL: daemonURL, Seed: 2, Logf: logf, MaxRetries: 12})
	if err != nil {
		return rec.History(), err
	}
	// One readiness prober. Its transport errors (a daemon mid-restart or
	// SIGSTOPped) are skipped: the sticky oracle judges only what the daemon
	// answered.
	probe := &http.Client{Timeout: 2 * time.Second}
	sample := func() {
		resp, err := probe.Get(daemonURL + "/readyz")
		if err != nil {
			return
		}
		defer resp.Body.Close()
		var body struct {
			Reasons []string `json:"reasons"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			return
		}
		rec.Ready(resp.StatusCode == http.StatusOK, body.Reasons)
	}

	sample()
	for _, j := range eff.Jobs {
		// A recorder's campaign and episode never change after NewRecorder.
		key := IdempotencyKey(rec.h.Campaign, rec.h.Episode, j.ID)
		// Twice under one key: the replay feeds the exactly-once oracle.
		for replay := 0; replay < 2; replay++ {
			id, dedup, err := cl.SubmitWithKey(ctx, key, j)
			rec.Submission(j.ID, key, id, dedup, err)
		}
		sample()
	}
	wctx := ctx
	if dl, ok := ctx.Deadline(); ok {
		var cancel context.CancelFunc
		wctx, cancel = context.WithDeadline(ctx, dl.Add(-dl.Sub(clockfault.OS.Now())/5))
		defer cancel()
	}
	for _, j := range eff.Jobs {
		v, err := cl.Wait(wctx, j.ID, waitPoll)
		if err != nil && wctx.Err() != nil && ctx.Err() == nil {
			v, err = direct.Job(ctx, j.ID)
		}
		if err != nil {
			return rec.History(), fmt.Errorf("campaign: waiting for job %s: %w", j.ID, err)
		}
		var result []byte
		if v.State == daemon.StateDone {
			if result, err = direct.Result(ctx, j.ID); err != nil {
				return rec.History(), fmt.Errorf("campaign: fetching result of done job %s: %w", j.ID, err)
			}
		}
		rec.Result(v, result)
		sample()
	}
	if timelineDone != nil {
		select {
		case <-timelineDone:
		case <-ctx.Done():
			return rec.History(), ctx.Err()
		}
	}
	views, err := direct.Jobs(ctx)
	if err != nil {
		return rec.History(), fmt.Errorf("campaign: final jobs listing: %w", err)
	}
	rec.Jobs(views)
	leases, err := direct.PoolLeases(ctx)
	if err != nil {
		return rec.History(), fmt.Errorf("campaign: final lease ledger: %w", err)
	}
	rec.Leases(leases)
	sample()
	return rec.History(), nil
}
