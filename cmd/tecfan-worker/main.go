// Command tecfan-worker is a pool worker process: it claims shard leases
// from a tecfand coordinator (started with -pool), executes them with the
// daemon's exact in-process semantics, uploads progress checkpoints, and
// renews its lease on a heartbeat loop. Kill a worker mid-shard and the
// coordinator fences its token and regrants the shard — along with the
// worker's last checkpoint — to another worker.
//
// Usage:
//
//	tecfan-worker -coordinator http://127.0.0.1:8023 -name w1
//
// A non-zero -health-port serves GET /healthz with the worker's counters
// (shards done/abandoned, checkpoints uploaded, fenced writes). -scratch-dir,
// when set, receives a <name>.json breadcrumb of the current claim for
// post-mortem debugging after a SIGKILL.
//
// SIGINT/SIGTERM stop the claim loop; the in-flight shard is abandoned and
// its lease left to expire — by design, since that is indistinguishable from
// a crash and exercises the same recovery path.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"tecfan/internal/client"
	"tecfan/internal/clockfault"
	"tecfan/internal/cmdutil"
	"tecfan/internal/numfault"
	"tecfan/internal/pool"
	"tecfan/internal/worker"
)

func main() {
	coordinator := flag.String("coordinator", "", "coordinator base URL, e.g. http://127.0.0.1:8023 (required)")
	name := flag.String("name", fmt.Sprintf("worker-%d", os.Getpid()), "worker name in leases and logs")
	poll := flag.Duration("poll", 500*time.Millisecond, "idle wait between claim attempts")
	healthPort := flag.Int("health-port", 0, "serve GET /healthz with worker stats on this port (0 disables)")
	scratchDir := flag.String("scratch-dir", "", "existing directory for claim breadcrumbs (empty disables)")
	requestTimeout := flag.Duration("request-timeout", 10*time.Second, "per-attempt deadline on coordinator calls")
	nfSchedule := flag.String("numfault-schedule", "", "JSON numerical-fault schedule applied to every trace shard (numeric chaos)")
	cfSchedule := flag.String("clockfault-schedule", "", "JSON clock-fault schedule file; skews this worker's wall clock and timers (testing only)")
	flag.Parse()

	if *coordinator == "" {
		fatal(fmt.Errorf("-coordinator is required"))
	}
	for _, err := range []error{
		cmdutil.CheckBaseURL("coordinator", *coordinator),
		cmdutil.CheckPort("health-port", *healthPort, true),
		cmdutil.CheckPositiveDuration("poll", *poll),
		cmdutil.CheckPositiveDuration("request-timeout", *requestTimeout),
	} {
		if err != nil {
			fatal(err)
		}
	}
	if *scratchDir != "" {
		if err := cmdutil.CheckExistingDir("scratch-dir", *scratchDir); err != nil {
			fatal(err)
		}
	}

	// Pooled trace shards must run under the same numeric fault lattice as the
	// coordinator's in-process path would, or the crucible's pooled episodes
	// and the in-process reference silently diverge in what they inject.
	var numSched *numfault.Schedule
	if *nfSchedule != "" {
		sched, err := numfault.ParseScheduleFile(*nfSchedule)
		if err != nil {
			fatal(err)
		}
		numSched = &sched
		log.Printf("tecfan-worker %s: NUMERIC FAULT INJECTION ACTIVE (schedule %s, seed %d)", *name, *nfSchedule, sched.Seed)
	}

	// With a -clockfault-schedule this worker's wall clock lies per the
	// schedule under its own -name as the proc identity, so a fleet sharing
	// one schedule file still skews each worker independently. Heartbeats,
	// upload deadlines, and claim backoff all ride the same clock.
	var clk clockfault.Clock
	if *cfSchedule != "" {
		sched, err := clockfault.ParseScheduleFile(*cfSchedule)
		if err != nil {
			fatal(err)
		}
		fc, err := clockfault.New(sched, *name, &clockfault.Options{Logf: log.Printf})
		if err != nil {
			fatal(err)
		}
		clk = fc
		log.Printf("tecfan-worker %s: CLOCK FAULT INJECTION ACTIVE (schedule %s, seed %d, proc %s)", *name, *cfSchedule, sched.Seed, *name)
	}

	cl, err := client.New(client.Config{
		BaseURL:        *coordinator,
		RequestTimeout: *requestTimeout,
		Logf:           log.Printf,
		Clock:          clk,
	})
	if err != nil {
		fatal(err)
	}
	w, err := worker.New(worker.Config{
		Client:    cl,
		Name:      *name,
		Poll:      *poll,
		Logf:      log.Printf,
		OnClaim:   breadcrumb(*scratchDir, *name),
		NumFaults: numSched,
		Clock:     clk,
	})
	if err != nil {
		fatal(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *healthPort != 0 {
		go serveHealth(*healthPort, *name, w)
	}

	log.Printf("tecfan-worker %s: polling %s", *name, *coordinator)
	if err := w.Run(ctx); err != nil && ctx.Err() == nil {
		fatal(err)
	}
	st := w.Stats()
	log.Printf("tecfan-worker %s: stopped (done=%d abandoned=%d checkpoints=%d fenced=%d)",
		*name, st.ShardsDone, st.ShardsAbandoned, st.Checkpoints, st.FencedWrites)
}

// breadcrumb returns an OnClaim hook writing the current claim to
// <dir>/<name>.json — deliberately not fsynced; it is a debugging aid, not
// state the protocol depends on.
func breadcrumb(dir, name string) func(*pool.ClaimResponse) {
	if dir == "" {
		return nil
	}
	path := filepath.Join(dir, name+".json")
	return func(grant *pool.ClaimResponse) {
		data, err := json.Marshal(map[string]any{
			"job_id": grant.JobID, "shard_id": grant.Shard.ID, "token": grant.Token,
		})
		if err == nil {
			err = os.WriteFile(path, append(data, '\n'), 0o644)
		}
		if err != nil {
			log.Printf("tecfan-worker %s: breadcrumb: %v", name, err)
		}
	}
}

func serveHealth(port int, name string, w *worker.Worker) {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(rw http.ResponseWriter, _ *http.Request) {
		rw.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(rw)
		enc.SetIndent("", "  ")
		_ = enc.Encode(map[string]any{"status": "ok", "worker": name, "stats": w.Stats()})
	})
	srv := &http.Server{
		Addr:              fmt.Sprintf("127.0.0.1:%d", port),
		Handler:           mux,
		ReadHeaderTimeout: 5 * time.Second,
	}
	if err := srv.ListenAndServe(); err != nil {
		log.Printf("tecfan-worker %s: health server: %v", name, err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tecfan-worker:", err)
	os.Exit(1)
}
