// Command tecfand is the crash-safe control-plane daemon: it serves an HTTP
// API for submitting simulations and chaos sweeps as leased jobs, each
// checkpointing its full run state to -state-dir so a crash — SIGKILL
// included — resumes on the next start with a result bitwise-identical to an
// uninterrupted run.
//
// Usage:
//
//	tecfand -addr :8023 -state-dir /var/lib/tecfand
//
// Endpoints:
//
//	GET    /healthz           liveness
//	GET    /livez             liveness (conventional pair to /readyz)
//	GET    /readyz            readiness (503 while draining / queue full /
//	                          state dir unwritable)
//	POST   /jobs              submit a JobSpec; 202 {"id": ...}, 429 when shed.
//	                          An Idempotency-Key header makes the submission
//	                          safely retryable: a replayed key answers 200
//	                          with the original id and "deduplicated": true.
//	GET    /jobs              list jobs
//	GET    /jobs/{id}         job status
//	DELETE /jobs/{id}         cancel a job (checkpoints, then stops)
//	GET    /jobs/{id}/result  durable result of a finished job
//	GET    /storage           storage-robustness counters (degraded mode,
//	                          quarantines, scrub repairs)
//	GET    /pool/stats        coordinator counters (grants, completions,
//	                          fencing, dropped ledger events)
//	GET    /pool/leases       lease ledger: the newest grants, expiries,
//	                          re-adoptions, failures and completions
//
// Every job is a lease of the daemon's coordinator, so both views are served
// in either mode. With -pool, execution moves to tecfan-worker processes and
// the worker protocol is mounted as well:
//
//	POST   /pool/claim        grant a shard lease (204 when no work)
//	POST   /pool/heartbeat    renew a lease (410 when fenced)
//	POST   /pool/checkpoint   upload mid-shard progress
//	POST   /pool/complete     report a shard result (idempotent per token)
//
// Every request carries an X-Request-ID (client-supplied or minted) that is
// echoed in the response and threaded into the job log for correlation.
//
// SIGINT/SIGTERM drains gracefully: in-flight jobs are canceled at their next
// control boundary, which persists a final checkpoint for the next
// incarnation to resume from.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"tecfan/internal/clockfault"
	"tecfan/internal/cmdutil"
	"tecfan/internal/daemon"
	"tecfan/internal/diskfault"
	"tecfan/internal/numfault"
)

func main() {
	addr := flag.String("addr", ":8023", "HTTP listen address")
	stateDir := flag.String("state-dir", "tecfand-state", "directory for job checkpoints and results")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "concurrent in-process job executors (none under -pool), one per CPU by default; all share one model")
	queueDepth := flag.Int("queue", 8, "admission queue depth (beyond it, 429)")
	ckptEvery := flag.Int("checkpoint-every", 25, "checkpoint cadence in control periods")
	maxAttempts := flag.Int("max-attempts", 3, "failed attempts of one shard (panic, error, stall) before its job fails")
	stallTimeout := flag.Duration("watchdog", 2*time.Minute, "fail and regrant an in-process attempt that saves no checkpoint or row for this long (<0 disables)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for jobs to checkpoint out")
	submitRate := flag.Float64("submit-rate", 50, "token-bucket submission rate per second (<0 disables admission control)")
	submitBurst := flag.Int("submit-burst", 100, "token-bucket submission burst")
	requestTimeout := flag.Duration("request-timeout", 30*time.Second, "per-request handler deadline (<0 disables)")
	readHeaderTimeout := flag.Duration("read-header-timeout", 5*time.Second, "http.Server ReadHeaderTimeout (slowloris guard)")
	writeTimeout := flag.Duration("write-timeout", 60*time.Second, "http.Server WriteTimeout")
	idleTimeout := flag.Duration("idle-timeout", 2*time.Minute, "http.Server IdleTimeout for keep-alive connections")
	maxHeaderBytes := flag.Int("max-header-bytes", 1<<16, "http.Server MaxHeaderBytes")
	poolMode := flag.Bool("pool", false, "coordinate tecfan-worker processes instead of executing in-process")
	poolLeaseTTL := flag.Duration("pool-lease-ttl", 10*time.Second, "shard lease TTL before a silent worker is fenced (with -pool)")
	poolChunk := flag.Int("pool-chunk", 2, "sweep rows per shard (with -pool)")
	ckptKeep := flag.Int("checkpoint-keep", 3, "checkpoint generations retained per job, head included (1 disables rotation)")
	scrubInterval := flag.Duration("scrub-interval", 30*time.Second, "background checkpoint-scrub cadence (<0 disables)")
	probeInterval := flag.Duration("storage-probe-interval", 2*time.Second, "degraded-mode recovery probe cadence")
	dfSchedule := flag.String("diskfault-schedule", "", "JSON disk-fault schedule file; injects storage faults into all state I/O (testing only)")
	nfSchedule := flag.String("numfault-schedule", "", "JSON numerical-fault schedule file; corrupts trace-job solver state (testing only)")
	cfSchedule := flag.String("clockfault-schedule", "", "JSON clock-fault schedule file; skews this process's wall clock and timers (testing only)")
	flag.Parse()

	for _, err := range []error{
		cmdutil.CheckAddr("addr", *addr),
		cmdutil.CheckPositiveInt("workers", *workers),
		cmdutil.CheckPositiveInt("queue", *queueDepth),
		cmdutil.CheckPositiveInt("checkpoint-every", *ckptEvery),
		cmdutil.CheckPositiveInt("max-attempts", *maxAttempts),
		cmdutil.CheckPositiveInt("max-header-bytes", *maxHeaderBytes),
		cmdutil.CheckPositiveDuration("drain-timeout", *drainTimeout),
		cmdutil.CheckPositiveDuration("read-header-timeout", *readHeaderTimeout),
		cmdutil.CheckPositiveDuration("write-timeout", *writeTimeout),
		cmdutil.CheckPositiveDuration("idle-timeout", *idleTimeout),
		cmdutil.CheckPositiveDuration("pool-lease-ttl", *poolLeaseTTL),
		cmdutil.CheckPositiveInt("pool-chunk", *poolChunk),
		cmdutil.CheckPositiveInt("checkpoint-keep", *ckptKeep),
		cmdutil.CheckPositiveDuration("storage-probe-interval", *probeInterval),
	} {
		if err != nil {
			fatal(err)
		}
	}
	// The WriteTimeout must outlast the handler's own deadline, or slow-but-
	// legitimate responses (large result files) are cut off before the
	// request-timeout middleware can answer 503 cleanly.
	if *requestTimeout > 0 && *writeTimeout <= *requestTimeout {
		fatal(fmt.Errorf("-write-timeout (%v) must exceed -request-timeout (%v)", *writeTimeout, *requestTimeout))
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// With a -diskfault-schedule every byte of daemon state flows through a
	// seeded fault filesystem; a scheduled power cut kills the process with
	// exit 3, which tecfan-crucible reads as the power cut having landed.
	fsys := diskfault.OS
	if *dfSchedule != "" {
		sched, err := diskfault.ParseScheduleFile(*dfSchedule)
		if err != nil {
			fatal(err)
		}
		ffs, err := diskfault.New(sched, &diskfault.Options{
			Logf: log.Printf,
			OnCrash: func() {
				log.Printf("tecfand: simulated power cut: unsynced state discarded, exiting")
				os.Exit(3)
			},
		})
		if err != nil {
			fatal(err)
		}
		fsys = ffs
		log.Printf("tecfand: DISK FAULT INJECTION ACTIVE (schedule %s, seed %d)", *dfSchedule, sched.Seed)
	}

	// With a -numfault-schedule every trace job runs under seeded numerical
	// corruption; the numguard auditor must catch every violation — that is
	// what the crucible's numeric corpus entries prove.
	var numSched *numfault.Schedule
	if *nfSchedule != "" {
		sched, err := numfault.ParseScheduleFile(*nfSchedule)
		if err != nil {
			fatal(err)
		}
		numSched = &sched
		log.Printf("tecfand: NUMERIC FAULT INJECTION ACTIVE (schedule %s, seed %d)", *nfSchedule, sched.Seed)
	}

	// With a -clockfault-schedule the daemon reads time through a seeded
	// FaultClock under proc identity "daemon": its wall clock steps, drifts,
	// and freezes per the schedule while the monotonic side — everything
	// leases and stall checks actually compare — stays truthful. The
	// crucible's clock corpus entries run a skewed daemon against skewed
	// workers and demand a byte-identical merged result.
	var clk clockfault.Clock
	if *cfSchedule != "" {
		sched, err := clockfault.ParseScheduleFile(*cfSchedule)
		if err != nil {
			fatal(err)
		}
		fc, err := clockfault.New(sched, "daemon", &clockfault.Options{Logf: log.Printf})
		if err != nil {
			fatal(err)
		}
		clk = fc
		log.Printf("tecfand: CLOCK FAULT INJECTION ACTIVE (schedule %s, seed %d, proc daemon)", *cfSchedule, sched.Seed)
	}

	s, err := daemon.New(daemon.Config{
		StateDir:             *stateDir,
		Workers:              *workers,
		QueueDepth:           *queueDepth,
		CheckpointEvery:      *ckptEvery,
		MaxAttempts:          *maxAttempts,
		WatchdogTimeout:      *stallTimeout,
		SubmitRate:           *submitRate,
		SubmitBurst:          *submitBurst,
		RequestTimeout:       *requestTimeout,
		PoolEnabled:          *poolMode,
		PoolLeaseTTL:         *poolLeaseTTL,
		PoolChunk:            *poolChunk,
		FS:                   fsys,
		CheckpointKeep:       *ckptKeep,
		ScrubInterval:        *scrubInterval,
		StorageProbeInterval: *probeInterval,
		NumFaults:            numSched,
		Clock:                clk,
	})
	if err != nil {
		fatal(err)
	}

	srv := &http.Server{
		Addr:              *addr,
		Handler:           s.Handler(),
		ReadHeaderTimeout: *readHeaderTimeout,
		WriteTimeout:      *writeTimeout,
		IdleTimeout:       *idleTimeout,
		MaxHeaderBytes:    *maxHeaderBytes,
	}
	errc := make(chan error, 1)
	go func() {
		log.Printf("tecfand: listening on %s (state: %s)", *addr, *stateDir)
		errc <- srv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		fatal(err)
	case <-ctx.Done():
	}
	log.Printf("tecfand: draining (in-flight jobs checkpoint at their next control boundary)")

	shutCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := s.Shutdown(shutCtx); err != nil {
		log.Printf("tecfand: %v", err)
	}
	if err := srv.Shutdown(shutCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("tecfand: http shutdown: %v", err)
	}
	log.Printf("tecfand: stopped")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tecfand:", err)
	os.Exit(1)
}
