// Command tecfan-crucible is the unified chaos-campaign orchestrator: it runs
// seeded episodes of a composite fault campaign — network chaos, disk faults,
// numerical corruption, clock faults, and process-level kill/stop/restart on
// one shared timeline — against the real daemon(+pool) stack, records the
// client-observed history, and judges it with the end-to-end oracle catalog
// (exactly-once, byte-identical-or-declared-fail-safe results, sticky
// fail-safe, no non-finite token, readiness consistency, lease safety over
// the coordinator's ledger, and bounded liveness: no accepted job is left
// stranded).
//
// Usage:
//
//	tecfan-crucible -spec campaign.json -episodes 5 -bin-dir ./bin -out ./artifacts
//	tecfan-crucible -corpus testdata/crucible -bin-dir ./bin
//
// With -bin-dir, episodes spawn real tecfand / tecfan-worker / tecfan-netchaos
// processes (required for proc actions and disk crash points); without it,
// episodes run in-process, which is faster but covers only the in-process
// feature subset. The fault-free reference every episode is byte-compared
// against always runs in-process: result bytes are a pure function of the job
// spec, which is the determinism contract the whole repo is built on.
//
// Every oracle-clean episode must also show that its faults landed on live
// work (campaign.Landed): a restart that fires after the job has finished
// tests nothing, so such an episode fails as "ineffective schedule: <fault>"
// instead of passing.
//
// On the first oracle violation the crucible (unless -shrink=false)
// delta-debugs the composite schedule down to a minimal still-failing repro
// and writes it to -out as a corpus entry ready to commit under
// testdata/crucible, where CI replays it forever.
//
// Exit status: 0 all episodes oracle-clean with every fault landed, 1 oracle
// violation, 2 usage or infrastructure error or an ineffective schedule.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"tecfan/internal/campaign"
	"tecfan/internal/daemon"
)

func main() {
	specPath := flag.String("spec", "", "campaign spec file to run")
	corpusDir := flag.String("corpus", "", "replay every corpus entry under this directory instead of running -spec")
	episodes := flag.Int("episodes", 5, "seeded episodes to run (with -spec)")
	seed := flag.Int64("seed", 0, "override the campaign master seed (0 = spec's)")
	binDir := flag.String("bin-dir", "", "directory holding tecfand/tecfan-worker/tecfan-netchaos binaries; empty runs episodes in-process")
	outDir := flag.String("out", "", "artifact directory for episode logs, histories, and minimized repros (empty = temp, removed when green)")
	shrink := flag.Bool("shrink", true, "on an oracle violation, minimize the schedule to a still-failing repro")
	epTimeout := flag.Duration("episode-timeout", 4*time.Minute, "wall-clock bound per episode (a spec's own timeout overrides it)")
	verbose := flag.Bool("v", false, "log every daemon/client operational line, not just episode progress")
	flag.Parse()

	log.SetFlags(0)
	log.SetPrefix("crucible: ")
	if (*specPath == "") == (*corpusDir == "") {
		fmt.Fprintln(os.Stderr, "crucible: exactly one of -spec or -corpus is required")
		os.Exit(2)
	}
	if *episodes <= 0 {
		fmt.Fprintln(os.Stderr, "crucible: -episodes must be positive")
		os.Exit(2)
	}

	r := &runner{binDir: *binDir, defaultTimeout: *epTimeout, verbose: *verbose}
	temp := *outDir == ""
	if temp {
		dir, err := os.MkdirTemp("", "crucible")
		if err != nil {
			fatal(err)
		}
		r.outDir = dir
	} else {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fatal(err)
		}
		r.outDir = *outDir
	}

	ctx := context.Background()
	var code int
	if *specPath != "" {
		code = r.runCampaign(ctx, *specPath, *seed, *episodes, *shrink)
	} else {
		code = r.replayCorpus(ctx, *corpusDir)
	}
	if temp && code == 0 {
		os.RemoveAll(r.outDir)
	} else if code != 0 {
		log.Printf("artifacts kept under %s", r.outDir)
	}
	os.Exit(code)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "crucible:", err)
	os.Exit(2)
}

type runner struct {
	binDir         string
	outDir         string
	defaultTimeout time.Duration
	verbose        bool
}

func (r *runner) logf(format string, args ...any) {
	if r.verbose {
		log.Printf(format, args...)
	}
}

// runCampaign runs N seeded episodes of one spec, judging each against the
// fault-free reference; on the first violation it optionally minimizes the
// schedule and writes the repro as a ready-to-commit corpus entry.
func (r *runner) runCampaign(ctx context.Context, specPath string, seed int64, episodes int, shrink bool) int {
	spec, err := campaign.LoadSpec(specPath)
	if err != nil {
		fatal(err)
	}
	if seed != 0 {
		spec.Seed = seed
	}
	log.Printf("campaign %q: %d jobs, %d episodes, seed %d", spec.Name, len(spec.Jobs), episodes, spec.Seed)

	ref, err := r.reference(ctx, spec)
	if err != nil {
		fatal(err)
	}
	for ep := 0; ep < episodes; ep++ {
		label := fmt.Sprintf("episode %d", ep)
		vs, err := r.judged(ctx, spec, ep, filepath.Join(r.outDir, fmt.Sprintf("ep%03d", ep)), ref, label)
		if err != nil {
			// Faults that missed are an infrastructure verdict: never shrunk,
			// never written out as a repro.
			fatal(fmt.Errorf("%s: %w", label, err))
		}
		if len(vs) > 0 {
			if shrink {
				r.minimize(ctx, spec, ep, ref, vs[0].Oracle)
			}
			return 1
		}
	}
	log.Printf("PASS: %d episodes oracle-clean, every fault landed", episodes)
	return 0
}

// replayCorpus re-runs every committed repro and demands zero violations —
// the regression memory of every compound-fault bug the crucible ever caught.
func (r *runner) replayCorpus(ctx context.Context, dir string) int {
	entries, err := campaign.LoadCorpus(dir)
	if err != nil {
		fatal(err)
	}
	log.Printf("corpus %s: %d entries", dir, len(entries))
	code := 0
	for _, e := range entries {
		ref, err := r.reference(ctx, e.Spec)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", e.Path, err))
		}
		for ep := 0; ep < e.Episodes; ep++ {
			label := fmt.Sprintf("%s episode %d", e.Path, ep)
			adir := filepath.Join(r.outDir, fmt.Sprintf("%s-ep%03d", strings.TrimSuffix(filepath.Base(e.Path), ".json"), ep))
			vs, err := r.judged(ctx, e.Spec, ep, adir, ref, label)
			switch {
			case err != nil:
				// An ineffective episode fails the replay, but a violation
				// elsewhere is the finding the exit status reports.
				log.Printf("%s: %v", label, err)
				if code == 0 {
					code = 2
				}
			case len(vs) > 0:
				code = 1
			}
		}
	}
	if code == 0 {
		log.Printf("PASS: corpus replay oracle-clean, every fault landed")
	}
	return code
}

// judged runs one episode, saves its history under dir and judges it
// against ref, logging the verdict under label. An episode that cannot run
// is fatal; one whose faults missed returns its *campaign.IneffectiveError.
func (r *runner) judged(ctx context.Context, spec campaign.Spec, ep int, dir string, ref map[string][]byte, label string) ([]campaign.Violation, error) {
	h, err := r.episode(ctx, spec, ep, dir)
	r.saveHistory(dir, h)
	if err != nil {
		fatal(fmt.Errorf("%s: %w", label, err))
	}
	vs, err := campaign.Judge(spec.ForEpisode(ep), h, ref)
	if err != nil {
		return nil, err
	}
	for _, v := range vs {
		log.Printf("%s: VIOLATION %s", label, v)
	}
	if len(vs) == 0 {
		log.Printf("%s: oracle-clean (%d calls, %d ready samples, %d lease events)", label, len(h.Calls), len(h.Ready), len(h.Leases))
	}
	return vs, nil
}

// reference computes the fault-free baseline in-process (byte-identity across
// execution substrates is the determinism contract the repo's tier-1 tests
// and the empty-lattice meta-test enforce).
func (r *runner) reference(ctx context.Context, spec campaign.Spec) (map[string][]byte, error) {
	rctx, cancel := context.WithTimeout(ctx, r.timeout(spec))
	defer cancel()
	return campaign.Reference(rctx, spec, 0, r.logf)
}

func (r *runner) timeout(spec campaign.Spec) time.Duration {
	if spec.Timeout > 0 {
		return spec.Timeout.Std()
	}
	return r.defaultTimeout
}

// episode runs one seeded episode: against real processes when -bin-dir is
// set, in-process otherwise. Both paths resolve the episode's derived seeds
// identically (Spec.ForEpisode).
func (r *runner) episode(ctx context.Context, spec campaign.Spec, ep int, dir string) (*campaign.History, error) {
	ectx, cancel := context.WithTimeout(ctx, r.timeout(spec))
	defer cancel()
	if r.binDir == "" {
		return campaign.RunEpisode(ectx, spec, ep, r.logf)
	}
	return r.execEpisode(ectx, spec, ep, dir)
}

// minimize pins the failing episode's derived seeds into the spec, so that
// the repro replays the exact failing draw sequence as its episode 0, then
// delta-debugs it and writes the result as a ready-to-commit corpus entry.
func (r *runner) minimize(ctx context.Context, spec campaign.Spec, ep int, ref map[string][]byte, oracle string) {
	pinned := spec.ForEpisode(ep)
	log.Printf("minimizing the failing schedule (episode %d pinned)...", ep)
	cand := 0
	run := func(pctx context.Context, s campaign.Spec) (*campaign.History, error) {
		cand++
		return r.episode(pctx, s, 0, filepath.Join(r.outDir, "shrink", fmt.Sprintf("cand%03d", cand)))
	}
	min, stats, err := campaign.Minimize(ctx, pinned, campaign.EpisodePredicate(run, ref, r.logf))
	if err != nil {
		log.Printf("minimization aborted: %v (committing the un-minimized repro instead)", err)
		min = pinned
	}
	entry := campaign.Entry{
		Note: fmt.Sprintf("minimized from campaign %q episode %d (%d->%d atoms, %d runs, %d halvings)",
			spec.Name, ep, stats.AtomsBefore, stats.AtomsAfter, stats.Runs, stats.Halvings),
		Oracle:   oracle,
		Episodes: 1,
		Spec:     min,
	}
	path := filepath.Join(r.outDir, "minimized.json")
	if err := campaign.WriteEntry(path, entry); err != nil {
		log.Printf("writing minimized repro: %v", err)
		return
	}
	log.Printf("minimized repro written to %s — review and commit it under testdata/crucible/", path)
}

func (r *runner) saveHistory(dir string, h *campaign.History) {
	if h == nil {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return
	}
	data, err := json.MarshalIndent(h, "", "  ")
	if err != nil {
		return
	}
	_ = os.WriteFile(filepath.Join(dir, "history.json"), append(data, '\n'), 0o644)
}

// ---------------------------------------------------------------------------
// Exec episode: real processes, real signals.

// execEpisode runs one episode against spawned binaries: tecfand on a free
// port (behind tecfan-netchaos when the spec has network faults),
// tecfan-worker processes in pool mode (behind the same proxy), and a
// timeline goroutine delivering the spec's proc actions as real signals.
func (r *runner) execEpisode(ctx context.Context, spec campaign.Spec, ep int, dir string) (*campaign.History, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	eff := spec.ForEpisode(ep)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &execStack{r: r, eff: eff, dir: dir, rec: campaign.NewRecorder(eff.Name, ep)}
	defer s.teardown()
	if err := s.start(ctx); err != nil {
		return s.rec.History(), err
	}

	// The timeline runs concurrently with the client workload, exactly like
	// production chaos would.
	tdone := make(chan struct{})
	tctx, tcancel := context.WithCancel(ctx)
	defer tcancel()
	go func() {
		defer close(tdone)
		s.runTimeline(tctx)
	}()
	return campaign.Drive(ctx, eff, s.rec, s.clientURL, s.daemonURL, tdone, r.logf)
}

// proc is one spawned child with its reusable log sink (restarts append).
type proc struct {
	cmd *exec.Cmd
	log *os.File
	// exited is closed once the child has left the process table, whether a
	// signal or its own exit (a disk power cut) took it there.
	exited chan struct{}
}

// down reports whether the child has exited.
func (p *proc) down() bool {
	select {
	case <-p.exited:
		return true
	default:
		return false
	}
}

type execStack struct {
	r   *runner
	eff campaign.Spec
	dir string
	rec *campaign.Recorder

	mu            sync.Mutex
	daemon        *proc
	daemonStopped bool
	workers       []*proc
	proxy         *proc

	daemonAddr string // host:port the daemon listens on (stable across restarts)
	daemonURL  string
	clientURL  string // daemonURL, or the chaos proxy when the spec has one
	stateDir   string
	diskFile   string
	numFile    string
	clockFile  string
}

// start brings up the whole stack: schedule files, daemon, optional chaos
// proxy, optional workers.
func (s *execStack) start(ctx context.Context) error {
	s.stateDir = filepath.Join(s.dir, "state")
	var err error
	if s.eff.Disk != nil {
		if s.diskFile, err = s.writeSchedule("disk.json", s.eff.Disk); err != nil {
			return err
		}
	}
	if s.eff.Num != nil {
		if s.numFile, err = s.writeSchedule("num.json", s.eff.Num); err != nil {
			return err
		}
	}
	if s.eff.Clock != nil {
		if s.clockFile, err = s.writeSchedule("clock.json", s.eff.Clock); err != nil {
			return err
		}
	}
	port, err := freePort()
	if err != nil {
		return err
	}
	s.daemonAddr = "127.0.0.1:" + strconv.Itoa(port)
	s.daemonURL = "http://" + s.daemonAddr
	s.clientURL = s.daemonURL
	if err := s.startDaemon(ctx); err != nil {
		return err
	}

	if s.eff.Net != nil {
		netFile, err := s.writeSchedule("net.json", s.eff.Net)
		if err != nil {
			return err
		}
		pport, err := freePort()
		if err != nil {
			return err
		}
		paddr := "127.0.0.1:" + strconv.Itoa(pport)
		s.proxy, err = s.spawn("tecfan-netchaos", "netchaos.log",
			"-listen", paddr, "-target", s.daemonAddr,
			"-schedule", netFile)
		if err != nil {
			return err
		}
		s.clientURL = "http://" + paddr
		waitPort(ctx, paddr)
	}

	if s.eff.Pool != nil {
		for i := 0; i < s.eff.Pool.Workers; i++ {
			w, err := s.startWorker(i)
			if err != nil {
				return err
			}
			s.workers = append(s.workers, w)
		}
	}
	return nil
}

func (s *execStack) writeSchedule(name string, v any) (string, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	path := filepath.Join(s.dir, name)
	return path, os.WriteFile(path, data, 0o644)
}

// startDaemon spawns tecfand on the stack's stable address and state dir and
// waits for liveness (not readiness: a campaign's disk schedule may hold
// /readyz at 503 from the first operation, and that is a finding for the
// oracles, not a startup failure).
func (s *execStack) startDaemon(ctx context.Context) error {
	args := []string{
		"-addr", s.daemonAddr, "-state-dir", s.stateDir,
		"-checkpoint-every", strconv.Itoa(campaign.CheckpointEvery),
		"-scrub-interval", campaign.ScrubInterval.String(),
		"-storage-probe-interval", campaign.StorageProbeInterval.String(),
	}
	if s.eff.Pool != nil {
		args = append(args, "-pool")
		if s.eff.Pool.Chunk > 0 {
			args = append(args, "-pool-chunk", strconv.Itoa(s.eff.Pool.Chunk))
		}
		if s.eff.Pool.LeaseTTL > 0 {
			args = append(args, "-pool-lease-ttl", s.eff.Pool.LeaseTTL.Std().String())
		}
	}
	if s.diskFile != "" {
		args = append(args, "-diskfault-schedule", s.diskFile)
	}
	if s.numFile != "" {
		args = append(args, "-numfault-schedule", s.numFile)
	}
	if s.clockFile != "" {
		args = append(args, "-clockfault-schedule", s.clockFile)
	}
	p, err := s.spawn("tecfand", "daemon.log", args...)
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.daemon = p
	s.mu.Unlock()
	if !waitHTTP(ctx, s.daemonURL+"/livez", 15*time.Second) {
		return fmt.Errorf("tecfand on %s never became live (see %s)", s.daemonAddr, filepath.Join(s.dir, "daemon.log"))
	}
	return nil
}

// startWorker spawns worker i against the coordinator. Workers take the same
// path as the client, so with a net schedule they sit behind the chaos proxy.
func (s *execStack) startWorker(i int) (*proc, error) {
	args := []string{
		"-coordinator", s.clientURL,
		"-name", fmt.Sprintf("crucible-w%d", i),
		"-poll", campaign.WorkerPoll.String(),
	}
	if s.numFile != "" {
		args = append(args, "-numfault-schedule", s.numFile)
	}
	if s.clockFile != "" {
		// One shared schedule file; each worker skews independently because
		// its -name is its clockfault proc identity.
		args = append(args, "-clockfault-schedule", s.clockFile)
	}
	return s.spawn("tecfan-worker", fmt.Sprintf("worker%d.log", i), args...)
}

// spawn starts one child with output appended to dir/logName (restarts of a
// role share the sink, so the log reads as one continuous story).
func (s *execStack) spawn(bin, logName string, args ...string) (*proc, error) {
	f, err := os.OpenFile(filepath.Join(s.dir, logName), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(filepath.Join(s.r.binDir, bin), args...)
	cmd.Stdout, cmd.Stderr = f, f
	if err := cmd.Start(); err != nil {
		f.Close()
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	p := &proc{cmd: cmd, log: f, exited: make(chan struct{})}
	go func() {
		_ = cmd.Wait()
		close(p.exited)
	}()
	return p, nil
}

// runTimeline delivers the spec's proc actions at their offsets, in order.
func (s *execStack) runTimeline(ctx context.Context) {
	start := time.Now()
	for _, p := range campaign.TimelineOrder(s.eff.Procs) {
		if wait := time.Until(start.Add(p.At.Std())); wait > 0 {
			select {
			case <-ctx.Done():
				return
			case <-time.After(wait):
			}
		}
		if ctx.Err() != nil {
			return
		}
		ev, err := s.apply(ctx, p)
		if err != nil {
			s.r.logf("timeline: %s %s: %v", p.Action, p.Target, err)
			continue
		}
		s.rec.Proc(ev)
	}
}

// apply delivers one timeline action as a real signal (restart = SIGKILL,
// reap, respawn on the same address and state dir — the crash-recovery path
// end to end) and returns it as a history event carrying the evidence the
// validity check needs: the coordinator's in-flight job count just before
// the signal, or, for a restart of a daemon that was already down, the
// in-flight count of the incarnation that replaced it.
func (s *execStack) apply(ctx context.Context, a campaign.ProcAction) (campaign.ProcEvent, error) {
	ev := campaign.ProcEvent{Target: a.Target, Action: a.Action}
	target, respawn := s.resolve(a.Target)
	if target == nil {
		return ev, fmt.Errorf("no such process")
	}
	isDaemon := a.Target == campaign.TargetDaemon
	s.mu.Lock()
	daemonDown := isDaemon && (s.daemonStopped || target.down())
	s.mu.Unlock()
	if a.Action != campaign.ActCont {
		ev.InFlight = -1
		if !daemonDown {
			ev.InFlight = s.inFlight(ctx)
		}
	}
	switch a.Action {
	case campaign.ActStop:
		s.setDaemonStopped(isDaemon, true)
		return ev, target.cmd.Process.Signal(syscall.SIGSTOP)
	case campaign.ActCont:
		s.setDaemonStopped(isDaemon, false)
		return ev, target.cmd.Process.Signal(syscall.SIGCONT)
	case campaign.ActKill:
		reap(target)
		return ev, nil
	case campaign.ActRestart:
		if isDaemon && target.down() && target.cmd.ProcessState.ExitCode() == powerCutExit {
			// A power cut happens once: every later incarnation runs the
			// same disk rules without the crash point.
			ev.PowerCut = true
			residual := *s.eff.Disk
			residual.CrashAtOp = 0
			file, err := s.writeSchedule("disk-residual.json", residual)
			if err != nil {
				return ev, err
			}
			s.diskFile = file
		}
		reap(target)
		s.setDaemonStopped(isDaemon, false)
		if err := respawn(ctx); err != nil {
			return ev, err
		}
		if daemonDown {
			ev.InFlight = s.inFlight(ctx)
		}
		return ev, nil
	}
	return ev, fmt.Errorf("unknown action %q", a.Action)
}

// powerCutExit is tecfand's exit status when its disk schedule's crash_at_op
// power cut fires.
const powerCutExit = 3

func (s *execStack) setDaemonStopped(isDaemon, stopped bool) {
	if isDaemon {
		s.mu.Lock()
		s.daemonStopped = stopped
		s.mu.Unlock()
	}
}

// inFlight asks the coordinator how many jobs are still non-terminal. A
// listing that fails counts as zero: an action whose landing cannot be shown
// did not land.
func (s *execStack) inFlight(ctx context.Context) int {
	lctx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(lctx, http.MethodGet, s.daemonURL+"/jobs", nil)
	if err != nil {
		return 0
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		s.r.logf("in-flight listing: %v", err)
		return 0
	}
	defer resp.Body.Close()
	var views []daemon.JobView
	if err := json.NewDecoder(resp.Body).Decode(&views); err != nil {
		s.r.logf("in-flight listing: %v", err)
		return 0
	}
	return campaign.InFlight(views)
}

// resolve maps a timeline target to its live process handle and its respawn
// closure.
func (s *execStack) resolve(target string) (*proc, func(context.Context) error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if target == campaign.TargetDaemon {
		return s.daemon, s.startDaemon
	}
	var idx int
	if _, err := fmt.Sscanf(target, "worker:%d", &idx); err != nil || idx < 0 || idx >= len(s.workers) {
		return nil, nil
	}
	return s.workers[idx], func(context.Context) error {
		w, err := s.startWorker(idx)
		if err != nil {
			return err
		}
		s.mu.Lock()
		s.workers[idx] = w
		s.mu.Unlock()
		return nil
	}
}

// reap SIGKILLs a child and waits it out of the process table. SIGKILL also
// terminates SIGSTOPped children, so teardown never leaks a frozen process.
func reap(p *proc) {
	_ = p.cmd.Process.Kill()
	<-p.exited
}

func (s *execStack) teardown() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, p := range append([]*proc{s.daemon, s.proxy}, s.workers...) {
		if p == nil {
			continue
		}
		reap(p)
		p.log.Close()
	}
}

// freePort grabs an ephemeral port by binding and releasing it. The tiny
// close-to-bind race is acceptable in a harness that owns the machine.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// waitHTTP polls url until it answers 2xx or the budget runs out.
func waitHTTP(ctx context.Context, url string, budget time.Duration) bool {
	deadline := time.Now().Add(budget)
	hc := &http.Client{Timeout: 2 * time.Second}
	for time.Now().Before(deadline) {
		if ctx.Err() != nil {
			return false
		}
		resp, err := hc.Get(url)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode < 300 {
				return true
			}
		}
		time.Sleep(100 * time.Millisecond)
	}
	return false
}

// waitPort waits briefly for a listener to accept; chaos may legitimately eat
// the probe, so failure is not fatal (the client's retries take over).
func waitPort(ctx context.Context, addr string) {
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if ctx.Err() != nil {
			return
		}
		c, err := net.DialTimeout("tcp", addr, 500*time.Millisecond)
		if err == nil {
			c.Close()
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
}
