package campaign

import (
	"sync"

	"tecfan/internal/client"
	"tecfan/internal/daemon"
	"tecfan/internal/pool"
)

// History is everything one episode's client observed, in observation order.
// It is the single input the oracle catalog judges — nothing an oracle needs
// may live only in a process log. Seq numbers give one total order across the
// record kinds (the recorder hands them out under one lock), so "did the
// fail-safe reason ever un-stick?" is answerable without wall-clock times,
// which would poison determinism and mean nothing across machines anyway.
type History struct {
	Campaign string `json:"campaign,omitempty"`
	Episode  int    `json:"episode"`

	// Calls are every client attempt, including ones that never reached the
	// wire (breaker-denied) or never got a response (transport error).
	Calls []Call `json:"calls"`
	// Submissions are the logical submit outcomes, two per job per episode
	// (the second is the idempotency replay).
	Submissions []Submission `json:"submissions"`
	// Results are the terminal observation per job: state, error, and the
	// durable result bytes for done jobs.
	Results []ResultRecord `json:"results"`
	// Ready are /readyz probe samples, tagged with the daemon incarnation
	// they were taken in (restarts reset sticky state by design).
	Ready []ReadySample `json:"ready"`
	// Procs are the timeline actions the driver actually applied.
	Procs []ProcEvent `json:"procs,omitempty"`
	// Jobs is the final GET /jobs listing.
	Jobs []daemon.JobView `json:"jobs"`
	// Leases is the coordinator's lease ledger (grant / expire / re-adopt /
	// fail / complete), fetched after the final jobs listing, pool or not.
	// Its Seq is the coordinator's own total order from 0, independent of the
	// History Seq space; the lease-safety oracle replays it per shard.
	Leases []pool.LeaseEvent `json:"leases,omitempty"`
}

// Call is one client attempt (see client.ObservedCall).
type Call struct {
	Seq        int    `json:"seq"`
	Method     string `json:"method"`
	Path       string `json:"path"`
	Retry      int    `json:"retry"`
	Status     int    `json:"status,omitempty"`
	Err        string `json:"err,omitempty"`
	RequestID  string `json:"request_id,omitempty"`
	ReadyState string `json:"ready_state,omitempty"`
}

// Submission is one logical SubmitWithKey outcome.
type Submission struct {
	Seq          int    `json:"seq"`
	JobID        string `json:"job_id"`
	Key          string `json:"key"`
	ReturnedID   string `json:"returned_id,omitempty"`
	Deduplicated bool   `json:"deduplicated,omitempty"`
	Err          string `json:"err,omitempty"`
}

// ResultRecord is a job's terminal observation.
type ResultRecord struct {
	Seq      int    `json:"seq"`
	JobID    string `json:"job_id"`
	State    string `json:"state"`
	Error    string `json:"error,omitempty"`
	Attempts int    `json:"attempts,omitempty"`
	Resumed  bool   `json:"resumed,omitempty"`
	Result   []byte `json:"result,omitempty"`
}

// ReadySample is one /readyz observation.
type ReadySample struct {
	Seq         int      `json:"seq"`
	Incarnation int      `json:"incarnation"`
	Ready       bool     `json:"ready"`
	Reasons     []string `json:"reasons,omitempty"`
}

// ProcEvent is one applied timeline action.
type ProcEvent struct {
	Seq    int    `json:"seq"`
	Target string `json:"target"`
	Action string `json:"action"`
	// InFlight is how many non-terminal jobs the coordinator's GET /jobs
	// listed just before the signal — the evidence that the action landed
	// on live work (see Landed). A restart of a daemon that was already down
	// counts the jobs its new incarnation recovered non-terminal instead;
	// -1 marks a kill or stop of a daemon an earlier action already took
	// down, which that earlier action's evidence covers.
	InFlight int `json:"in_flight"`
	// PowerCut marks a daemon restart that found the daemon already exited
	// on its disk schedule's crash_at_op power cut.
	PowerCut bool `json:"power_cut,omitempty"`
}

// Recorder accumulates a History from concurrent observers: the client's
// per-attempt hook, the driver's readiness prober, the timeline executor.
// All methods are safe for concurrent use; Seq order is assignment order.
type Recorder struct {
	mu          sync.Mutex
	h           History
	seq         int
	incarnation int
}

// NewRecorder starts an empty history for one episode.
func NewRecorder(campaignName string, episode int) *Recorder {
	return &Recorder{h: History{Campaign: campaignName, Episode: episode}}
}

func (r *Recorder) next() int {
	r.seq++
	return r.seq
}

// Observer adapts the recorder to client.Config.Observer.
func (r *Recorder) Observer() func(client.ObservedCall) {
	return func(oc client.ObservedCall) {
		r.mu.Lock()
		defer r.mu.Unlock()
		r.h.Calls = append(r.h.Calls, Call{
			Seq: r.next(), Method: oc.Method, Path: oc.Path, Retry: oc.Retry,
			Status: oc.Status, Err: oc.Err,
			RequestID: oc.RequestID, ReadyState: oc.ReadyState,
		})
	}
}

// Submission records one logical submit outcome.
func (r *Recorder) Submission(jobID, key, returnedID string, dedup bool, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Submission{Seq: r.next(), JobID: jobID, Key: key, ReturnedID: returnedID, Deduplicated: dedup}
	if err != nil {
		s.Err = err.Error()
	}
	r.h.Submissions = append(r.h.Submissions, s)
}

// Result records a job's terminal observation. result may be nil for
// non-done states.
func (r *Recorder) Result(v daemon.JobView, result []byte) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.h.Results = append(r.h.Results, ResultRecord{
		Seq: r.next(), JobID: v.ID, State: string(v.State), Error: v.Error,
		Attempts: v.Attempts, Resumed: v.Resumed, Result: result,
	})
}

// Ready records one /readyz probe under the current daemon incarnation.
func (r *Recorder) Ready(ready bool, reasons []string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.h.Ready = append(r.h.Ready, ReadySample{
		Seq: r.next(), Incarnation: r.incarnation, Ready: ready,
		Reasons: append([]string(nil), reasons...),
	})
}

// Proc records an applied timeline action (its Seq is assigned here). A
// daemon restart bumps the incarnation: sticky readiness state legitimately
// resets across it.
func (r *Recorder) Proc(e ProcEvent) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e.Seq = r.next()
	r.h.Procs = append(r.h.Procs, e)
	if e.Target == TargetDaemon && e.Action == ActRestart {
		r.incarnation++
	}
}

// Jobs records the final jobs listing.
func (r *Recorder) Jobs(views []daemon.JobView) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.h.Jobs = append([]daemon.JobView(nil), views...)
}

// Leases records the coordinator's lease ledger snapshot.
func (r *Recorder) Leases(events []pool.LeaseEvent) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.h.Leases = append([]pool.LeaseEvent(nil), events...)
}

// History snapshots the accumulated record.
func (r *Recorder) History() *History {
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.h
	return &h
}
