// Package client is the hardened Go client for the tecfand control-plane
// API. Every call carries a per-attempt deadline; transient failures —
// connection resets, timeouts, 5xx, 429 — are retried under exponential
// backoff with full jitter, honoring the server's Retry-After hint when one
// is present; a circuit breaker stops the retry storm from hammering a
// server that is down; and job submission carries an idempotency key, so a
// retried POST whose first attempt actually landed is deduplicated
// server-side instead of enqueuing the job twice.
//
// The package exists because TECfan is a runtime controller: telemetry and
// actuation flow over a transport the paper assumes lossless but deployment
// never provides. The netfault chaos proxy plus this client are the proof
// that the control plane's exactly-once contract survives a lossy wire.
package client

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	mrand "math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"tecfan/internal/clockfault"
	"tecfan/internal/daemon"
)

// Config tunes a Client. Zero values take the documented defaults.
type Config struct {
	// BaseURL is the daemon (or chaos proxy) endpoint, e.g.
	// "http://127.0.0.1:8023". Required.
	BaseURL string
	// HTTPClient overrides the transport (default: a fresh http.Client; the
	// per-attempt deadline comes from RequestTimeout, not Client.Timeout).
	HTTPClient *http.Client
	// RequestTimeout bounds each attempt (default 10 s). A blackholed
	// connection costs one RequestTimeout, then the retry path takes over.
	RequestTimeout time.Duration
	// MaxRetries is how many times a failed call is retried beyond the first
	// attempt (default 8).
	MaxRetries int
	// BackoffBase/BackoffMax shape the full-jitter backoff: attempt i sleeps
	// uniform [0, min(BackoffMax, BackoffBase·2^i)) (defaults 100 ms / 5 s).
	// A server Retry-After hint overrides the computed backoff entirely.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// Breaker tunes the circuit breaker shared by all calls on this client.
	Breaker BreakerConfig
	// Seed seeds the jitter stream (0: time-seeded).
	Seed int64
	// Logf receives retry decisions (default: silent).
	Logf func(format string, args ...any)
	// Clock is the time seam for retry backoff, breaker cooldown, and seed
	// derivation (default clockfault.OS); tecfan-worker wires a FaultClock
	// here under -clockfault-schedule.
	Clock clockfault.Clock
	// Observer, when non-nil, sees every attempt the client makes — including
	// ones that never reached the wire (breaker-denied) or never got a
	// response (transport error). The crucible records these into a
	// client-observed history its oracles judge; nothing in the client's own
	// behavior depends on it. Called synchronously: keep it fast and safe for
	// concurrent use.
	Observer func(ObservedCall)

	sleep func(ctx context.Context, d time.Duration) error // test seam
}

// ObservedCall is one client attempt as Config.Observer sees it.
type ObservedCall struct {
	// Method and Path identify the API call; Retry is the 0-based attempt
	// index within it.
	Method string
	Path   string
	Retry  int
	// Status is the HTTP status, or 0 when no response arrived; Err carries
	// the breaker/transport error in that case.
	Status int
	Err    string
	// RequestID echoes the daemon's X-Request-ID response header.
	RequestID string
	// ReadyState echoes the daemon's X-Tecfand-Ready header: "ok" or the
	// "; "-joined unreadiness reasons stamped on this exact response.
	ReadyState string
}

func (c *Config) fillDefaults() error {
	if c.BaseURL == "" {
		return errors.New("client: BaseURL is required")
	}
	if c.HTTPClient == nil {
		c.HTTPClient = &http.Client{}
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 10 * time.Second
	}
	if c.MaxRetries < 0 {
		return errors.New("client: MaxRetries must be non-negative")
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = 8
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 100 * time.Millisecond
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = 5 * time.Second
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	c.Clock = clockfault.Or(c.Clock)
	if c.sleep == nil {
		c.sleep = c.Clock.Sleep
	}
	return nil
}

// StatusError is a non-2xx response that was not (or could no longer be)
// retried. Status carries the HTTP code, Msg the server's error body.
type StatusError struct {
	Status     int
	Msg        string
	RequestID  string
	RetryAfter time.Duration
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("client: server answered %d: %s", e.Status, e.Msg)
}

// ErrNotDone reports a result requested before the job finished.
var ErrNotDone = errors.New("client: job not done")

// Client is a hardened tecfand API client. It is safe for concurrent use.
type Client struct {
	cfg Config
	br  *Breaker

	rngMu sync.Mutex
	rng   *mrand.Rand
}

// New validates the config and builds a client.
func New(cfg Config) (*Client, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	if _, err := url.Parse(cfg.BaseURL); err != nil {
		return nil, fmt.Errorf("client: bad BaseURL %q: %w", cfg.BaseURL, err)
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = cfg.Clock.Now().UnixNano()
	}
	brCfg := cfg.Breaker
	if brCfg.clock == nil {
		brCfg.clock = cfg.Clock
	}
	return &Client{
		cfg: cfg,
		br:  NewBreaker(brCfg),
		rng: mrand.New(mrand.NewSource(seed)),
	}, nil
}

// Breaker exposes the client's circuit breaker for state inspection.
func (c *Client) Breaker() *Breaker { return c.br }

// observe delivers an attempt record to the configured Observer, if any.
func (c *Client) observe(oc ObservedCall) {
	if c.cfg.Observer != nil {
		c.cfg.Observer(oc)
	}
}

// backoffDelay draws the full-jitter delay for retry i (0-based):
// uniform [0, min(BackoffMax, BackoffBase·2^i)).
func (c *Client) backoffDelay(retry int) time.Duration {
	ceil := c.cfg.BackoffBase
	for i := 0; i < retry && ceil < c.cfg.BackoffMax; i++ {
		ceil *= 2
	}
	if ceil > c.cfg.BackoffMax {
		ceil = c.cfg.BackoffMax
	}
	c.rngMu.Lock()
	defer c.rngMu.Unlock()
	return time.Duration(c.rng.Float64() * float64(ceil))
}

// NewIdempotencyKey mints a fresh random idempotency token. Submit calls it
// automatically; hold one yourself when the same logical submission must
// dedup across client restarts (the soak drill does).
func NewIdempotencyKey() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is a broken platform; fall back to time so the
		// client still functions, at reduced collision resistance.
		//lint:tecfan-ignore allocfree -- broken-platform fallback: unreachable unless crypto/rand fails
		return fmt.Sprintf("key-%x", time.Now().UnixNano()) //lint:tecfan-ignore monotime -- package-level fallback with no clock in reach; collision resistance only, no timing decision
	}
	return "key-" + hex.EncodeToString(b[:])
}

// retryAfter parses a Retry-After header as delay-seconds (the only form
// tecfand emits); 0 means absent or unparseable.
func retryAfter(resp *http.Response) time.Duration {
	if resp == nil {
		return 0
	}
	v := resp.Header.Get("Retry-After")
	if v == "" {
		return 0
	}
	if secs, err := strconv.Atoi(strings.TrimSpace(v)); err == nil && secs >= 0 {
		return time.Duration(secs) * time.Second
	}
	return 0
}

// retryableStatus reports whether an HTTP status is worth retrying: the
// shedding and server-fault family, never client errors.
func retryableStatus(status int) bool {
	switch status {
	case http.StatusTooManyRequests, http.StatusInternalServerError,
		http.StatusBadGateway, http.StatusServiceUnavailable,
		http.StatusGatewayTimeout:
		return true
	}
	return false
}

// call is the hardened request core: breaker gate, per-attempt deadline,
// retry classification, Retry-After-aware backoff. A 2xx decodes into out
// (when non-nil) and returns the response status.
func (c *Client) call(ctx context.Context, method, path string, body []byte, header http.Header, out any) (int, error) {
	var lastErr error
	for retry := 0; ; retry++ {
		status, err := c.attempt(ctx, retry, method, path, body, header, out)
		if err == nil {
			return status, nil
		}
		lastErr = err
		if ctx.Err() != nil {
			return 0, fmt.Errorf("client: %s %s: %w (last error: %v)", method, path, ctx.Err(), err)
		}
		var se *StatusError
		if errors.As(err, &se) && !retryableStatus(se.Status) {
			return se.Status, err // permanent: 4xx application errors
		}
		if retry >= c.cfg.MaxRetries {
			return 0, fmt.Errorf("client: %s %s: giving up after %d attempts: %w", method, path, retry+1, lastErr)
		}
		delay := c.retryDelay(err, retry)
		c.cfg.Logf("client: %s %s attempt %d failed (%v); retrying in %s", method, path, retry+1, err, delay)
		if serr := c.cfg.sleep(ctx, delay); serr != nil {
			return 0, fmt.Errorf("client: %s %s: %w (last error: %v)", method, path, serr, lastErr)
		}
	}
}

// retryDelay picks the wait before the next attempt. Precedence: the
// server's Retry-After hint, then the breaker's cooldown remainder, then the
// client's own full-jitter backoff.
func (c *Client) retryDelay(err error, retry int) time.Duration {
	var se *StatusError
	if errors.As(err, &se) && se.RetryAfter > 0 {
		return se.RetryAfter
	}
	var oe *OpenError
	if errors.As(err, &oe) && oe.RetryIn > 0 {
		return oe.RetryIn
	}
	return c.backoffDelay(retry)
}

// attempt performs one request under the breaker and the per-attempt
// deadline.
func (c *Client) attempt(ctx context.Context, retry int, method, path string, body []byte, header http.Header, out any) (int, error) {
	record, err := c.br.Allow()
	if err != nil {
		c.observe(ObservedCall{Method: method, Path: path, Retry: retry, Err: err.Error()})
		return 0, err
	}
	actx, cancel := context.WithTimeout(ctx, c.cfg.RequestTimeout)
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(actx, method, c.cfg.BaseURL+path, rd)
	if err != nil {
		record(true) // config error, not transport health
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	for k, vs := range header {
		for _, v := range vs {
			req.Header.Set(k, v)
		}
	}
	resp, err := c.cfg.HTTPClient.Do(req)
	if err != nil {
		record(false)
		c.observe(ObservedCall{Method: method, Path: path, Retry: retry, Err: err.Error()})
		return 0, fmt.Errorf("client: %w", err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		record(false)
		c.observe(ObservedCall{Method: method, Path: path, Retry: retry, Err: err.Error()})
		return 0, fmt.Errorf("client: reading response: %w", err)
	}
	// The wire worked: only 5xx counts against the breaker. 429 means the
	// server is alive and shedding deliberately — pacing is Retry-After's
	// job, not the breaker's.
	record(resp.StatusCode < 500)
	c.observe(ObservedCall{
		Method: method, Path: path, Retry: retry, Status: resp.StatusCode,
		RequestID:  resp.Header.Get("X-Request-ID"),
		ReadyState: resp.Header.Get(daemon.ReadyHeader),
	})

	if resp.StatusCode >= 300 {
		return resp.StatusCode, &StatusError{
			Status:     resp.StatusCode,
			Msg:        errorBody(data),
			RequestID:  resp.Header.Get("X-Request-ID"),
			RetryAfter: retryAfter(resp),
		}
	}
	if out != nil {
		switch o := out.(type) {
		case *[]byte:
			*o = data
		default:
			if err := json.Unmarshal(data, out); err != nil {
				return resp.StatusCode, fmt.Errorf("client: decoding %s %s response: %w", method, path, err)
			}
		}
	}
	return resp.StatusCode, nil
}

// errorBody extracts the daemon's {"error": ...} message, falling back to
// the raw (truncated) body.
func errorBody(data []byte) string {
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(data, &e) == nil && e.Error != "" {
		return e.Error
	}
	s := strings.TrimSpace(string(data))
	if len(s) > 200 {
		s = s[:200] + "..."
	}
	return s
}

// submitResponse is the daemon's POST /jobs body.
type submitResponse struct {
	ID           string `json:"id"`
	Deduplicated bool   `json:"deduplicated,omitempty"`
}

// Submit submits a job under a freshly minted idempotency key: however many
// times the POST is retried, at most one job is enqueued.
func (c *Client) Submit(ctx context.Context, spec daemon.JobSpec) (string, error) {
	id, _, err := c.SubmitWithKey(ctx, NewIdempotencyKey(), spec)
	return id, err
}

// SubmitWithKey submits a job under a caller-held idempotency key and
// reports whether the server deduplicated it against an earlier submission
// with the same key (including one made before a daemon restart).
func (c *Client) SubmitWithKey(ctx context.Context, key string, spec daemon.JobSpec) (id string, deduplicated bool, err error) {
	if key == "" {
		return "", false, errors.New("client: empty idempotency key")
	}
	body, err := json.Marshal(spec)
	if err != nil {
		return "", false, fmt.Errorf("client: encoding spec: %w", err)
	}
	h := http.Header{}
	h.Set("Idempotency-Key", key)
	var sr submitResponse
	if _, err := c.call(ctx, http.MethodPost, "/jobs", body, h, &sr); err != nil {
		return "", false, err
	}
	if sr.ID == "" {
		return "", false, errors.New("client: submit response carried no job id")
	}
	return sr.ID, sr.Deduplicated, nil
}

// Job fetches a job's status.
func (c *Client) Job(ctx context.Context, id string) (daemon.JobView, error) {
	var v daemon.JobView
	_, err := c.call(ctx, http.MethodGet, "/jobs/"+url.PathEscape(id), nil, nil, &v)
	return v, err
}

// Jobs lists every job the daemon knows, in submission order.
func (c *Client) Jobs(ctx context.Context) ([]daemon.JobView, error) {
	var vs []daemon.JobView
	_, err := c.call(ctx, http.MethodGet, "/jobs", nil, nil, &vs)
	return vs, err
}

// Cancel requests cancellation of a queued or running job.
func (c *Client) Cancel(ctx context.Context, id string) error {
	_, err := c.call(ctx, http.MethodDelete, "/jobs/"+url.PathEscape(id), nil, nil, nil)
	return err
}

// Result fetches the durable result of a finished job as raw JSON bytes
// (raw so callers can byte-compare against a reference run). An unfinished
// job returns ErrNotDone.
func (c *Client) Result(ctx context.Context, id string) ([]byte, error) {
	var data []byte
	status, err := c.call(ctx, http.MethodGet, "/jobs/"+url.PathEscape(id)+"/result", nil, nil, &data)
	if status == http.StatusConflict {
		return nil, fmt.Errorf("%w: %s", ErrNotDone, id)
	}
	return data, err
}

// Wait polls until the job reaches a terminal state (done, failed,
// canceled) or ctx expires. Transient polling errors are absorbed — under
// chaos the daemon may be mid-restart — and polling simply continues.
func (c *Client) Wait(ctx context.Context, id string, poll time.Duration) (daemon.JobView, error) {
	if poll <= 0 {
		poll = 200 * time.Millisecond
	}
	for {
		v, err := c.Job(ctx, id)
		if err == nil {
			switch v.State {
			case daemon.StateDone, daemon.StateFailed, daemon.StateCanceled:
				return v, nil
			}
		} else {
			var se *StatusError
			if errors.As(err, &se) && se.Status == http.StatusNotFound {
				// A 404 is not transient: the job is unknown (or its token
				// was swept after a crash window) — surface it.
				return daemon.JobView{}, err
			}
			if ctx.Err() != nil {
				return daemon.JobView{}, err
			}
		}
		if serr := c.cfg.sleep(ctx, poll); serr != nil {
			return daemon.JobView{}, fmt.Errorf("client: waiting for %s: %w", id, serr)
		}
	}
}

// Ready reports daemon readiness (GET /readyz): nil only when the daemon is
// accepting work.
func (c *Client) Ready(ctx context.Context) error {
	_, err := c.call(ctx, http.MethodGet, "/readyz", nil, nil, nil)
	return err
}
