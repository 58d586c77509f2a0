// Package netfault is a seeded, schedule-driven chaos proxy for exercising
// the control plane under network failure. It sits between a client and a TCP
// server (the tecfand daemon, in the crucible's net-fault entries) and impairs
// traffic according to a Schedule: added latency with jitter, probabilistic
// connection blackholing, mid-stream connection resets, a bandwidth cap, and
// timed full-partition windows during which no connection survives.
//
// The proxy is usable two ways: in-process from tests (New on a 127.0.0.1:0
// listener, point the client at Addr) and standalone via cmd/tecfan-netchaos.
// All probabilistic decisions derive from the schedule's seed plus a
// per-connection sequence number, so a schedule's fault pattern is
// reproducible given the same connection order.
package netfault

import (
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"tecfan/internal/schedfile"
)

// Fault is the set of impairments active at an instant.
type Fault struct {
	// Latency is added to every forwarded chunk, each direction.
	Latency schedfile.Duration `json:"latency,omitempty"`
	// Jitter adds a uniform [0, Jitter) extra delay per chunk.
	Jitter schedfile.Duration `json:"jitter,omitempty"`
	// Drop is the probability a new connection is blackholed: accepted,
	// never forwarded, never answered — the client's deadline must save it.
	Drop float64 `json:"drop,omitempty"`
	// Reset is the probability a connection is RST-closed mid-stream after a
	// random number of forwarded bytes.
	Reset float64 `json:"reset,omitempty"`
	// BandwidthBPS caps forwarded bytes/second per direction (0 = unlimited).
	BandwidthBPS int64 `json:"bandwidth_bps,omitempty"`
}

func (f Fault) validate() error {
	if f.Latency < 0 || f.Jitter < 0 {
		return fmt.Errorf("netfault: latency/jitter must be non-negative")
	}
	if f.Drop < 0 || f.Drop > 1 {
		return fmt.Errorf("netfault: drop probability %v outside [0,1]", f.Drop)
	}
	if f.Reset < 0 || f.Reset > 1 {
		return fmt.Errorf("netfault: reset probability %v outside [0,1]", f.Reset)
	}
	if f.BandwidthBPS < 0 {
		return fmt.Errorf("netfault: bandwidth must be non-negative")
	}
	return nil
}

// Window overrides the base fault over [From, To) measured from proxy start
// (modulo Schedule.Period when set). A Partition window severs everything:
// new connections are reset at accept and established ones are reset at
// their next forwarded chunk.
type Window struct {
	From      schedfile.Duration `json:"from"`
	To        schedfile.Duration `json:"to"`
	Partition bool               `json:"partition,omitempty"`
	Fault     Fault              `json:"fault,omitempty"`
}

// Schedule drives the proxy: a seed for its probabilistic draws, a base
// fault, override windows, and an optional repeat period. With Period > 0
// the timeline wraps, so a short aggressive cycle (say a 500 ms partition
// every 3 s) runs for as long as the drill does.
type Schedule struct {
	Seed    int64              `json:"seed,omitempty"`
	Base    Fault              `json:"base"`
	Windows []Window           `json:"windows,omitempty"`
	Period  schedfile.Duration `json:"period,omitempty"`
}

// Validate rejects malformed schedules eagerly, before any traffic flows.
func (s Schedule) Validate() error {
	if err := s.Base.validate(); err != nil {
		return fmt.Errorf("base: %w", err)
	}
	if s.Period < 0 {
		return fmt.Errorf("netfault: period must be non-negative")
	}
	for i, w := range s.Windows {
		if w.From < 0 || w.To <= w.From {
			return fmt.Errorf("netfault: window %d: need 0 <= from < to, got [%s, %s)", i, w.From.Std(), w.To.Std())
		}
		if s.Period > 0 && w.To.Std() > s.Period.Std() {
			return fmt.Errorf("netfault: window %d ends at %s, past period %s", i, w.To.Std(), s.Period.Std())
		}
		if err := w.Fault.validate(); err != nil {
			return fmt.Errorf("window %d: %w", i, err)
		}
	}
	return nil
}

// At resolves the schedule at elapsed time t: the active fault and whether a
// partition is in force. Later windows win when windows overlap.
func (s Schedule) At(t time.Duration) (Fault, bool) {
	if s.Period > 0 {
		t %= s.Period.Std()
	}
	f, part := s.Base, false
	for _, w := range s.Windows {
		if t >= w.From.Std() && t < w.To.Std() {
			if w.Partition {
				part = true
			}
			f = w.Fault
		}
	}
	return f, part
}

// ParseScheduleFile loads and validates a schedule from a JSON file through
// the shared schedfile loader, so errors carry the file path and window index.
func ParseScheduleFile(path string) (Schedule, error) {
	var s Schedule
	// Validate has a value receiver, so bind it after decoding via a closure.
	if err := schedfile.Load(path, &s, func() error { return s.Validate() }); err != nil {
		return Schedule{}, err
	}
	return s, nil
}

// Proxy is a running chaos proxy.
type Proxy struct {
	target string
	sched  Schedule
	logf   func(format string, args ...any)
	now    func() time.Time // test seam

	ln    net.Listener
	start time.Time
	seq   atomic.Int64

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// New validates the schedule, starts listening on listenAddr (host:0 picks a
// free port — the in-process test pattern), and begins serving. logf
// receives per-connection fault decisions (nil: silent). Close stops it and
// severs every live connection.
func New(listenAddr, target string, sched Schedule, logf func(format string, args ...any)) (*Proxy, error) {
	if err := sched.Validate(); err != nil {
		return nil, err
	}
	if _, _, err := net.SplitHostPort(target); err != nil {
		return nil, fmt.Errorf("netfault: target %q: %w", target, err)
	}
	ln, err := net.Listen("tcp", listenAddr)
	if err != nil {
		return nil, fmt.Errorf("netfault: %w", err)
	}
	p := &Proxy{
		target: target,
		sched:  sched,
		logf:   logf,
		now:    time.Now,
		ln:     ln,
		start:  time.Now(),
		conns:  map[net.Conn]struct{}{},
	}
	if p.logf == nil {
		p.logf = func(string, ...any) {}
	}
	p.wg.Add(1)
	go p.serve()
	return p, nil
}

// Addr returns the proxy's listen address ("127.0.0.1:port").
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

// Close stops accepting, resets every live connection, and waits for the
// connection handlers to exit.
func (p *Proxy) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	for c := range p.conns {
		hardClose(c)
	}
	p.mu.Unlock()
	err := p.ln.Close()
	p.wg.Wait()
	return err
}

func (p *Proxy) elapsed() time.Duration { return p.now().Sub(p.start) }

func (p *Proxy) track(c net.Conn) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return false
	}
	p.conns[c] = struct{}{}
	return true
}

func (p *Proxy) untrack(c net.Conn) {
	p.mu.Lock()
	delete(p.conns, c)
	p.mu.Unlock()
}

func (p *Proxy) serve() {
	defer p.wg.Done()
	for {
		c, err := p.ln.Accept()
		if err != nil {
			return // listener closed
		}
		seq := p.seq.Add(1)
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			p.handle(c, seq)
		}()
	}
}

// hardClose resets a TCP connection (SetLinger 0 → RST) rather than closing
// it politely; the peer sees ECONNRESET, the failure mode the client's retry
// path must absorb.
func hardClose(c net.Conn) {
	if tc, ok := c.(*net.TCPConn); ok {
		_ = tc.SetLinger(0)
	}
	_ = c.Close()
}

// connRNG derives the per-connection random stream: decisions depend only on
// the base seed and the connection's accept sequence number.
func connRNG(seed, seq, salt int64) *rand.Rand {
	return rand.New(rand.NewSource(seed ^ (seq * 0x9E3779B97F4A7C) ^ (salt << 40)))
}

func (p *Proxy) handle(client net.Conn, seq int64) {
	if !p.track(client) {
		hardClose(client)
		return
	}
	defer p.untrack(client)
	defer client.Close()

	f, partitioned := p.sched.At(p.elapsed())
	if partitioned {
		p.logf("netfault: conn %d: partition active, resetting", seq)
		hardClose(client)
		return
	}
	rng := connRNG(p.sched.Seed, seq, 0)
	if rng.Float64() < f.Drop {
		p.logf("netfault: conn %d: blackholed", seq)
		p.blackhole(client)
		return
	}
	server, err := net.DialTimeout("tcp", p.target, 5*time.Second)
	if err != nil {
		p.logf("netfault: conn %d: target unreachable: %v", seq, err)
		hardClose(client)
		return
	}
	if !p.track(server) {
		hardClose(server)
		return
	}
	defer p.untrack(server)
	defer server.Close()

	// A reset, when drawn, fires after a random number of forwarded bytes so
	// it lands anywhere in the exchange: mid-request, mid-response, between.
	resetAfter := int64(-1)
	if rng.Float64() < f.Reset {
		resetAfter = 1 + rng.Int63n(4096)
		p.logf("netfault: conn %d: will reset after %d bytes", seq, resetAfter)
	}
	var forwarded atomic.Int64

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		p.pump(server, client, seq, connRNG(p.sched.Seed, seq, 1), resetAfter, &forwarded)
	}()
	go func() {
		defer wg.Done()
		p.pump(client, server, seq, connRNG(p.sched.Seed, seq, 2), resetAfter, &forwarded)
	}()
	wg.Wait()
}

// blackhole swallows a connection: reads are discarded, nothing is ever
// written back. The connection ends when the client gives up (its deadline)
// or the proxy closes.
func (p *Proxy) blackhole(client net.Conn) {
	_, _ = io.Copy(io.Discard, client)
}

// pump forwards src→dst chunk by chunk, re-resolving the schedule per chunk
// so latency changes, bandwidth caps, and partition windows apply to
// connections already in flight.
func (p *Proxy) pump(dst, src net.Conn, seq int64, rng *rand.Rand, resetAfter int64, forwarded *atomic.Int64) {
	buf := make([]byte, 16<<10)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			f, partitioned := p.sched.At(p.elapsed())
			if partitioned {
				p.logf("netfault: conn %d: partition cut mid-stream", seq)
				hardClose(src)
				hardClose(dst)
				return
			}
			total := forwarded.Add(int64(n))
			if resetAfter >= 0 && total >= resetAfter {
				p.logf("netfault: conn %d: reset after %d bytes", seq, total)
				hardClose(src)
				hardClose(dst)
				return
			}
			if d := chunkDelay(f, rng, n); d > 0 {
				time.Sleep(d)
			}
			if _, werr := dst.Write(buf[:n]); werr != nil {
				return
			}
		}
		if err != nil {
			// Half-close politely so the peer's read sees EOF; the other
			// pump direction keeps draining until its own EOF.
			if tc, ok := dst.(*net.TCPConn); ok {
				_ = tc.CloseWrite()
			}
			return
		}
	}
}

// chunkDelay is the per-chunk impairment delay: fixed latency, uniform
// jitter, and bandwidth pacing for the chunk's size.
func chunkDelay(f Fault, rng *rand.Rand, n int) time.Duration {
	d := f.Latency.Std()
	if j := f.Jitter.Std(); j > 0 {
		d += time.Duration(rng.Int63n(int64(j)))
	}
	if f.BandwidthBPS > 0 {
		d += time.Duration(int64(n) * int64(time.Second) / f.BandwidthBPS)
	}
	return d
}
