package netfault

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net"
	"os"
	"testing"
	"time"

	"tecfan/internal/schedfile"
)

// echoServer accepts connections and echoes bytes back until closed.
func echoServer(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				_, _ = io.Copy(c, c)
			}()
		}
	}()
	t.Cleanup(func() { ln.Close() })
	return ln
}

func newProxy(t *testing.T, target string, sched Schedule) *Proxy {
	t.Helper()
	p, err := New("127.0.0.1:0", target, sched, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

// roundTrip sends msg through conn and reads len(msg) bytes back.
func roundTrip(t *testing.T, addr string, msg []byte, timeout time.Duration) ([]byte, error) {
	t.Helper()
	c, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	_ = c.SetDeadline(time.Now().Add(timeout))
	if _, err := c.Write(msg); err != nil {
		return nil, err
	}
	got := make([]byte, len(msg))
	if _, err := io.ReadFull(c, got); err != nil {
		return nil, err
	}
	return got, nil
}

func TestPassThrough(t *testing.T) {
	ln := echoServer(t)
	p := newProxy(t, ln.Addr().String(), Schedule{})
	msg := []byte("hello through the fault-free proxy")
	got, err := roundTrip(t, p.Addr(), msg, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("echo = %q, want %q", got, msg)
	}
}

func TestLatencyDelaysTraffic(t *testing.T) {
	ln := echoServer(t)
	const lat = 60 * time.Millisecond
	p := newProxy(t, ln.Addr().String(), Schedule{Base: Fault{Latency: schedfile.Duration(lat)}})
	start := time.Now()
	if _, err := roundTrip(t, p.Addr(), []byte("ping"), 5*time.Second); err != nil {
		t.Fatal(err)
	}
	// Request and response each cross the proxy once: >= 2x latency.
	if rtt := time.Since(start); rtt < 2*lat {
		t.Fatalf("round trip took %s, want >= %s", rtt, 2*lat)
	}
}

func TestDropBlackholesConnection(t *testing.T) {
	ln := echoServer(t)
	p := newProxy(t, ln.Addr().String(), Schedule{Base: Fault{Drop: 1}})
	_, err := roundTrip(t, p.Addr(), []byte("into the void"), 200*time.Millisecond)
	var nerr net.Error
	if !errors.As(err, &nerr) || !nerr.Timeout() {
		t.Fatalf("blackholed round trip = %v, want deadline timeout", err)
	}
}

func TestPartitionWindow(t *testing.T) {
	ln := echoServer(t)
	sched := Schedule{Windows: []Window{{From: 0, To: schedfile.Duration(300 * time.Millisecond), Partition: true}}}
	p := newProxy(t, ln.Addr().String(), sched)

	// Inside the window: connection is reset (or refused) immediately.
	if _, err := roundTrip(t, p.Addr(), []byte("x"), 150*time.Millisecond); err == nil {
		t.Fatal("round trip succeeded during partition")
	}
	// After the window closes traffic flows again.
	time.Sleep(350 * time.Millisecond)
	got, err := roundTrip(t, p.Addr(), []byte("after"), 2*time.Second)
	if err != nil {
		t.Fatalf("post-partition round trip: %v", err)
	}
	if string(got) != "after" {
		t.Fatalf("post-partition echo = %q", got)
	}
}

func TestResetSeversConnection(t *testing.T) {
	ln := echoServer(t)
	p := newProxy(t, ln.Addr().String(), Schedule{Base: Fault{Reset: 1}})
	// Reset fires after at most 4096 forwarded bytes; push more than that and
	// require a connection error rather than a clean echo.
	msg := bytes.Repeat([]byte("R"), 64<<10)
	if _, err := roundTrip(t, p.Addr(), msg, 2*time.Second); err == nil {
		t.Fatal("64 KiB round trip survived reset=1")
	}
}

func TestBandwidthCapPacesTransfer(t *testing.T) {
	ln := echoServer(t)
	// 64 KiB/s cap, 8 KiB payload: the echo path alone needs >= ~125 ms.
	p := newProxy(t, ln.Addr().String(), Schedule{Base: Fault{BandwidthBPS: 64 << 10}})
	msg := bytes.Repeat([]byte("b"), 8<<10)
	start := time.Now()
	got, err := roundTrip(t, p.Addr(), msg, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("capped transfer corrupted payload")
	}
	if el := time.Since(start); el < 100*time.Millisecond {
		t.Fatalf("8 KiB at 64 KiB/s took %s, want >= 100ms", el)
	}
}

func TestScheduleAt(t *testing.T) {
	sched := Schedule{
		Base:   Fault{Latency: schedfile.Duration(10 * time.Millisecond)},
		Period: schedfile.Duration(1 * time.Second),
		Windows: []Window{
			{From: schedfile.Duration(200 * time.Millisecond), To: schedfile.Duration(400 * time.Millisecond), Partition: true},
			{From: schedfile.Duration(500 * time.Millisecond), To: schedfile.Duration(700 * time.Millisecond),
				Fault: Fault{Drop: 0.5}},
		},
	}
	if err := sched.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		t    time.Duration
		drop float64
		part bool
	}{
		{0, 0, false},
		{250 * time.Millisecond, 0, true},
		{600 * time.Millisecond, 0.5, false},
		{900 * time.Millisecond, 0, false},
		{1250 * time.Millisecond, 0, true},    // wraps into the partition window
		{2600 * time.Millisecond, 0.5, false}, // wraps into the drop window
	}
	for _, c := range cases {
		f, part := sched.At(c.t)
		if part != c.part || f.Drop != c.drop {
			t.Errorf("At(%s) = drop %v partition %v, want drop %v partition %v",
				c.t, f.Drop, part, c.drop, c.part)
		}
	}
}

func TestScheduleValidate(t *testing.T) {
	bad := []Schedule{
		{Base: Fault{Drop: 1.5}},
		{Base: Fault{Reset: -0.1}},
		{Base: Fault{Latency: schedfile.Duration(-time.Second)}},
		{Base: Fault{BandwidthBPS: -1}},
		{Windows: []Window{{From: schedfile.Duration(time.Second), To: schedfile.Duration(time.Second)}}},
		{Period: schedfile.Duration(time.Second),
			Windows: []Window{{From: 0, To: schedfile.Duration(2 * time.Second)}}},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("schedule %d validated: %+v", i, s)
		}
	}
}

func TestParseScheduleJSON(t *testing.T) {
	data := []byte(`{
		"seed": 42,
		"base": {"latency": "20ms", "jitter": "10ms", "drop": 0.1},
		"period": "3s",
		"windows": [{"from": "1s", "to": "1500ms", "partition": true}]
	}`)
	s, err := parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if s.Seed != 42 || s.Base.Latency.Std() != 20*time.Millisecond || len(s.Windows) != 1 || !s.Windows[0].Partition {
		t.Fatalf("parsed schedule = %+v", s)
	}
	// Round-trips through MarshalJSON as duration strings.
	out, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(out, []byte(`"20ms"`)) {
		t.Fatalf("marshaled schedule lacks string durations: %s", out)
	}
	if _, err := parse([]byte(`{"base": {"drop": 2}}`)); err == nil {
		t.Fatal("invalid schedule parsed")
	}
	if _, err := parse([]byte(`{`)); err == nil {
		t.Fatal("truncated JSON parsed")
	}
}

// parse decodes a schedule through the strict loader every netfault
// schedule enters by.
func parse(data []byte) (Schedule, error) {
	var s Schedule
	err := schedfile.Parse("test", data, &s, func() error { return s.Validate() })
	return s, err
}

// TestDeterministicDecisions: two proxies with the same seed make the same
// per-connection drop decisions in accept order.
func TestDeterministicDecisions(t *testing.T) {
	decisions := func(seed int64) []bool {
		out := make([]bool, 32)
		for seq := int64(1); seq <= 32; seq++ {
			out[seq-1] = connRNG(seed, seq, 0).Float64() < 0.5
		}
		return out
	}
	a, b := decisions(42), decisions(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d differs for identical seeds", i)
		}
	}
	c := decisions(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical decision streams")
	}
}

func TestCloseSeversLiveConnections(t *testing.T) {
	ln := echoServer(t)
	p := newProxy(t, ln.Addr().String(), Schedule{})
	c, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Write([]byte("keepalive")); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	_ = c.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 64)
	for {
		if _, err := c.Read(buf); err != nil {
			if os.IsTimeout(err) {
				t.Fatal("connection survived proxy Close")
			}
			return // reset or EOF: severed as required
		}
	}
}
