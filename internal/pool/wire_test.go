package pool

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"
)

func TestDecodeHeartbeatValid(t *testing.T) {
	hb, err := DecodeHeartbeat([]byte(`{"worker":"w1","job_id":"j","shard_id":"s0","token":18446744073709551615}`))
	if err != nil {
		t.Fatal(err)
	}
	if hb.Token != ^uint64(0) {
		t.Fatalf("token = %d", hb.Token)
	}
}

func TestDecodeHeartbeatRejects(t *testing.T) {
	cases := []struct {
		name string
		in   string
		want error
	}{
		{"empty", ``, ErrWireSyntax},
		{"truncated", `{"worker":"w1","job_id":"j"`, ErrWireSyntax},
		{"trailing", `{"worker":"w","job_id":"j","shard_id":"s","token":1}{}`, ErrWireSyntax},
		{"unknown field", `{"worker":"w","job_id":"j","shard_id":"s","token":1,"x":1}`, ErrWireSyntax},
		{"negative token", `{"worker":"w","job_id":"j","shard_id":"s","token":-1}`, ErrWireSyntax},
		{"fractional token", `{"worker":"w","job_id":"j","shard_id":"s","token":1.5}`, ErrWireSyntax},
		{"overflow token", `{"worker":"w","job_id":"j","shard_id":"s","token":18446744073709551616}`, ErrWireSyntax},
		{"missing worker", `{"job_id":"j","shard_id":"s","token":1}`, ErrWireField},
		{"long id", `{"worker":"` + strings.Repeat("a", 200) + `","job_id":"j","shard_id":"s","token":1}`, ErrWireField},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := DecodeHeartbeat([]byte(tc.in)); !errors.Is(err, tc.want) {
				t.Fatalf("got %v, want %v", err, tc.want)
			}
		})
	}
	big := append([]byte(`{"worker":"`), bytes.Repeat([]byte("a"), MaxControlBytes)...)
	if _, err := DecodeHeartbeat(big); !errors.Is(err, ErrWireTooLarge) {
		t.Fatalf("oversized: %v", err)
	}
}

func TestDecodeClaimResponseRoundTrip(t *testing.T) {
	in := &ClaimResponse{
		JobID: "j", Token: 7, LeaseMS: 2000, Checkpoint: []byte("ck"),
		Shard: ShardSpec{ID: "chaos/TECfan/0", Kind: KindChaos, Bench: "fft", Threads: 4,
			Policy: "TECfan", Scenarios: []string{"a", "b"}},
	}
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeClaimResponse(data)
	if err != nil {
		t.Fatal(err)
	}
	if out.Shard.ID != in.Shard.ID || out.Token != 7 || string(out.Checkpoint) != "ck" {
		t.Fatalf("round trip: %+v", out)
	}
	in.Attempt = 2 // in-process only
	if data, _ := json.Marshal(in); bytes.Contains(data, []byte("attempt")) {
		t.Fatalf("attempt number on the wire: %s", data)
	}
	if _, err := DecodeClaimResponse([]byte(`{"job_id":"j","shard":{"id":"s"},"token":1,"lease_ms":0}`)); !errors.Is(err, ErrWireField) {
		t.Fatalf("zero lease: %v", err)
	}
}

func TestDecodeCompleteRejectsEmptyResult(t *testing.T) {
	if _, err := DecodeComplete([]byte(`{"worker":"w","job_id":"j","shard_id":"s","token":1,"result":""}`)); !errors.Is(err, ErrWireField) {
		t.Fatalf("empty result: %v", err)
	}
}

// TestDecodeCompleteFailureReport: a failed attempt travels as an error with
// no result. Both at once, or an error past its bound, is refused.
func TestDecodeCompleteFailureReport(t *testing.T) {
	data, err := json.Marshal(&CompleteRequest{Worker: "w", JobID: "j", ShardID: "s", Token: 3, Error: "pool: unknown shard kind"})
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(data, []byte(`"result"`)) {
		t.Fatalf("a failure report carries a result field: %s", data)
	}
	cr, err := DecodeComplete(data)
	if err != nil || cr.Error != "pool: unknown shard kind" || cr.Token != 3 || cr.Result != nil {
		t.Fatalf("failure report round trip: %+v %v", cr, err)
	}
	for name, msg := range map[string]string{
		"result and error": `{"worker":"w","job_id":"j","shard_id":"s","token":1,"result":"cg==","error":"boom"}`,
		"oversized error":  `{"worker":"w","job_id":"j","shard_id":"s","token":1,"error":"` + strings.Repeat("e", MaxErrorBytes+1) + `"}`,
	} {
		if _, err := DecodeComplete([]byte(msg)); !errors.Is(err, ErrWireField) {
			t.Errorf("%s: %v, want ErrWireField", name, err)
		}
	}
}

// FuzzDecodeComplete does the same for completions: any accepted message
// names its shard and carries exactly one of a result and a bounded error.
func FuzzDecodeComplete(f *testing.F) {
	f.Add([]byte(`{"worker":"w","job_id":"j","shard_id":"s","token":1,"result":"cg=="}`))
	f.Add([]byte(`{"worker":"w","job_id":"j","shard_id":"s","token":1,"error":"boom"}`))
	f.Add([]byte(`{"worker":"w","job_id":"j","shard_id":"s","token":1,"result":"cg==","error":"boom"}`))
	f.Add([]byte(`{"worker":"w","job_id":"j","shard_id":"s","token":1,"error":""}`))
	f.Add([]byte(`{"worker":"w","job_id":"j","shard_id":"s","token":1,"error":7}`))
	f.Add([]byte(`{"worker":"w","job_id":"j","shard_id":"s","token":-1,"error":"boom"}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		cr, err := DecodeComplete(data)
		if err != nil {
			return
		}
		if cr.Worker == "" || cr.JobID == "" || cr.ShardID == "" {
			t.Fatalf("accepted completion with empty id: %+v", cr)
		}
		if (cr.Error == "") == (len(cr.Result) == 0) || len(cr.Error) > MaxErrorBytes {
			t.Fatalf("accepted completion without exactly one bounded outcome: %+v", cr)
		}
	})
}

// FuzzDecodeHeartbeat hammers the control-message decoder: whatever the
// bytes, it must return cleanly — no panic — and any accepted message must
// satisfy the field invariants the coordinator relies on.
func FuzzDecodeHeartbeat(f *testing.F) {
	f.Add([]byte(`{"worker":"w1","job_id":"j","shard_id":"s0","token":1}`))
	f.Add([]byte(`{"worker":"w1","job_id":"j","shard_id":"s0","token":18446744073709551616}`))
	f.Add([]byte(`{"worker":"w1","job_id":"j","shard_id":"s0","token":-3}`))
	f.Add([]byte(`{"worker":"","job_id":"","shard_id":"","token":0}`))
	f.Add([]byte(`{"worker":"w1"`))
	f.Add([]byte(`null`))
	f.Add([]byte(`[]`))
	f.Fuzz(func(t *testing.T, data []byte) {
		hb, err := DecodeHeartbeat(data)
		if err != nil {
			return
		}
		if hb.Worker == "" || hb.JobID == "" || hb.ShardID == "" {
			t.Fatalf("accepted heartbeat with empty id: %+v", hb)
		}
		if len(hb.Worker) > 128 || len(hb.JobID) > 128 || len(hb.ShardID) > 128 {
			t.Fatalf("accepted oversized id: %+v", hb)
		}
	})
}

// FuzzDecodeClaimResponse does the same for the worker-side lease decoder —
// the message a hostile or corrupted coordinator could use to wedge a worker.
func FuzzDecodeClaimResponse(f *testing.F) {
	good, _ := json.Marshal(&ClaimResponse{
		JobID: "j", Token: 1, LeaseMS: 1000,
		Shard: ShardSpec{ID: "s", Kind: KindChaos, Scenarios: []string{"a"}},
	})
	f.Add(good)
	f.Add([]byte(`{"job_id":"j","shard":{"id":"s"},"token":18446744073709551616,"lease_ms":1}`))
	f.Add([]byte(`{"job_id":"j","shard":{},"token":1,"lease_ms":1}`))
	f.Add([]byte(`{"job_id":"j","shard":{"id":"s"},"token":1,"lease_ms":-5}`))
	f.Add([]byte(`{}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		cr, err := DecodeClaimResponse(data)
		if err != nil {
			return
		}
		if cr.JobID == "" || cr.Shard.ID == "" {
			t.Fatalf("accepted claim with empty id: %+v", cr)
		}
		if cr.LeaseMS <= 0 {
			t.Fatalf("accepted non-positive lease: %+v", cr)
		}
	})
}
