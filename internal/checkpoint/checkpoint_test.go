package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"tecfan/internal/diskfault"
)

func TestRoundTrip(t *testing.T) {
	for _, payload := range [][]byte{nil, {}, []byte("x"), bytes.Repeat([]byte{0xA5}, 10_000)} {
		data, err := Encode(payload)
		if err != nil {
			t.Fatalf("Encode: %v", err)
		}
		got, err := Decode(data)
		if err != nil {
			t.Fatalf("Decode: %v", err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("round trip mismatch: %d bytes in, %d out", len(payload), len(got))
		}
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	base, err := Encode([]byte("the payload under test"))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		mutate  func([]byte) []byte
		wantErr error
	}{
		{"empty", func(d []byte) []byte { return nil }, ErrTruncated},
		{"short header", func(d []byte) []byte { return d[:10] }, ErrTruncated},
		{"truncated payload", func(d []byte) []byte { return d[:len(d)-5] }, ErrTruncated},
		{"bad magic", func(d []byte) []byte { d[0] ^= 0xFF; return d }, ErrBadMagic},
		{"version skew", func(d []byte) []byte {
			binary.BigEndian.PutUint32(d[8:12], Version+1)
			return d
		}, ErrBadVersion},
		{"absurd length", func(d []byte) []byte {
			binary.BigEndian.PutUint32(d[12:16], MaxPayload+1)
			return d
		}, ErrTooLarge},
		{"flipped payload bit", func(d []byte) []byte { d[len(d)-1] ^= 1; return d }, ErrChecksum},
		{"flipped checksum bit", func(d []byte) []byte { d[20] ^= 1; return d }, ErrChecksum},
		{"trailing garbage", func(d []byte) []byte { return append(d, 0) }, ErrTrailingGap},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data := tc.mutate(append([]byte(nil), base...))
			if _, err := Decode(data); !errors.Is(err, tc.wantErr) {
				t.Fatalf("Decode error = %v, want %v", err, tc.wantErr)
			}
		})
	}
}

func TestEncodeRejectsOversize(t *testing.T) {
	if _, err := Encode(make([]byte, MaxPayload+1)); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("Encode oversize error = %v, want %v", err, ErrTooLarge)
	}
}

func TestWriteReadFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.ckpt")
	payload := []byte("durable state")
	if err := WriteFileFS(diskfault.OS, path, payload); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	got, err := ReadFileFS(diskfault.OS, path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("ReadFile = %q, want %q", got, payload)
	}
	// Overwrite is atomic: the new content fully replaces the old.
	if err := WriteFileFS(diskfault.OS, path, []byte("v2")); err != nil {
		t.Fatalf("WriteFile overwrite: %v", err)
	}
	if got, err = ReadFileFS(diskfault.OS, path); err != nil || string(got) != "v2" {
		t.Fatalf("ReadFile after overwrite = %q, %v", got, err)
	}
	// No temporary files left behind.
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory has %d entries after atomic writes, want 1", len(entries))
	}
}

func TestReadFileRejectsTorn(t *testing.T) {
	path := filepath.Join(t.TempDir(), "torn.ckpt")
	data, err := Encode([]byte("about to be torn"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFileFS(diskfault.OS, path); !errors.Is(err, ErrTruncated) {
		t.Fatalf("ReadFile torn error = %v, want %v", err, ErrTruncated)
	}
}

// FuzzDecode asserts the decoder's hard invariant: arbitrary input must
// produce either a valid payload or a typed error — never a panic — and any
// accepted payload must re-encode to the identical envelope.
func FuzzDecode(f *testing.F) {
	good, _ := Encode([]byte("seed payload"))
	f.Add(good)
	f.Add([]byte{})
	f.Add([]byte("TECFCKPT"))
	f.Add(good[:20])
	long, _ := Encode(bytes.Repeat([]byte{7}, 4096))
	f.Add(long)
	f.Fuzz(func(t *testing.T, data []byte) {
		payload, err := Decode(data)
		if err != nil {
			return
		}
		re, err := Encode(payload)
		if err != nil {
			t.Fatalf("accepted payload fails to re-encode: %v", err)
		}
		if !bytes.Equal(re, data) {
			t.Fatalf("decode/encode not a fixpoint for accepted input")
		}
	})
}
