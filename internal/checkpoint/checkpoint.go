// Package checkpoint provides the on-disk envelope the control-plane daemon
// persists run state through: a small, versioned, length-framed, checksummed
// container around an opaque payload, written atomically.
//
// The envelope guards against every mundane way a crash corrupts a file —
// truncation mid-write, a stale format after an upgrade, bit rot — by
// refusing, with a typed error, to decode anything that does not verify.
// The daemon treats an unreadable checkpoint as "start the job from
// scratch", never as a crash.
//
// Layout (all integers big-endian):
//
//	offset size  field
//	0      8     magic "TECFCKPT"
//	8      4     format version
//	12     4     payload length n
//	16     32    SHA-256 over payload
//	48     n     payload
//
// The payload encoding is the caller's business (the daemon uses gob); this
// package only guarantees that Decode returns exactly the bytes Encode was
// given, or an error.
package checkpoint

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"path/filepath"

	"tecfan/internal/diskfault"
)

// Version is the current envelope format version. Decode rejects any other
// value: state layouts change between releases, and silently gob-decoding an
// old layout into new structs corrupts the resumed run much later.
const Version = 1

// magic marks envelope files; 8 bytes so a glance at a hexdump identifies
// them.
var magic = [8]byte{'T', 'E', 'C', 'F', 'C', 'K', 'P', 'T'}

const headerSize = 8 + 4 + 4 + sha256.Size

// MaxPayload bounds a payload a decoder will accept (64 MiB). A corrupt
// length field must not make a reader allocate unbounded memory.
const MaxPayload = 64 << 20

// Typed decode failures, distinguishable with errors.Is.
var (
	ErrBadMagic    = errors.New("checkpoint: bad magic")
	ErrBadVersion  = errors.New("checkpoint: unsupported version")
	ErrTruncated   = errors.New("checkpoint: truncated")
	ErrChecksum    = errors.New("checkpoint: checksum mismatch")
	ErrTooLarge    = errors.New("checkpoint: payload too large")
	ErrTrailingGap = errors.New("checkpoint: trailing garbage")
)

// Encode wraps a payload in the envelope.
func Encode(payload []byte) ([]byte, error) {
	if len(payload) > MaxPayload {
		return nil, fmt.Errorf("%w: %d bytes (max %d)", ErrTooLarge, len(payload), MaxPayload)
	}
	out := make([]byte, headerSize+len(payload))
	copy(out[0:8], magic[:])
	binary.BigEndian.PutUint32(out[8:12], Version)
	binary.BigEndian.PutUint32(out[12:16], uint32(len(payload)))
	sum := sha256.Sum256(payload)
	copy(out[16:16+sha256.Size], sum[:])
	copy(out[headerSize:], payload)
	return out, nil
}

// Decode verifies an envelope and returns its payload (a fresh copy). Every
// malformed input — short, wrong magic, version-skewed, length-lying,
// bit-flipped — returns a typed error; Decode never panics.
func Decode(data []byte) ([]byte, error) {
	if len(data) < headerSize {
		return nil, fmt.Errorf("%w: %d bytes, header needs %d", ErrTruncated, len(data), headerSize)
	}
	if !bytes.Equal(data[0:8], magic[:]) {
		return nil, ErrBadMagic
	}
	if v := binary.BigEndian.Uint32(data[8:12]); v != Version {
		return nil, fmt.Errorf("%w: %d (want %d)", ErrBadVersion, v, Version)
	}
	n := binary.BigEndian.Uint32(data[12:16])
	if n > MaxPayload {
		return nil, fmt.Errorf("%w: header claims %d bytes (max %d)", ErrTooLarge, n, MaxPayload)
	}
	if uint64(len(data)) < headerSize+uint64(n) {
		return nil, fmt.Errorf("%w: header claims %d payload bytes, %d present",
			ErrTruncated, n, len(data)-headerSize)
	}
	if uint64(len(data)) > headerSize+uint64(n) {
		return nil, fmt.Errorf("%w: %d bytes past the declared payload",
			ErrTrailingGap, uint64(len(data))-headerSize-uint64(n))
	}
	payload := data[headerSize : headerSize+int(n)]
	sum := sha256.Sum256(payload)
	if !bytes.Equal(sum[:], data[16:16+sha256.Size]) {
		return nil, ErrChecksum
	}
	return append([]byte(nil), payload...), nil
}

// WriteFileFS atomically persists an enveloped payload through the given
// filesystem seam: write to a temporary file in the same directory, fsync,
// rename over the destination, fsync the directory. A crash at any point
// leaves either the old file or the new one, never a torn mix. (A lying
// fsync — simulated by diskfault, delivered by some real drives — can still
// void that guarantee; generation fallback and the scrubber exist for the
// corruption that slips through.)
func WriteFileFS(fsys diskfault.FS, path string, payload []byte) error {
	data, err := Encode(payload)
	if err != nil {
		return err
	}
	dir := filepath.Dir(path)
	tmp, err := fsys.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	tmpName := tmp.Name()
	defer fsys.Remove(tmpName) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("checkpoint: writing %s: %w", tmpName, err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("checkpoint: syncing %s: %w", tmpName, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("checkpoint: closing %s: %w", tmpName, err)
	}
	if err := fsys.Rename(tmpName, path); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	// Directory fsync makes the rename itself durable; best effort on
	// filesystems that refuse it.
	_ = fsys.SyncDir(dir)
	return nil
}

// ReadFileFS loads and verifies an enveloped file through the seam,
// returning the payload.
func ReadFileFS(fsys diskfault.FS, path string) ([]byte, error) {
	fi, err := fsys.Stat(path)
	if err != nil {
		return nil, err
	}
	if fi.Size() > headerSize+MaxPayload {
		return nil, fmt.Errorf("%w: file is %d bytes", ErrTooLarge, fi.Size())
	}
	data, err := fsys.ReadFile(path)
	if err != nil {
		return nil, err
	}
	payload, err := Decode(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return payload, nil
}
