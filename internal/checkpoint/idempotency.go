package checkpoint

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"

	"tecfan/internal/diskfault"
)

// IdemStore is the daemon's durable idempotency table: client token → job
// id, persisted through the same checksummed envelope and atomic-rename
// discipline as job checkpoints, in the same state directory — so a retried
// job submission is deduplicated even across a daemon crash and restart.
//
// The table is tiny (two short strings per entry) and rewritten whole on
// every mutation; at the default cap of 4096 entries that is a <256 KiB
// atomic write on a path that only runs once per *new* job submission.
// Entries beyond the cap evict oldest-first: an idempotency token only needs
// to outlive its client's retry horizon, not the daemon's lifetime.
type IdemStore struct {
	fs   diskfault.FS
	path string
	max  int

	mu  sync.Mutex
	m   map[string]idemEntry
	seq uint64

	quarantined atomic.Int64
}

type idemEntry struct {
	JobID string `json:"job_id"`
	Seq   uint64 `json:"seq"`
}

// idemPayload is the JSON inside the envelope.
type idemPayload struct {
	Entries map[string]idemEntry `json:"entries"`
	Seq     uint64               `json:"seq"`
}

// DefaultIdemMaxEntries caps the table, evicting oldest-first beyond it,
// when OpenIdemStoreFS is given max <= 0. The daemon always uses it.
const DefaultIdemMaxEntries = 4096

// OpenIdemStoreFS loads the table at path through the seam; the file need
// not exist yet. An unreadable table (torn write that beat the atomic
// rename, version skew, bit rot) is quarantined to a unique "<path>.bad-N"
// name and replaced by an empty one: losing dedup state degrades a retry to
// at-most-one-duplicate-visible-as-409, never to a crash loop. Quarantine
// failures are logged and counted, never fatal — the corrupt file is left
// in place and the fresh table simply renames over it on the next persist.
func OpenIdemStoreFS(fsys diskfault.FS, path string, max int, logf func(string, ...any)) (*IdemStore, error) {
	if fsys == nil {
		fsys = diskfault.OS
	}
	if max <= 0 {
		max = DefaultIdemMaxEntries
	}
	if logf == nil {
		logf = func(string, ...any) {}
	}
	s := &IdemStore{fs: fsys, path: path, max: max, m: map[string]idemEntry{}}
	quarantine := func(cause error) {
		dst, qerr := Quarantine(fsys, path)
		if qerr != nil {
			logf("checkpoint: idempotency table %s unreadable (%v) and not quarantined: %v",
				path, cause, qerr)
			return
		}
		s.quarantined.Add(1)
		logf("checkpoint: quarantined idempotency table %s -> %s: %v", path, dst, cause)
	}
	payload, err := ReadFileFS(fsys, path)
	switch {
	case os.IsNotExist(err):
		return s, nil
	case err != nil:
		quarantine(err)
		return s, nil
	}
	var p idemPayload
	if jerr := json.Unmarshal(payload, &p); jerr != nil {
		quarantine(jerr)
		return s, nil
	}
	if p.Entries != nil {
		s.m = p.Entries
	}
	s.seq = p.Seq
	return s, nil
}

// Quarantined reports how many corrupt table files have been renamed aside.
func (s *IdemStore) Quarantined() int64 { return s.quarantined.Load() }

// Get returns the job id recorded for a token.
func (s *IdemStore) Get(token string) (string, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.m[token]
	return e.JobID, ok
}

// Put durably records token → job id. The write lands on disk before Put
// returns; a crash immediately after still dedups the retry.
func (s *IdemStore) Put(token, jobID string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seq++
	s.m[token] = idemEntry{JobID: jobID, Seq: s.seq}
	s.evictLocked()
	return s.persistLocked()
}

// Delete durably forgets a token (used to roll back a reservation whose
// submission was refused, and to sweep crash-window orphans at startup).
func (s *IdemStore) Delete(token string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.m[token]; !ok {
		return nil
	}
	delete(s.m, token)
	return s.persistLocked()
}

// All returns a copy of the token → job id table.
func (s *IdemStore) All() map[string]string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]string, len(s.m))
	for t, e := range s.m {
		out[t] = e.JobID
	}
	return out
}

// Len reports the number of live entries.
func (s *IdemStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.m)
}

func (s *IdemStore) evictLocked() {
	if len(s.m) <= s.max {
		return
	}
	type te struct {
		token string
		seq   uint64
	}
	all := make([]te, 0, len(s.m))
	for t, e := range s.m {
		all = append(all, te{t, e.Seq})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].seq < all[j].seq })
	for _, e := range all[:len(s.m)-s.max] {
		delete(s.m, e.token)
	}
}

func (s *IdemStore) persistLocked() error {
	payload, err := json.Marshal(idemPayload{Entries: s.m, Seq: s.seq})
	if err != nil {
		return fmt.Errorf("checkpoint: encoding idempotency table: %w", err)
	}
	return WriteFileFS(s.fs, s.path, payload)
}
