package daemon

import (
	"fmt"
	"regexp"

	"tecfan/internal/checkpoint"
	"tecfan/internal/diskfault"
)

// ErrStorageDegraded is returned for submissions while the daemon is in
// ENOSPC degraded mode: accepting a job whose spec cannot be persisted would
// silently drop the exactly-once guarantee, so new work is shed instead.
var ErrStorageDegraded = fmt.Errorf("daemon: storage degraded (out of space)")

// ckptFileRe picks checkpoint files — the head "<id>.ckpt" and rotated
// generations "<id>.ckpt.gN" — out of a state-dir listing, capturing the job
// id. Quarantined ".bad-N" files and in-flight ".tmp*" files do not match.
var ckptFileRe = regexp.MustCompile(`^(.+)\.ckpt(\.g[0-9]+)?$`)

// gens returns (creating on first use) the generational checkpoint store for
// a job. Stores are cached so quarantine counters survive across calls.
func (s *Server) gens(id string) *checkpoint.GenStore {
	s.mu.Lock()
	defer s.mu.Unlock()
	g, ok := s.genStores[id]
	if !ok {
		g = checkpoint.NewGenStore(s.cfg.FS, s.ckptPath(id), s.cfg.CheckpointKeep, s.cfg.Logf)
		s.genStores[id] = g
	}
	return g
}

// dropGens forgets a finished job's store after its files are removed.
func (s *Server) dropGens(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if g, ok := s.genStores[id]; ok {
		s.quarantinedRetired.Add(g.Quarantined())
		delete(s.genStores, id)
	}
}

// quarantinedTotal sums quarantines across every live store, retired
// stores, and the idempotency table.
func (s *Server) quarantinedTotal() int64 {
	s.mu.Lock()
	n := s.quarantinedRetired.Load()
	for _, g := range s.genStores {
		n += g.Quarantined()
	}
	s.mu.Unlock()
	return n + s.idem.Quarantined()
}

// noteStorageError inspects a state-write failure and flips the daemon into
// degraded mode on ENOSPC. Other errors are the caller's problem (EIO on one
// file does not mean the disk is full).
func (s *Server) noteStorageError(err error) {
	if err == nil || !diskfault.IsNoSpace(err) {
		return
	}
	if s.degraded.CompareAndSwap(false, true) {
		s.cfg.Logf("daemon: state dir out of space: entering degraded mode " +
			"(shedding new submissions, skipping checkpoints, reads still served)")
	}
}

// StorageDegraded reports whether the daemon is currently shedding work
// because the state dir has no space.
func (s *Server) StorageDegraded() bool { return s.degraded.Load() }

// storageProbe is the degraded-mode recovery loop: while degraded, it
// periodically test-writes the state dir and leaves degraded mode the moment
// a probe lands — space came back (operator deleted files, quota raised).
func (s *Server) storageProbe() {
	defer s.wg.Done()
	t := s.cfg.Clock.NewTicker(s.cfg.StorageProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-s.rootCtx.Done():
			return
		case <-t.C():
		}
		if !s.degraded.Load() {
			continue
		}
		if err := s.stateDirWritable(); err != nil {
			continue // still full (or newly broken); stay degraded
		}
		if s.degraded.CompareAndSwap(true, false) {
			s.cfg.Logf("daemon: state dir writable again: leaving degraded mode")
		}
	}
}

// scrubber periodically re-verifies every checkpoint generation on disk and
// repairs corrupt ones from the newest good copy — bit rot is found while
// the fallback chain still has redundancy, not at resume time when it is
// the only copy left.
func (s *Server) scrubber() {
	defer s.wg.Done()
	t := s.cfg.Clock.NewTicker(s.cfg.ScrubInterval)
	defer t.Stop()
	for {
		select {
		case <-s.rootCtx.Done():
			return
		case <-t.C():
		}
		s.ScrubNow()
	}
}

// ScrubNow runs one scrub pass over every checkpoint store the daemon holds,
// returning how many generations were repaired. It never creates a store:
// a job that finishes mid-pass has dropped its store and removed its files,
// and a checkpoint file no job owns is not the scrubber's to repair.
// Degraded mode skips the pass: repairs are writes, and writes are what is
// failing.
func (s *Server) ScrubNow() int {
	if s.degraded.Load() {
		return 0
	}
	s.mu.Lock()
	stores := make([]*checkpoint.GenStore, 0, len(s.genStores))
	for _, g := range s.genStores {
		stores = append(stores, g)
	}
	s.mu.Unlock()
	total := 0
	for _, g := range stores {
		n, serr := g.Scrub()
		total += n
		if serr != nil {
			s.noteStorageError(serr)
		}
	}
	s.scrubPasses.Add(1)
	if total > 0 {
		s.scrubRepairs.Add(int64(total))
		s.cfg.Logf("daemon: scrub pass repaired %d checkpoint generation(s)", total)
	}
	return total
}

// StorageStats is the /storage payload: the observability surface for the
// storage-robustness machinery.
type StorageStats struct {
	Degraded           bool  `json:"degraded"`
	SkippedCheckpoints int64 `json:"skipped_checkpoints"`
	Quarantined        int64 `json:"quarantined"`
	ScrubPasses        int64 `json:"scrub_passes"`
	ScrubRepairs       int64 `json:"scrub_repairs"`
	CheckpointKeep     int   `json:"checkpoint_keep"`
}

// StorageStats returns a snapshot of the storage counters.
func (s *Server) StorageStats() StorageStats {
	return StorageStats{
		Degraded:           s.degraded.Load(),
		SkippedCheckpoints: s.skippedWrites.Load(),
		Quarantined:        s.quarantinedTotal(),
		ScrubPasses:        s.scrubPasses.Load(),
		ScrubRepairs:       s.scrubRepairs.Load(),
		CheckpointKeep:     s.cfg.CheckpointKeep,
	}
}
