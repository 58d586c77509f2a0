package checkpoint

import (
	"errors"
	"fmt"
	"io/fs"
	"sync"
	"sync/atomic"

	"tecfan/internal/diskfault"
)

// ErrNoGeneration means every generation of a checkpoint — head and rotated
// copies alike — is missing or fails verification. Callers treat it like a
// missing checkpoint: start the job from scratch, never guess at state.
var ErrNoGeneration = errors.New("checkpoint: no verifiable generation")

// Quarantine renames path aside to a unique "<path>.bad-N" name so the
// corrupt bytes survive for post-mortem without shadowing a live file or
// clobbering evidence from an earlier incident. It returns the chosen name.
func Quarantine(fsys diskfault.FS, path string) (string, error) {
	for n := 1; ; n++ {
		dst := fmt.Sprintf("%s.bad-%d", path, n)
		if _, err := fsys.Stat(dst); err == nil {
			continue // taken by a previous quarantine
		} else if !errors.Is(err, fs.ErrNotExist) {
			return "", fmt.Errorf("checkpoint: probing quarantine name %s: %w", dst, err)
		}
		if err := fsys.Rename(path, dst); err != nil {
			return "", fmt.Errorf("checkpoint: quarantining %s: %w", path, err)
		}
		return dst, nil
	}
}

// GenStore keeps the last Keep generations of one checkpoint file: the head
// at path and rotated copies at path.g1 (newest) through path.g(Keep-1)
// (oldest). Writes rotate then land atomically on the head; reads fall back
// from a corrupt or truncated head to the newest generation that still
// verifies, quarantining what failed. Scrub re-verifies every generation in
// place and repairs the corrupt ones from the newest good copy.
//
// GenStore is safe for concurrent use. Write, Read, Scrub and RemoveAll take
// the store's own mutex, so a scrub repair never lands in the middle of a
// rotation, while stores of different checkpoints never wait on each other.
type GenStore struct {
	fs   diskfault.FS
	path string
	keep int
	logf func(format string, args ...any)

	mu sync.Mutex // serializes the generation chain's file operations

	quarantined atomic.Int64
}

// DefaultKeepGenerations is the generation count used when NewGenStore is
// given keep <= 0: the head plus two fallbacks. One fallback covers a single
// corrupted write; the second survives "head corrupt, then crash during the
// repair of g1".
const DefaultKeepGenerations = 3

// NewGenStore wraps path as a generational checkpoint. keep counts the head
// itself; keep=1 disables rotation entirely.
func NewGenStore(fsys diskfault.FS, path string, keep int, logf func(string, ...any)) *GenStore {
	if fsys == nil {
		fsys = diskfault.OS
	}
	if keep <= 0 {
		keep = DefaultKeepGenerations
	}
	if logf == nil {
		logf = func(string, ...any) {}
	}
	return &GenStore{fs: fsys, path: path, keep: keep, logf: logf}
}

// Path returns the head path.
func (g *GenStore) Path() string { return g.path }

// Quarantined reports how many corrupt files this store has renamed aside.
func (g *GenStore) Quarantined() int64 { return g.quarantined.Load() }

// genPath returns the path of generation i (0 = head).
func (g *GenStore) genPath(i int) string {
	if i == 0 {
		return g.path
	}
	return fmt.Sprintf("%s.g%d", g.path, i)
}

// Paths returns every generation path, newest first.
func (g *GenStore) Paths() []string {
	out := make([]string, g.keep)
	for i := range out {
		out[i] = g.genPath(i)
	}
	return out
}

// Write persists a new snapshot: the current head is rotated to .g1 (older
// generations shifting down, the oldest dropped), then the payload lands on
// the head via the atomic envelope write. A corrupt head is quarantined
// instead of rotated, so corruption never cycles through the generation
// chain. The moment with no head on disk is harmless: Read falls back to
// .g1, which holds exactly the bytes the head held.
func (g *GenStore) Write(payload []byte) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.rotate()
	return WriteFileFS(g.fs, g.path, payload)
}

// rotate shifts generations down by one slot. Rotation is best-effort: if a
// rename fails the write still proceeds — a stale or missing fallback is
// strictly better than refusing to persist fresh state.
func (g *GenStore) rotate() {
	if g.keep <= 1 {
		return
	}
	if _, err := ReadFileFS(g.fs, g.path); err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return // nothing to rotate
		}
		// The head exists but does not verify: quarantine it rather than
		// promoting corruption into the fallback chain.
		g.quarantineGen(0, err)
		return
	}
	// Drop the oldest, then shift .g(k) → .g(k+1), head → .g1.
	_ = g.fs.Remove(g.genPath(g.keep - 1))
	for i := g.keep - 2; i >= 0; i-- {
		if _, err := g.fs.Stat(g.genPath(i)); err != nil {
			continue
		}
		if err := g.fs.Rename(g.genPath(i), g.genPath(i+1)); err != nil {
			g.logf("checkpoint: rotating %s: %v", g.genPath(i), err)
		}
	}
}

// Read returns the newest verifiable snapshot, falling back through the
// generations. A generation that exists but fails verification is
// quarantined and logged, and the next one is tried. The error is
// fs.ErrNotExist when no generation exists at all, ErrNoGeneration when
// files existed but none verified.
func (g *GenStore) Read() ([]byte, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	sawAny := false
	for i := 0; i < g.keep; i++ {
		payload, err := ReadFileFS(g.fs, g.genPath(i))
		if err == nil {
			if i > 0 {
				g.logf("checkpoint: %s: head unreadable, resumed from generation %d (%s)",
					g.path, i, g.genPath(i))
			}
			return payload, nil
		}
		if errors.Is(err, fs.ErrNotExist) {
			continue
		}
		sawAny = true
		g.quarantineGen(i, err)
	}
	if sawAny {
		return nil, fmt.Errorf("%w: %s", ErrNoGeneration, g.path)
	}
	return nil, &fs.PathError{Op: "open", Path: g.path, Err: fs.ErrNotExist}
}

// quarantineGen renames generation i aside and counts it. I/O errors during
// the rename (the disk may be the thing that is broken) are logged, not
// fatal: the corrupt file is simply left in place and will fail again.
func (g *GenStore) quarantineGen(i int, cause error) {
	path := g.genPath(i)
	dst, qerr := Quarantine(g.fs, path)
	if qerr != nil {
		g.logf("checkpoint: %s failed verification (%v) and could not be quarantined: %v",
			path, cause, qerr)
		return
	}
	g.quarantined.Add(1)
	g.logf("checkpoint: quarantined %s -> %s: %v", path, dst, cause)
}

// Scrub re-verifies every generation and repairs the broken ones by
// re-copying the newest good snapshot over them (quarantining the corrupt
// bytes first). It returns how many generations were repaired. With no good
// generation left nothing can be repaired; corrupt files are still
// quarantined so the next read fails fast and clean.
func (g *GenStore) Scrub() (repaired int, err error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	type state struct {
		payload []byte
		bad     bool
	}
	states := make([]state, g.keep)
	var newest []byte
	for i := 0; i < g.keep; i++ {
		payload, rerr := ReadFileFS(g.fs, g.genPath(i))
		switch {
		case rerr == nil:
			states[i].payload = payload
			if newest == nil {
				newest = payload
			}
		case errors.Is(rerr, fs.ErrNotExist):
			// Absent slots are normal (young store, dropped oldest).
		default:
			states[i].bad = true
			g.quarantineGen(i, rerr)
		}
	}
	if newest == nil {
		return 0, nil
	}
	for i, st := range states {
		if !st.bad {
			continue
		}
		if werr := WriteFileFS(g.fs, g.genPath(i), newest); werr != nil {
			g.logf("checkpoint: scrub could not repair %s: %v", g.genPath(i), werr)
			if err == nil {
				err = werr
			}
			continue
		}
		repaired++
		g.logf("checkpoint: scrub repaired %s from newest good generation", g.genPath(i))
	}
	return repaired, err
}

// RemoveAll deletes every generation (job finished, checkpoint obsolete).
// Quarantined .bad-N files are deliberately left for post-mortem.
func (g *GenStore) RemoveAll() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	var first error
	for i := 0; i < g.keep; i++ {
		if err := g.fs.Remove(g.genPath(i)); err != nil && !errors.Is(err, fs.ErrNotExist) {
			if first == nil {
				first = err
			}
		}
	}
	return first
}
