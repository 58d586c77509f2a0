package diskfault

import (
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"syscall"
)

// ErrCrashed is returned by every operation after a simulated power cut:
// the filesystem is dead until the process "reboots" (constructs a new FS).
var ErrCrashed = fmt.Errorf("diskfault: filesystem dead after simulated power cut")

// Options tunes a FaultFS beyond the schedule.
type Options struct {
	// Logf receives per-operation fault decisions (default: silent).
	Logf func(format string, args ...any)
	// OnCrash runs after a simulated power cut has rolled back all volatile
	// bytes — tecfand uses it to exit the process, completing the
	// power-failure illusion. Nil means the FS just goes dead (tests then
	// inspect what survived on the real disk).
	OnCrash func()
}

// FaultFS implements FS over the real filesystem while injecting the faults
// its Schedule prescribes. It maintains a shadow map of "durable images":
// for every path with volatile (not-yet-fsynced) changes, the content a real
// disk would still hold after a power cut. A crash (CrashAtOp or CrashNow)
// rolls every such path back to its durable image, so what the next process
// incarnation reads is exactly what a kernel that lost its page cache would
// serve.
type FaultFS struct {
	sched   Schedule
	logf    func(format string, args ...any)
	onCrash func()

	mu      sync.Mutex
	op      int64
	crashed bool
	shadow  map[string]shadowEntry
}

// shadowEntry is a path's durable image: the bytes an honest disk holds
// (or absent, for a file whose creation was never synced). content marks
// entries guarding unsynced file *data*, which a directory fsync must not
// commit — only a successful file Sync clears them.
type shadowEntry struct {
	data    []byte
	absent  bool
	content bool
}

// New validates the schedule and builds a FaultFS.
func New(sched Schedule, opts *Options) (*FaultFS, error) {
	if err := sched.Validate(); err != nil {
		return nil, err
	}
	f := &FaultFS{
		sched:  sched,
		logf:   func(string, ...any) {},
		shadow: map[string]shadowEntry{},
	}
	if opts != nil && opts.Logf != nil {
		f.logf = opts.Logf
	}
	if opts != nil {
		f.onCrash = opts.OnCrash
	}
	return f, nil
}

// Ops returns the global operation counter (for tests and drills).
func (f *FaultFS) Ops() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.op
}

// Crashed reports whether the simulated power cut has fired.
func (f *FaultFS) Crashed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.crashed
}

// CrashNow forces the power cut immediately, independent of CrashAtOp.
func (f *FaultFS) CrashNow() {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.crashed {
		f.crashLocked()
	}
}

// decision is the set of impairments drawn for one operation.
type decision struct {
	n         int64
	err       error
	tear      bool
	flipWrite bool
	flipRead  bool
	lieSync   bool
	rng       *rand.Rand
}

// opRNG derives the per-(operation, rule) random stream, so a schedule's
// fault pattern is reproducible given the same operation order.
func opRNG(seed, n, rule int64) *rand.Rand {
	return rand.New(rand.NewSource(seed ^ (n * 0x9E3779B97F4A7C) ^ (rule << 40)))
}

// step advances the operation counter, fires the power cut when due, and
// evaluates every matching rule. The first errno rule to fire wins; tear /
// flip / lie decisions accumulate alongside.
func (f *FaultFS) step(op Op, path string) (decision, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return decision{}, ErrCrashed
	}
	f.op++
	n := f.op
	if f.sched.CrashAtOp > 0 && n >= f.sched.CrashAtOp {
		f.crashLocked()
		return decision{}, ErrCrashed
	}
	d := decision{n: n}
	base := filepath.Base(path)
	for i, r := range f.sched.Rules {
		if !r.matches(op, base, n) {
			continue
		}
		rng := opRNG(f.sched.Seed, n, int64(i))
		prob := r.Prob
		if prob == 0 {
			prob = 1
		}
		if rng.Float64() >= prob {
			continue
		}
		switch r.Action {
		case ActENOSPC:
			f.logf("diskfault: op %d: injected ENOSPC on %s %s", n, op, path)
			return decision{}, fmt.Errorf("diskfault: injected ENOSPC on %s %s (op %d): %w", op, path, n, syscall.ENOSPC)
		case ActEIO:
			f.logf("diskfault: op %d: injected EIO on %s %s", n, op, path)
			return decision{}, fmt.Errorf("diskfault: injected EIO on %s %s (op %d): %w", op, path, n, syscall.EIO)
		case ActTear:
			d.tear = true
		case ActFlipWrite:
			d.flipWrite = true
		case ActFlipRead:
			d.flipRead = true
		case ActLieSync:
			d.lieSync = true
		}
		if d.rng == nil {
			d.rng = rng
		}
	}
	return d, nil
}

// ensureShadow captures path's current on-disk bytes as its durable image,
// unless an image is already held. content upgrades an existing name-only
// entry to a content entry (unsynced data now rides under that name).
func (f *FaultFS) ensureShadow(path string, content bool) {
	path = filepath.Clean(path)
	f.mu.Lock()
	defer f.mu.Unlock()
	if e, ok := f.shadow[path]; ok {
		if content && !e.content {
			e.content = true
			f.shadow[path] = e
		}
		return
	}
	data, err := os.ReadFile(path) //lint:tecfan-ignore lockedio -- the durable-image capture must be atomic with the shadow-map insert: unlocking first would let a concurrent write land and be captured as "durable"
	if err != nil {
		f.shadow[path] = shadowEntry{absent: true, content: content}
		return
	}
	f.shadow[path] = shadowEntry{data: data, content: content}
}

// crashLocked performs the power cut: every path with volatile changes is
// rolled back to its durable image, then the FS goes dead. Called with f.mu
// held.
func (f *FaultFS) crashLocked() {
	f.crashed = true
	for path, e := range f.shadow {
		if e.absent {
			_ = os.Remove(path)
		} else {
			_ = os.WriteFile(path, e.data, 0o644)
		}
	}
	f.logf("diskfault: POWER CUT at op %d: rolled back %d volatile path(s)", f.op, len(f.shadow))
	f.shadow = map[string]shadowEntry{}
	if f.onCrash != nil {
		f.onCrash()
	}
}

// --- FS implementation ----------------------------------------------------

func isWriteFlag(flag int) bool {
	return flag&(os.O_WRONLY|os.O_RDWR|os.O_CREATE|os.O_TRUNC|os.O_APPEND) != 0
}

func (f *FaultFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	op := OpOpen
	if isWriteFlag(flag) {
		op = OpCreate
	}
	if _, err := f.step(op, name); err != nil {
		return nil, err
	}
	if isWriteFlag(flag) {
		// O_TRUNC destroys content at open; the durable image must be taken
		// before the kernel sees the call.
		f.ensureShadow(name, true)
	}
	file, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, f: file, name: filepath.Clean(name)}, nil
}

func (f *FaultFS) Create(name string) (File, error) {
	if _, err := f.step(OpCreate, name); err != nil {
		return nil, err
	}
	f.ensureShadow(name, true)
	file, err := os.Create(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, f: file, name: filepath.Clean(name)}, nil
}

func (f *FaultFS) CreateTemp(dir, pattern string) (File, error) {
	if _, err := f.step(OpCreate, filepath.Join(dir, pattern)); err != nil {
		return nil, err
	}
	file, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	name := filepath.Clean(file.Name())
	f.mu.Lock()
	f.shadow[name] = shadowEntry{absent: true, content: true}
	f.mu.Unlock()
	return &faultFile{fs: f, f: file, name: name}, nil
}

func (f *FaultFS) Open(name string) (File, error) {
	if _, err := f.step(OpOpen, name); err != nil {
		return nil, err
	}
	file, err := os.Open(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, f: file, name: filepath.Clean(name)}, nil
}

func (f *FaultFS) ReadFile(name string) ([]byte, error) {
	d, err := f.step(OpRead, name)
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(name)
	if err != nil {
		return nil, err
	}
	if d.flipRead && len(data) > 0 {
		bit := d.rng.Intn(len(data) * 8)
		data[bit/8] ^= 1 << (bit % 8)
		f.logf("diskfault: op %d: flipped bit %d reading %s", d.n, bit, name)
	}
	return data, nil
}

// Rename is matched against the destination's base name: schedules target
// the state file a rename lands on, not the scratch name it came from.
func (f *FaultFS) Rename(oldpath, newpath string) error {
	if _, err := f.step(OpRename, newpath); err != nil {
		return err
	}
	oldpath, newpath = filepath.Clean(oldpath), filepath.Clean(newpath)
	f.ensureShadow(oldpath, false)
	f.ensureShadow(newpath, false)
	f.mu.Lock()
	oldVolatile := f.shadow[oldpath].content
	f.mu.Unlock()
	if err := os.Rename(oldpath, newpath); err != nil {
		return err
	}
	f.mu.Lock()
	// The inode now at newpath is the one that moved in: its content is
	// volatile iff the source's was. The flag must be overwritten, not merely
	// upgraded — inheriting a content taint from the *replaced* inode would
	// keep newpath volatile forever (no one ever fsyncs the destination file
	// itself), and every later honest sync+rename would still roll back.
	if e, ok := f.shadow[newpath]; ok && e.content != oldVolatile {
		e.content = oldVolatile
		f.shadow[newpath] = e
	}
	// The source entry now guards only the pending name-change (the file is
	// gone from oldpath); any unsynced bytes ride under newpath from here on.
	if e, ok := f.shadow[oldpath]; ok && e.content {
		e.content = false
		f.shadow[oldpath] = e
	}
	f.mu.Unlock()
	return nil
}

func (f *FaultFS) Remove(name string) error {
	if _, err := f.step(OpRemove, name); err != nil {
		return err
	}
	f.ensureShadow(name, false)
	return os.Remove(name)
}

func (f *FaultFS) ReadDir(name string) ([]fs.DirEntry, error) {
	if _, err := f.step(OpReaddir, name); err != nil {
		return nil, err
	}
	return os.ReadDir(name)
}

func (f *FaultFS) Stat(name string) (fs.FileInfo, error) {
	if _, err := f.step(OpStat, name); err != nil {
		return nil, err
	}
	return os.Stat(name)
}

func (f *FaultFS) MkdirAll(path string, perm os.FileMode) error {
	if _, err := f.step(OpMkdir, path); err != nil {
		return err
	}
	return os.MkdirAll(path, perm)
}

// SyncDir makes renames and removes inside dir durable — unless a lie_sync
// rule swallows it. Entries guarding unsynced file content survive even an
// honest directory sync: fsync(dir) commits names, not bytes.
func (f *FaultFS) SyncDir(dir string) error {
	d, err := f.step(OpSync, dir)
	if err != nil {
		return err
	}
	if d.lieSync {
		f.logf("diskfault: op %d: lied about dir sync of %s", d.n, dir)
		return nil
	}
	if err := OS.SyncDir(dir); err != nil {
		return err
	}
	dir = filepath.Clean(dir)
	f.mu.Lock()
	for path, e := range f.shadow {
		if !e.content && filepath.Dir(path) == dir {
			delete(f.shadow, path)
		}
	}
	f.mu.Unlock()
	return nil
}

// --- File implementation --------------------------------------------------

type faultFile struct {
	fs   *FaultFS
	f    *os.File
	name string
}

func (ff *faultFile) Name() string { return ff.name }

func (ff *faultFile) Read(p []byte) (int, error) {
	d, err := ff.fs.step(OpRead, ff.name)
	if err != nil {
		return 0, err
	}
	n, rerr := ff.f.Read(p)
	if d.flipRead && n > 0 {
		bit := d.rng.Intn(n * 8)
		p[bit/8] ^= 1 << (bit % 8)
		ff.fs.logf("diskfault: op %d: flipped bit %d reading %s", d.n, bit, ff.name)
	}
	return n, rerr
}

func (ff *faultFile) Write(p []byte) (int, error) {
	d, err := ff.fs.step(OpWrite, ff.name)
	if err != nil {
		return 0, err
	}
	// The durable image may have been cleared by a mid-stream Sync; anything
	// written after it is volatile again.
	ff.fs.ensureShadow(ff.name, true)
	if d.tear {
		k := 0
		if len(p) > 0 {
			k = d.rng.Intn(len(p))
		}
		n, _ := ff.f.Write(p[:k])
		ff.fs.logf("diskfault: op %d: tore write to %s at byte %d/%d", d.n, ff.name, k, len(p))
		return n, fmt.Errorf("diskfault: torn write to %s after %d/%d bytes (op %d): %w",
			ff.name, k, len(p), d.n, syscall.EIO)
	}
	if d.flipWrite && len(p) > 0 {
		q := append([]byte(nil), p...)
		bit := d.rng.Intn(len(q) * 8)
		q[bit/8] ^= 1 << (bit % 8)
		ff.fs.logf("diskfault: op %d: silently flipped bit %d writing %s", d.n, bit, ff.name)
		return ff.f.Write(q)
	}
	return ff.f.Write(p)
}

func (ff *faultFile) Sync() error {
	d, err := ff.fs.step(OpSync, ff.name)
	if err != nil {
		return err
	}
	if d.lieSync {
		ff.fs.logf("diskfault: op %d: lied about sync of %s", d.n, ff.name)
		return nil
	}
	if err := ff.f.Sync(); err != nil {
		return err
	}
	ff.fs.mu.Lock()
	delete(ff.fs.shadow, ff.name)
	ff.fs.mu.Unlock()
	return nil
}

func (ff *faultFile) Close() error { return ff.f.Close() }
