package diskfault

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"tecfan/internal/schedfile"
)

// writeThrough performs the atomic-envelope write sequence (create temp,
// write, sync, close, rename, sync dir) through an FS — the exact shape
// internal/checkpoint uses — and returns the first error.
func writeThrough(fsys FS, path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := fsys.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	name := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := fsys.Rename(name, path); err != nil {
		return err
	}
	return fsys.SyncDir(dir)
}

func TestOSPassthrough(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.ckpt")
	if err := writeThrough(OS, path, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	data, err := OS.ReadFile(path)
	if err != nil || string(data) != "hello" {
		t.Fatalf("ReadFile = %q, %v", data, err)
	}
	ents, err := OS.ReadDir(dir)
	if err != nil || len(ents) != 1 {
		t.Fatalf("ReadDir = %v, %v", ents, err)
	}
	if _, err := OS.Stat(path); err != nil {
		t.Fatal(err)
	}
	if err := OS.Remove(path); err != nil {
		t.Fatal(err)
	}
	if _, err := OS.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("Stat after Remove: %v", err)
	}
}

func TestScheduleValidation(t *testing.T) {
	bad := []Schedule{
		{Rules: []Rule{{Action: "melt"}}},
		{Rules: []Rule{{Action: ActENOSPC, Prob: 1.5}}},
		{Rules: []Rule{{Action: ActTear, Ops: []Op{OpRead}}}},
		{Rules: []Rule{{Action: ActLieSync, Ops: []Op{OpWrite}}}},
		{Rules: []Rule{{Action: ActEIO, FromOp: 10, ToOp: 5}}},
		{Rules: []Rule{{Action: ActEIO, Ops: []Op{"scribble"}}}},
		{CrashAtOp: -1},
		{Rules: []Rule{{Action: ActEIO, Path: "[unclosed"}}},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("schedule %d validated: %+v", i, s)
		}
	}
	var good Schedule
	err := schedfile.Parse("test", []byte(`{
		"seed": 42, "crash_at_op": 100,
		"rules": [
			{"action": "enospc", "from_op": 10, "to_op": 20},
			{"action": "tear", "path": "*.ckpt*", "prob": 0.5},
			{"action": "lie_sync", "ops": ["sync"]},
			{"action": "flip_read", "prob": 0.1}
		]}`), &good, func() error { return good.Validate() })
	if err != nil {
		t.Fatal(err)
	}
	if good.Seed != 42 || good.CrashAtOp != 100 || len(good.Rules) != 4 {
		t.Fatalf("parsed schedule %+v", good)
	}
}

func TestInjectedENOSPCWindow(t *testing.T) {
	dir := t.TempDir()
	f2, _ := New(Schedule{Rules: []Rule{{Action: ActENOSPC, FromOp: 2, ToOp: 3}}}, nil)
	if _, err := f2.Stat(dir); err != nil { // op 1: before window
		t.Fatalf("op 1 failed: %v", err)
	}
	if _, err := f2.Stat(dir); !IsNoSpace(err) { // op 2: in window
		t.Fatalf("op 2 = %v, want ENOSPC", err)
	}
	if _, err := f2.Stat(dir); err != nil { // op 3: past window
		t.Fatalf("op 3 failed: %v", err)
	}
}

func TestInjectedEIOMatchesPath(t *testing.T) {
	dir := t.TempDir()
	f, _ := New(Schedule{Rules: []Rule{{Action: ActEIO, Path: "*.ckpt*"}}}, nil)
	if err := writeThrough(f, filepath.Join(dir, "other.dat"), []byte("ok")); err != nil {
		t.Fatalf("non-matching path impaired: %v", err)
	}
	err := writeThrough(f, filepath.Join(dir, "job.ckpt"), []byte("state"))
	if !errors.Is(err, syscall.EIO) {
		t.Fatalf("matching path = %v, want EIO", err)
	}
}

func TestTornWrite(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.ckpt")
	f, _ := New(Schedule{Seed: 7, Rules: []Rule{{Action: ActTear, Ops: []Op{OpWrite}}}}, nil)
	file, err := f.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte(strings.Repeat("A", 1024))
	n, werr := file.Write(payload)
	file.Close()
	if werr == nil {
		t.Fatal("torn write reported success")
	}
	if !errors.Is(werr, syscall.EIO) {
		t.Fatalf("torn write error = %v, want wrapped EIO", werr)
	}
	if n >= len(payload) {
		t.Fatalf("torn write committed all %d bytes", n)
	}
	onDisk, _ := os.ReadFile(path)
	if len(onDisk) != n {
		t.Fatalf("disk has %d bytes, write reported %d", len(onDisk), n)
	}
}

func TestBitFlipOnReadIsTransientAndSeeded(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "r.dat")
	orig := []byte(strings.Repeat("B", 256))
	if err := os.WriteFile(path, orig, 0o644); err != nil {
		t.Fatal(err)
	}
	mk := func() *FaultFS {
		f, _ := New(Schedule{Seed: 99, Rules: []Rule{{Action: ActFlipRead}}}, nil)
		return f
	}
	a, _ := mk().ReadFile(path)
	b, _ := mk().ReadFile(path)
	if string(a) == string(orig) {
		t.Fatal("read returned pristine data despite flip_read")
	}
	if string(a) != string(b) {
		t.Fatal("same seed and op index produced different corruption")
	}
	onDisk, _ := os.ReadFile(path)
	if string(onDisk) != string(orig) {
		t.Fatal("flip_read corrupted the file on disk")
	}
}

func TestSilentWriteFlipLandsOnDisk(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "w.ckpt")
	f, _ := New(Schedule{Seed: 3, Rules: []Rule{{Action: ActFlipWrite}}}, nil)
	if err := writeThrough(f, path, []byte(strings.Repeat("C", 512))); err != nil {
		t.Fatalf("silent flip must not error: %v", err)
	}
	onDisk, _ := os.ReadFile(path)
	if string(onDisk) == strings.Repeat("C", 512) {
		t.Fatal("flip_write left the file pristine")
	}
	if len(onDisk) != 512 {
		t.Fatalf("flip_write changed length: %d", len(onDisk))
	}
}

// TestPowerCutLosesUnsyncedData: with sync lying, a crash rolls the write
// back entirely — the head keeps its old durable content and the temp file
// vanishes, exactly what a real power cut after buffered-but-unflushed
// writes leaves behind.
func TestPowerCutLosesUnsyncedData(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "p.ckpt")
	if err := writeThrough(OS, path, []byte("old-generation")); err != nil {
		t.Fatal(err)
	}
	f, _ := New(Schedule{Rules: []Rule{{Action: ActLieSync}}}, nil)
	if err := writeThrough(f, path, []byte("new-but-never-synced")); err != nil {
		t.Fatal(err)
	}
	// Before the crash the rename is visible, as on a real kernel.
	if got, _ := os.ReadFile(path); string(got) != "new-but-never-synced" {
		t.Fatalf("pre-crash content = %q", got)
	}
	f.CrashNow()
	if got, _ := os.ReadFile(path); string(got) != "old-generation" {
		t.Fatalf("post-crash content = %q, want the old durable generation", got)
	}
	ents, _ := os.ReadDir(dir)
	for _, e := range ents {
		if strings.Contains(e.Name(), ".tmp") {
			t.Fatalf("temp file %s survived the crash", e.Name())
		}
	}
	if _, err := f.Stat(path); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash op = %v, want ErrCrashed", err)
	}
}

// TestPowerCutKeepsSyncedData: honest syncs make the full sequence durable;
// the crash then has nothing to roll back.
func TestPowerCutKeepsSyncedData(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "s.ckpt")
	f, _ := New(Schedule{}, nil)
	if err := writeThrough(f, path, []byte("durable")); err != nil {
		t.Fatal(err)
	}
	f.CrashNow()
	if got, _ := os.ReadFile(path); string(got) != "durable" {
		t.Fatalf("synced content lost: %q", got)
	}
}

// TestPowerCutUndoesUnsyncedRename: file contents were fsynced but the
// rename's directory entry was not — the crash restores the old head and
// resurrects the temp name, the "either old file or new file" guarantee.
func TestPowerCutUndoesUnsyncedRename(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "r.ckpt")
	if err := writeThrough(OS, path, []byte("old")); err != nil {
		t.Fatal(err)
	}
	// Lie only about directory syncs (path match on the directory's base).
	f, _ := New(Schedule{Rules: []Rule{
		{Action: ActLieSync, Path: filepath.Base(dir)},
	}}, nil)
	if err := writeThrough(f, path, []byte("new")); err != nil {
		t.Fatal(err)
	}
	f.CrashNow()
	if got, _ := os.ReadFile(path); string(got) != "old" {
		t.Fatalf("post-crash head = %q, want the pre-rename content", got)
	}
}

func TestCrashAtOpFiresAndGoesDead(t *testing.T) {
	dir := t.TempDir()
	crashed := false
	f, err := New(Schedule{CrashAtOp: 3}, &Options{OnCrash: func() { crashed = true }})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Stat(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Stat(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Stat(dir); !errors.Is(err, ErrCrashed) {
		t.Fatalf("op 3 = %v, want ErrCrashed", err)
	}
	if !crashed {
		t.Fatal("OnCrash not invoked")
	}
	if !f.Crashed() {
		t.Fatal("Crashed() false after the cut")
	}
	if _, err := f.ReadFile(filepath.Join(dir, "x")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash ReadFile = %v", err)
	}
}

// TestSeededDeterminism: the same schedule and operation sequence produce
// the same fault pattern.
func TestSeededDeterminism(t *testing.T) {
	run := func() []string {
		dir := t.TempDir()
		var log []string
		f, _ := New(Schedule{Seed: 11, Rules: []Rule{
			{Action: ActEIO, Prob: 0.3},
		}}, nil)
		for i := 0; i < 40; i++ {
			_, err := f.Stat(dir)
			if err != nil {
				log = append(log, "eio")
			} else {
				log = append(log, "ok")
			}
		}
		return log
	}
	a, b := run(), run()
	if strings.Join(a, ",") != strings.Join(b, ",") {
		t.Fatalf("fault pattern not reproducible:\n%v\n%v", a, b)
	}
	eios := 0
	for _, s := range a {
		if s == "eio" {
			eios++
		}
	}
	if eios == 0 || eios == len(a) {
		t.Fatalf("prob 0.3 produced %d/%d failures", eios, len(a))
	}
}

func TestRemoveRolledBackOnCrash(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "keep.ckpt")
	if err := os.WriteFile(path, []byte("precious"), 0o644); err != nil {
		t.Fatal(err)
	}
	f, _ := New(Schedule{}, nil)
	if err := f.Remove(path); err != nil {
		t.Fatal(err)
	}
	f.CrashNow()
	// An unsynced unlink is rolled back: the durable image still exists.
	if got, _ := os.ReadFile(path); string(got) != "precious" {
		t.Fatalf("removed file not restored by crash: %q", got)
	}
}
