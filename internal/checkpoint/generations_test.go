package checkpoint

import (
	"bytes"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tecfan/internal/diskfault"
)

func TestGenStoreWriteRotateRead(t *testing.T) {
	dir := t.TempDir()
	g := NewGenStore(diskfault.OS, filepath.Join(dir, "job.ckpt"), 3, t.Logf)
	for i, s := range []string{"snap-1", "snap-2", "snap-3", "snap-4"} {
		if err := g.Write([]byte(s)); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	got, err := g.Read()
	if err != nil || string(got) != "snap-4" {
		t.Fatalf("Read = %q, %v", got, err)
	}
	// Generations hold the prior snapshots, newest first.
	for i, want := range []string{"snap-3", "snap-2"} {
		p, err := ReadFileFS(diskfault.OS, g.Paths()[i+1])
		if err != nil || string(p) != want {
			t.Fatalf("gen %d = %q, %v (want %q)", i+1, p, err, want)
		}
	}
	// Only keep generations exist; snap-1 was dropped.
	if _, err := os.Stat(g.Path() + ".g3"); !os.IsNotExist(err) {
		t.Fatalf("over-retained generation: %v", err)
	}
}

func TestGenStoreFallbackOnCorruptHead(t *testing.T) {
	dir := t.TempDir()
	g := NewGenStore(diskfault.OS, filepath.Join(dir, "job.ckpt"), 3, t.Logf)
	for _, s := range []string{"old", "newer", "newest"} {
		if err := g.Write([]byte(s)); err != nil {
			t.Fatal(err)
		}
	}
	// Flip a payload bit in the head; checksum must catch it.
	raw, _ := os.ReadFile(g.Path())
	raw[len(raw)-1] ^= 0x40
	if err := os.WriteFile(g.Path(), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := g.Read()
	if err != nil || string(got) != "newer" {
		t.Fatalf("fallback Read = %q, %v (want the .g1 snapshot)", got, err)
	}
	if _, err := os.Stat(g.Path() + ".bad-1"); err != nil {
		t.Fatalf("corrupt head not quarantined: %v", err)
	}
	if g.Quarantined() != 1 {
		t.Fatalf("Quarantined() = %d", g.Quarantined())
	}
}

func TestGenStoreAllCorrupt(t *testing.T) {
	dir := t.TempDir()
	g := NewGenStore(diskfault.OS, filepath.Join(dir, "job.ckpt"), 2, t.Logf)
	_ = g.Write([]byte("a"))
	_ = g.Write([]byte("b"))
	for _, p := range g.Paths() {
		if err := os.WriteFile(p, []byte("garbage"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := g.Read(); !errors.Is(err, ErrNoGeneration) {
		t.Fatalf("all-corrupt Read = %v, want ErrNoGeneration", err)
	}
}

func TestGenStoreMissingIsNotExist(t *testing.T) {
	g := NewGenStore(diskfault.OS, filepath.Join(t.TempDir(), "nope.ckpt"), 3, t.Logf)
	if _, err := g.Read(); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("missing Read = %v, want fs.ErrNotExist", err)
	}
}

func TestGenStoreCorruptHeadNotRotated(t *testing.T) {
	dir := t.TempDir()
	g := NewGenStore(diskfault.OS, filepath.Join(dir, "job.ckpt"), 3, t.Logf)
	if err := g.Write([]byte("good")); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(g.Path(), []byte("rot"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := g.Write([]byte("fresh")); err != nil {
		t.Fatal(err)
	}
	// The corrupt head must have been quarantined, not promoted to .g1.
	if p, err := ReadFileFS(diskfault.OS, g.Path()+".g1"); err == nil && string(p) == "rot" {
		t.Fatal("corruption cycled into the generation chain")
	}
	if _, err := os.Stat(g.Path() + ".bad-1"); err != nil {
		t.Fatalf("corrupt head not quarantined on write: %v", err)
	}
	got, err := g.Read()
	if err != nil || string(got) != "fresh" {
		t.Fatalf("Read = %q, %v", got, err)
	}
}

func TestGenStoreScrubRepairs(t *testing.T) {
	dir := t.TempDir()
	g := NewGenStore(diskfault.OS, filepath.Join(dir, "job.ckpt"), 3, t.Logf)
	for _, s := range []string{"one", "two", "three"} {
		if err := g.Write([]byte(s)); err != nil {
			t.Fatal(err)
		}
	}
	// Rot the middle generation.
	if err := os.WriteFile(g.Path()+".g1", []byte("xxxx"), 0o644); err != nil {
		t.Fatal(err)
	}
	repaired, err := g.Scrub()
	if err != nil || repaired != 1 {
		t.Fatalf("Scrub = %d, %v (want 1 repair)", repaired, err)
	}
	// Repaired slot holds the newest good snapshot and verifies.
	p, err := ReadFileFS(diskfault.OS, g.Path()+".g1")
	if err != nil || string(p) != "three" {
		t.Fatalf("repaired gen = %q, %v", p, err)
	}
	// The rotted bytes were quarantined for post-mortem.
	if _, err := os.Stat(g.Path() + ".g1.bad-1"); err != nil {
		t.Fatalf("rotted bytes not quarantined: %v", err)
	}
	// A second scrub finds nothing to do.
	if repaired, err := g.Scrub(); err != nil || repaired != 0 {
		t.Fatalf("second Scrub = %d, %v", repaired, err)
	}
}

func TestGenStoreRemoveAll(t *testing.T) {
	dir := t.TempDir()
	g := NewGenStore(diskfault.OS, filepath.Join(dir, "job.ckpt"), 3, t.Logf)
	for _, s := range []string{"a", "b", "c"} {
		_ = g.Write([]byte(s))
	}
	if err := g.RemoveAll(); err != nil {
		t.Fatal(err)
	}
	ents, _ := os.ReadDir(dir)
	for _, e := range ents {
		if !strings.Contains(e.Name(), ".bad") {
			t.Fatalf("leftover file %s after RemoveAll", e.Name())
		}
	}
}

func TestQuarantineUniqueNames(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f.ckpt")
	for i := 1; i <= 3; i++ {
		if err := os.WriteFile(path, []byte("junk"), 0o644); err != nil {
			t.Fatal(err)
		}
		dst, err := Quarantine(diskfault.OS, path)
		if err != nil {
			t.Fatal(err)
		}
		want := path + ".bad-" + string(rune('0'+i))
		if dst != want {
			t.Fatalf("quarantine %d landed at %s, want %s", i, dst, want)
		}
	}
	for i := 1; i <= 3; i++ {
		if _, err := os.Stat(path + ".bad-" + string(rune('0'+i))); err != nil {
			t.Fatalf("quarantine %d clobbered: %v", i, err)
		}
	}
}

// FuzzGenerationFallback writes a chain of known snapshots, lets the fuzzer
// mangle the files on disk — truncations, bit flips, partial interleavings —
// and asserts the one invariant that matters: Read never returns a payload
// that is not exactly the newest still-verifiable snapshot. Wrong bytes with
// a nil error would be a silent wrong answer; any error is acceptable.
func FuzzGenerationFallback(f *testing.F) {
	f.Add(0, 0, uint8(0x01), int64(10))
	f.Add(1, 50, uint8(0x80), int64(-1))
	f.Add(2, 3, uint8(0xFF), int64(0))
	f.Fuzz(func(t *testing.T, which, offset int, flip uint8, truncate int64) {
		dir := t.TempDir()
		g := NewGenStore(diskfault.OS, filepath.Join(dir, "j.ckpt"), 3, nil)
		snaps := [][]byte{[]byte("snapshot-alpha"), []byte("snapshot-beta"), []byte("snapshot-gamma")}
		for _, s := range snaps {
			if err := g.Write(s); err != nil {
				t.Fatal(err)
			}
		}
		paths := g.Paths()
		// Mangle one generation as directed by the fuzz input.
		target := paths[abs(which)%len(paths)]
		raw, err := os.ReadFile(target)
		if err != nil {
			t.Fatal(err)
		}
		if truncate >= 0 && truncate < int64(len(raw)) {
			raw = raw[:truncate]
		}
		if len(raw) > 0 && flip != 0 {
			raw[abs(offset)%len(raw)] ^= flip
		}
		if err := os.WriteFile(target, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		// Independently compute the newest generation that still verifies.
		var want []byte
		for _, p := range paths {
			if payload, err := ReadFileFS(diskfault.OS, p); err == nil {
				want = payload
				break
			}
		}
		got, err := g.Read()
		if err != nil {
			return // refusal is always acceptable
		}
		if want == nil {
			t.Fatalf("Read returned %q though no generation verifies", got)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("Read returned %q, newest verifiable generation holds %q", got, want)
		}
		// It must also be one of the snapshots we actually wrote.
		ok := false
		for _, s := range snaps {
			if bytes.Equal(got, s) {
				ok = true
			}
		}
		if !ok {
			t.Fatalf("Read returned %q, never a written snapshot", got)
		}
	})
}

func abs(x int) int {
	if x < 0 {
		if x == -x { // MinInt
			return 0
		}
		return -x
	}
	return x
}
