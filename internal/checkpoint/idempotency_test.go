package checkpoint

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"tecfan/internal/diskfault"
)

func TestIdemStoreRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "idem.idem")
	s, err := OpenIdemStoreFS(diskfault.OS, path, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("tok"); ok {
		t.Fatal("empty store had an entry")
	}
	if err := s.Put("tok", "job-1"); err != nil {
		t.Fatal(err)
	}
	if id, ok := s.Get("tok"); !ok || id != "job-1" {
		t.Fatalf("Get = %q, %v", id, ok)
	}

	// A fresh open on the same path sees the durable entry.
	s2, err := OpenIdemStoreFS(diskfault.OS, path, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if id, ok := s2.Get("tok"); !ok || id != "job-1" {
		t.Fatalf("reopened Get = %q, %v", id, ok)
	}

	if err := s2.Delete("tok"); err != nil {
		t.Fatal(err)
	}
	if err := s2.Delete("tok"); err != nil { // idempotent delete
		t.Fatal(err)
	}
	s3, err := OpenIdemStoreFS(diskfault.OS, path, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s3.Get("tok"); ok {
		t.Fatal("deleted entry survived reopen")
	}
}

func TestIdemStoreEvictsOldest(t *testing.T) {
	path := filepath.Join(t.TempDir(), "idem.idem")
	s, err := OpenIdemStoreFS(diskfault.OS, path, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if err := s.Put(fmt.Sprintf("tok-%d", i), fmt.Sprintf("job-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if s.Len() != 4 {
		t.Fatalf("Len = %d, want 4", s.Len())
	}
	for _, gone := range []string{"tok-0", "tok-1"} {
		if _, ok := s.Get(gone); ok {
			t.Errorf("oldest entry %s survived eviction", gone)
		}
	}
	for _, kept := range []string{"tok-2", "tok-3", "tok-4", "tok-5"} {
		if _, ok := s.Get(kept); !ok {
			t.Errorf("recent entry %s evicted", kept)
		}
	}
}

func TestIdemStoreQuarantinesCorrupt(t *testing.T) {
	path := filepath.Join(t.TempDir(), "idem.idem")
	if err := os.WriteFile(path, []byte("not an envelope"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := OpenIdemStoreFS(diskfault.OS, path, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 0 {
		t.Fatalf("corrupt store loaded %d entries", s.Len())
	}
	if _, err := os.Stat(path + ".bad-1"); err != nil {
		t.Fatalf("corrupt table not quarantined: %v", err)
	}
	if n := s.Quarantined(); n != 1 {
		t.Fatalf("Quarantined() = %d, want 1", n)
	}
	// The store remains usable after quarantine.
	if err := s.Put("tok", "job-1"); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenIdemStoreFS(diskfault.OS, path, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if id, ok := s2.Get("tok"); !ok || id != "job-1" {
		t.Fatalf("post-quarantine Get = %q, %v", id, ok)
	}
}

func TestIdemStoreAll(t *testing.T) {
	s, err := OpenIdemStoreFS(diskfault.OS, filepath.Join(t.TempDir(), "idem.idem"), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	_ = s.Put("a", "job-a")
	_ = s.Put("b", "job-b")
	all := s.All()
	if len(all) != 2 || all["a"] != "job-a" || all["b"] != "job-b" {
		t.Fatalf("All = %v", all)
	}
	// The copy is detached from the store.
	delete(all, "a")
	if _, ok := s.Get("a"); !ok {
		t.Fatal("mutating All()'s copy reached the store")
	}
}
