package cmdutil

import (
	"os"
	"strings"
	"testing"
	"time"
)

type fakeSystem struct{}

func (fakeSystem) Benchmarks() []string { return []string{"cholesky/16", "fft/4"} }
func (fakeSystem) Policies() []string   { return []string{"TECfan", "fan-only"} }

func TestCheckBench(t *testing.T) {
	sys := fakeSystem{}
	if err := CheckBench(sys, "cholesky", 16); err != nil {
		t.Errorf("valid bench rejected: %v", err)
	}
	err := CheckBench(sys, "cholesky", 8)
	if err == nil || !strings.Contains(err.Error(), "cholesky/16") {
		t.Errorf("invalid thread count: err = %v, want the valid list", err)
	}
}

func TestCheckPolicy(t *testing.T) {
	sys := fakeSystem{}
	if err := CheckPolicy(sys, "TECfan"); err != nil {
		t.Errorf("valid policy rejected: %v", err)
	}
	if err := CheckPolicy(sys, "nope"); err == nil {
		t.Error("unknown policy accepted")
	}
}

func TestCheckAddr(t *testing.T) {
	for _, addr := range []string{":8023", "127.0.0.1:0", "localhost:9999"} {
		if err := CheckAddr("addr", addr); err != nil {
			t.Errorf("CheckAddr(%q) = %v, want nil", addr, err)
		}
	}
	for _, addr := range []string{"", "nohost", "1.2.3.4"} {
		if err := CheckAddr("addr", addr); err == nil {
			t.Errorf("CheckAddr(%q) accepted", addr)
		}
	}
}

func TestCheckPort(t *testing.T) {
	for _, port := range []int{1, 8080, 65535} {
		if err := CheckPort("port", port, false); err != nil {
			t.Errorf("CheckPort(%d) = %v, want nil", port, err)
		}
	}
	for _, port := range []int{0, -1, 65536, 1 << 20} {
		if err := CheckPort("port", port, false); err == nil {
			t.Errorf("CheckPort(%d, zeroOK=false) accepted", port)
		}
	}
	if err := CheckPort("port", 0, true); err != nil {
		t.Errorf("CheckPort(0, zeroOK=true) = %v, want nil (0 = disabled)", err)
	}
	if err := CheckPort("port", -1, true); err == nil {
		t.Error("CheckPort(-1, zeroOK=true) accepted")
	}
}

func TestCheckBaseURL(t *testing.T) {
	for _, u := range []string{"http://127.0.0.1:8023", "https://coord.example", "http://localhost:1/base"} {
		if err := CheckBaseURL("coordinator", u); err != nil {
			t.Errorf("CheckBaseURL(%q) = %v, want nil", u, err)
		}
	}
	for _, u := range []string{"", "bad url", "127.0.0.1:8023", "ftp://host", "http://"} {
		if err := CheckBaseURL("coordinator", u); err == nil {
			t.Errorf("CheckBaseURL(%q) accepted", u)
		}
	}
}

func TestCheckExistingDir(t *testing.T) {
	dir := t.TempDir()
	if err := CheckExistingDir("dir", dir); err != nil {
		t.Errorf("existing dir rejected: %v", err)
	}
	if err := CheckExistingDir("dir", ""); err == nil {
		t.Error("empty path accepted")
	}
	if err := CheckExistingDir("dir", dir+"/missing"); err == nil {
		t.Error("missing path accepted")
	}
	file := dir + "/f"
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := CheckExistingDir("dir", file); err == nil {
		t.Error("regular file accepted as directory")
	}
}

func TestCheckFileExists(t *testing.T) {
	dir := t.TempDir()
	file := dir + "/f.json"
	if err := os.WriteFile(file, []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := CheckFileExists("baseline", file); err != nil {
		t.Errorf("existing file rejected: %v", err)
	}
	if err := CheckFileExists("baseline", ""); err == nil {
		t.Error("empty path accepted")
	}
	if err := CheckFileExists("baseline", dir+"/missing.json"); err == nil {
		t.Error("missing path accepted")
	}
	if err := CheckFileExists("baseline", dir); err == nil {
		t.Error("directory accepted as file")
	}
}

func TestCheckDurations(t *testing.T) {
	if err := CheckPositiveDuration("t", time.Second); err != nil {
		t.Error(err)
	}
	if err := CheckPositiveDuration("t", 0); err == nil {
		t.Error("zero accepted as positive duration")
	}
}

func TestCheckPositiveInt(t *testing.T) {
	if err := CheckPositiveInt("n", 1); err != nil {
		t.Error(err)
	}
	if err := CheckPositiveInt("n", 0); err == nil {
		t.Error("zero accepted as positive int")
	}
}
