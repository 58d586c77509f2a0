// Package cmdutil holds the flag-validation helpers shared by the cmd/
// tools: every tool checks its -bench/-policy arguments eagerly, before any
// simulation starts, and a bad value fails with the list of valid choices
// instead of surfacing minutes later from deep inside a run.
package cmdutil

import (
	"fmt"
	"net"
	"net/url"
	"os"
	"strings"
	"time"
)

// System is the slice of the tecfan.System surface the helpers need; taking
// an interface avoids an import cycle with the root package.
type System interface {
	Benchmarks() []string
	Policies() []string
}

// CheckBench validates a benchmark/thread-count pair against the Table I
// configurations ("name/threads").
func CheckBench(sys System, bench string, threads int) error {
	want := fmt.Sprintf("%s/%d", bench, threads)
	valid := sys.Benchmarks()
	for _, b := range valid {
		if b == want {
			return nil
		}
	}
	return fmt.Errorf("unknown benchmark %q (valid: %s)", want, strings.Join(valid, ", "))
}

// CheckPolicy validates a policy name.
func CheckPolicy(sys System, name string) error {
	valid := sys.Policies()
	for _, p := range valid {
		if p == name {
			return nil
		}
	}
	return fmt.Errorf("unknown policy %q (valid: %s)", name, strings.Join(valid, ", "))
}

// CheckAddr validates a host:port listen/dial address eagerly, so a typo
// fails at flag parse time rather than as a bind error after state is built.
func CheckAddr(flagName, addr string) error {
	if addr == "" {
		return fmt.Errorf("-%s must not be empty", flagName)
	}
	if _, _, err := net.SplitHostPort(addr); err != nil {
		return fmt.Errorf("-%s: %q is not host:port: %v", flagName, addr, err)
	}
	return nil
}

// CheckBaseURL validates an http(s) base-URL flag eagerly. url.Parse alone
// is too lenient — it accepts almost any string — so a worker pointed at a
// garbage coordinator URL would otherwise retry forever instead of failing
// at startup.
func CheckBaseURL(flagName, raw string) error {
	if raw == "" {
		return fmt.Errorf("-%s must not be empty", flagName)
	}
	u, err := url.Parse(raw)
	if err != nil {
		return fmt.Errorf("-%s: %q: %v", flagName, raw, err)
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return fmt.Errorf("-%s: %q must be an http:// or https:// URL", flagName, raw)
	}
	if u.Host == "" {
		return fmt.Errorf("-%s: %q has no host", flagName, raw)
	}
	return nil
}

// CheckPort validates a TCP/UDP port number flag. zeroOK admits 0 for flags
// where it means "disabled" (health endpoints) or "kernel-assigned".
func CheckPort(flagName string, port int, zeroOK bool) error {
	if port == 0 && zeroOK {
		return nil
	}
	if port < 1 || port > 65535 {
		if zeroOK {
			return fmt.Errorf("-%s must be 0 or within [1, 65535], got %d", flagName, port)
		}
		return fmt.Errorf("-%s must be within [1, 65535], got %d", flagName, port)
	}
	return nil
}

// CheckExistingDir validates that a path flag names an existing directory —
// eagerly, so a worker pointed at a missing scratch dir fails at startup
// instead of on its first checkpoint write mid-shard.
func CheckExistingDir(flagName, path string) error {
	if path == "" {
		return fmt.Errorf("-%s must not be empty", flagName)
	}
	info, err := os.Stat(path)
	if err != nil {
		return fmt.Errorf("-%s: %v", flagName, err)
	}
	if !info.IsDir() {
		return fmt.Errorf("-%s: %q is not a directory", flagName, path)
	}
	return nil
}

// CheckPositiveDuration rejects zero and negative durations for flags where
// "no timeout" is not a sensible interpretation.
func CheckPositiveDuration(flagName string, d time.Duration) error {
	if d <= 0 {
		return fmt.Errorf("-%s must be > 0, got %v", flagName, d)
	}
	return nil
}

// CheckPositiveInt rejects values below 1 for counts that must exist.
func CheckPositiveInt(flagName string, n int) error {
	if n < 1 {
		return fmt.Errorf("-%s must be >= 1, got %d", flagName, n)
	}
	return nil
}

// PrintLists prints the valid benchmarks and policies — the body of every
// tool's -list flag.
func PrintLists(sys System) {
	fmt.Println("benchmarks:")
	for _, b := range sys.Benchmarks() {
		fmt.Printf("  %s\n", b)
	}
	fmt.Println("policies:")
	for _, p := range sys.Policies() {
		fmt.Printf("  %s\n", p)
	}
}
