package schedfile_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tecfan/internal/clockfault"
	"tecfan/internal/diskfault"
	"tecfan/internal/netfault"
	"tecfan/internal/numfault"
)

// TestFaultSchedulesRejectMisspelledKeys: every fault-schedule format enters
// through the strict loader, so a misspelled key fails loudly instead of
// silently disabling the rule it was meant to configure. Each document is
// valid once the typo is fixed.
func TestFaultSchedulesRejectMisspelledKeys(t *testing.T) {
	cases := []struct {
		name, good, typo string
		load             func(path string) error
	}{
		{"disk", `{"seed": 3, "rules": [{"action": "eio", "prob": 0.5}]}`, `"prob"`,
			func(p string) error { _, err := diskfault.ParseScheduleFile(p); return err }},
		{"net", `{"seed": 3, "base": {"drop": 0.5}}`, `"drop"`,
			func(p string) error { _, err := netfault.ParseScheduleFile(p); return err }},
		{"num", `{"seed": 3, "rules": [{"target": "temps", "action": "nan", "from_step": 1, "prob": 0.5}]}`, `"prob"`,
			func(p string) error { _, err := numfault.ParseScheduleFile(p); return err }},
		{"clock", `{"seed": 3, "rules": [{"kind": "jitter", "max": "1ms", "prob": 0.5}]}`, `"prob"`,
			func(p string) error { _, err := clockfault.ParseScheduleFile(p); return err }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			good := filepath.Join(dir, "good.json")
			bad := filepath.Join(dir, "bad.json")
			misspelled := strings.Replace(c.good, c.typo, `"porb"`, 1)
			if misspelled == c.good {
				t.Fatalf("typo %s not in %s", c.typo, c.good)
			}
			for path, body := range map[string]string{good: c.good, bad: misspelled} {
				if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			if err := c.load(good); err != nil {
				t.Fatalf("correct schedule rejected: %v", err)
			}
			err := c.load(bad)
			if err == nil || !strings.Contains(err.Error(), `unknown field "porb"`) {
				t.Fatalf("misspelled key: err = %v, want unknown field \"porb\"", err)
			}
			if !strings.Contains(err.Error(), bad) {
				t.Fatalf("error %q does not carry the path", err)
			}
		})
	}
}
