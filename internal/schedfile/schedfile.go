// Package schedfile is the one way fault schedules enter the process, from a
// file (Load, behind each fault package's ParseScheduleFile) or from bytes
// (Parse, for tests and fuzzers). No fault package keeps a decoder of its
// own, so every schedule gets the same contract: strict decoding (unknown
// fields are typos, not extensions), the file path or name on every error,
// and the injector's own rule-index context preserved through validation.
// The campaign spec (internal/campaign) loads through the same door, so a
// composite spec that embeds all four schedules reports errors like
// "schedule specs/compound.json: diskfault: rule 2: unknown action".
package schedfile

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
)

// Load reads a JSON schedule from path, strictly decodes it into v, and runs
// validate. Every error — unreadable file, malformed JSON, unknown field,
// failed validation — is wrapped with the file path so a drill failure names
// the document at fault.
func Load(path string, v any, validate func() error) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("schedule %s: %w", path, err)
	}
	return Parse(path, data, v, validate)
}

// Parse decodes data into v under the same strict rules as Load, labeling
// errors with name (a path or any other provenance string). Unknown fields
// and trailing content after the document are rejected: a schedule file is a
// single JSON object and a misspelled key must fail loudly, not silently
// disable the rule it was meant to configure.
func Parse(name string, data []byte, v any, validate func() error) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("schedule %s: %w", name, err)
	}
	if dec.More() {
		return fmt.Errorf("schedule %s: trailing content after the JSON document", name)
	}
	if validate != nil {
		if err := validate(); err != nil {
			return fmt.Errorf("schedule %s: %w", name, err)
		}
	}
	return nil
}
