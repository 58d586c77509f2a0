package diskfault

import (
	"fmt"
	"path/filepath"

	"tecfan/internal/schedfile"
)

// Op classifies a filesystem operation for schedule matching. Every FS and
// File method increments one global operation counter and reports exactly
// one Op.
type Op string

const (
	OpOpen    Op = "open"    // Open / OpenFile(read-only)
	OpCreate  Op = "create"  // Create / CreateTemp / OpenFile(write)
	OpRead    Op = "read"    // ReadFile / File.Read
	OpWrite   Op = "write"   // File.Write
	OpSync    Op = "sync"    // File.Sync / SyncDir
	OpRename  Op = "rename"  // Rename
	OpRemove  Op = "remove"  // Remove
	OpReaddir Op = "readdir" // ReadDir
	OpStat    Op = "stat"    // Stat
	OpMkdir   Op = "mkdir"   // MkdirAll
)

var validOps = map[Op]bool{
	OpOpen: true, OpCreate: true, OpRead: true, OpWrite: true, OpSync: true,
	OpRename: true, OpRemove: true, OpReaddir: true, OpStat: true, OpMkdir: true,
}

// Rule actions. Each rule has exactly one action; tear/flip_write apply only
// to write ops, flip_read to read ops, lie_sync to sync ops, and the errno
// actions to any op.
const (
	// ActENOSPC fails the operation with an error wrapping syscall.ENOSPC.
	ActENOSPC = "enospc"
	// ActEIO fails the operation with an error wrapping syscall.EIO.
	ActEIO = "eio"
	// ActTear commits a seeded prefix of the buffer to the file, then fails
	// the write — the classic torn write.
	ActTear = "tear"
	// ActFlipWrite flips one seeded bit in the buffer and reports success —
	// silent corruption that only a read-time checksum can catch.
	ActFlipWrite = "flip_write"
	// ActFlipRead flips one seeded bit in the returned data; the file on
	// disk stays intact (transient rot: a bad cable, a flaky controller).
	ActFlipRead = "flip_read"
	// ActLieSync reports a successful sync without granting durability: the
	// bytes stay volatile and vanish at the next simulated power cut.
	ActLieSync = "lie_sync"
)

// Rule is one impairment: when an operation whose class is in Ops, whose
// file's base name matches Path, and whose global index lies in
// [FromOp, ToOp) comes by, Action fires with probability Prob.
type Rule struct {
	// Ops restricts the rule to these operation classes (empty = the
	// action's natural class, or every class for the errno actions).
	Ops []Op `json:"ops,omitempty"`
	// Path is a filepath.Match glob tested against the file's base name
	// (empty = every path). Directory-level ops match the directory's base.
	Path string `json:"path,omitempty"`
	// FromOp / ToOp bound the rule by the global operation counter
	// (1-based); ToOp 0 means unbounded.
	FromOp int64 `json:"from_op,omitempty"`
	ToOp   int64 `json:"to_op,omitempty"`
	// Action is one of the Act* constants.
	Action string `json:"action"`
	// Prob is the chance the action fires per matching op (default 1).
	Prob float64 `json:"prob,omitempty"`
}

// opsFor returns the operation classes a rule applies to.
func (r Rule) opsFor() []Op {
	if len(r.Ops) > 0 {
		return r.Ops
	}
	switch r.Action {
	case ActTear, ActFlipWrite:
		return []Op{OpWrite}
	case ActFlipRead:
		return []Op{OpRead}
	case ActLieSync:
		return []Op{OpSync}
	default: // errno actions default to every class
		return nil
	}
}

func (r Rule) matches(op Op, base string, n int64) bool {
	if n < r.FromOp || (r.ToOp > 0 && n >= r.ToOp) {
		return false
	}
	ops := r.opsFor()
	if len(ops) > 0 {
		found := false
		for _, o := range ops {
			if o == op {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	if r.Path != "" {
		ok, err := filepath.Match(r.Path, base)
		if err != nil || !ok {
			return false
		}
	}
	return true
}

func (r Rule) validate(i int) error {
	switch r.Action {
	case ActENOSPC, ActEIO, ActTear, ActFlipWrite, ActFlipRead, ActLieSync:
	default:
		return fmt.Errorf("diskfault: rule %d: unknown action %q", i, r.Action)
	}
	for _, o := range r.Ops {
		if !validOps[o] {
			return fmt.Errorf("diskfault: rule %d: unknown op %q", i, o)
		}
	}
	switch r.Action {
	case ActTear, ActFlipWrite:
		for _, o := range r.Ops {
			if o != OpWrite {
				return fmt.Errorf("diskfault: rule %d: action %q applies only to write ops", i, r.Action)
			}
		}
	case ActFlipRead:
		for _, o := range r.Ops {
			if o != OpRead {
				return fmt.Errorf("diskfault: rule %d: action %q applies only to read ops", i, r.Action)
			}
		}
	case ActLieSync:
		for _, o := range r.Ops {
			if o != OpSync {
				return fmt.Errorf("diskfault: rule %d: action %q applies only to sync ops", i, r.Action)
			}
		}
	}
	if r.Prob < 0 || r.Prob > 1 {
		return fmt.Errorf("diskfault: rule %d: probability %v outside [0,1]", i, r.Prob)
	}
	if r.FromOp < 0 {
		return fmt.Errorf("diskfault: rule %d: from_op must be non-negative", i)
	}
	if r.ToOp < 0 || (r.ToOp > 0 && r.ToOp <= r.FromOp) {
		return fmt.Errorf("diskfault: rule %d: need from_op < to_op, got [%d, %d)", i, r.FromOp, r.ToOp)
	}
	if r.Path != "" {
		if _, err := filepath.Match(r.Path, "probe"); err != nil {
			return fmt.Errorf("diskfault: rule %d: bad path pattern %q: %w", i, r.Path, err)
		}
	}
	return nil
}

// Schedule drives a FaultFS: a base seed for every probabilistic draw, an
// optional operation index at which a power cut fires (unsynced bytes are
// discarded, then every later operation fails), and the impairment rules.
type Schedule struct {
	Seed int64 `json:"seed,omitempty"`
	// CrashAtOp, when > 0, simulates a power cut as the counter reaches it:
	// all writes not made durable by an honest sync are rolled back and the
	// filesystem goes dead (ErrCrashed) until the process restarts.
	CrashAtOp int64  `json:"crash_at_op,omitempty"`
	Rules     []Rule `json:"rules,omitempty"`
}

// Validate rejects malformed schedules eagerly, before any I/O flows.
func (s Schedule) Validate() error {
	if s.CrashAtOp < 0 {
		return fmt.Errorf("diskfault: crash_at_op must be non-negative")
	}
	for i, r := range s.Rules {
		if err := r.validate(i); err != nil {
			return err
		}
	}
	return nil
}

// ParseScheduleFile loads and validates a schedule from a JSON file through
// the shared schedfile loader, so errors carry the file path and rule index.
func ParseScheduleFile(path string) (Schedule, error) {
	var s Schedule
	// Validate has a value receiver, so bind it after decoding via a closure.
	if err := schedfile.Load(path, &s, func() error { return s.Validate() }); err != nil {
		return Schedule{}, err
	}
	return s, nil
}
