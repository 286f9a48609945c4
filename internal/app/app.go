// Package app provides deterministic, undoable replicated state machines for
// the replication protocols in this repository.
//
// Active replication requires deterministic servers (Section 2.1 of the
// paper); the OAR protocol additionally requires that the effect of
// processing an optimistically delivered request can be undone if the
// message is Opt-undelivered (Section 4). Section 6 sketches the intended
// usage: each delivery opens a savepoint, Opt-undeliver rolls back to it,
// and surviving deliveries are committed when the epoch closes.
//
// Machines here implement exactly that contract: Apply executes a command
// and returns an undo closure reverting precisely that application. Undo
// closures must be invoked in reverse application order (they assume the
// machine is in the state Apply left it in, modulo later undone
// applications).
//
// Commands and results are whitespace-separated text — deterministic, easy
// to generate in workloads and to assert on in tests.
package app

import (
	"fmt"
	"sort"
	"strings"
)

// Machine is a deterministic state machine with per-command undo, a
// read-only query surface and a full-state snapshot. Implementations are not
// safe for concurrent use: they are owned by a single server event loop, per
// the paper's execution model.
type Machine interface {
	// Apply executes cmd and returns its result plus an undo closure that
	// reverts this application. Apply must be deterministic: identical
	// command sequences yield identical results and states on any replica.
	// Invalid commands must also be handled deterministically (an error
	// result, not a panic) since every replica sees them.
	Apply(cmd []byte) (result []byte, undo func())
	// Fingerprint returns a deterministic digest of the current state, used
	// by tests and the trace checker to compare replicas.
	Fingerprint() string
	// Query serves the read fast path (replies from the optimistic prefix
	// with no position in the definitive order and no undo closure). It
	// answers cmd if and only if cmd is a well-formed read-only command for
	// this machine, returning ok=false otherwise — including for malformed
	// variants of read commands, and for every command of a machine with no
	// read-only subset; those fall back to the ordered path so every replica
	// produces the identical result. When ok is true the result must be
	// byte-identical to what Apply(cmd) would return in the same state, and
	// the state must be unchanged.
	Query(cmd []byte) (result []byte, ok bool)
	// Snapshot and Restore serialize the full state, enabling FSM snapshots
	// at epoch boundaries (where the undo-set is empty, so the image is a
	// pure A-delivered prefix) and restore-on-recovery.
	//
	// Snapshot must capture every bit of state that Fingerprint observes, so
	// Restore(Snapshot()) yields a fingerprint-identical machine — the
	// property replica recovery's byte-identical-convergence check rests on.
	// Restore replaces the machine's state wholesale and must reject a
	// corrupted or foreign image with an error rather than install a
	// silently wrong state: every image is framed with a machine-name header
	// and a CRC over the body.
	Snapshot() ([]byte, error)
	Restore([]byte) error
}

// New constructs a machine by name: "recorder", "stack", "kv", "counter",
// "bank" or "queue".
func New(name string) (Machine, error) {
	switch name {
	case "recorder":
		return NewRecorder(), nil
	case "stack":
		return NewStack(), nil
	case "kv":
		return NewKV(), nil
	case "counter":
		return NewCounter(), nil
	case "bank":
		return NewBank(), nil
	case "queue":
		return NewQueue(), nil
	default:
		return nil, fmt.Errorf("app: unknown machine %q", name)
	}
}

// Names lists the available machine names.
func Names() []string {
	return []string{"bank", "counter", "kv", "queue", "recorder", "stack"}
}

// errResult formats a deterministic error result.
func errResult(format string, args ...any) []byte {
	return []byte("ERR " + fmt.Sprintf(format, args...))
}

// fields splits a command into whitespace-separated tokens.
func fields(cmd []byte) []string {
	return strings.Fields(string(cmd))
}

// noop is the undo of a command that did not change state.
func noop() {}

// mapFingerprint renders a map deterministically.
func mapFingerprint[V any](m map[string]V) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s=%v;", k, m[k])
	}
	return b.String()
}
