package app

import (
	"strings"
	"testing"
)

// populate drives each machine into a non-trivial state, exercising every
// command family so the snapshot has to carry real structure.
func populate(t *testing.T, name string, m Machine) {
	t.Helper()
	var cmds []string
	switch name {
	case "kv":
		cmds = []string{"set a 1", "set b 2", "set c 3", "del b", "cas a 1 9"}
	case "counter":
		cmds = []string{"add 7", "add -3", "add 100"}
	case "bank":
		cmds = []string{"open alice", "open bob", "deposit alice 100", "deposit bob 40", "transfer alice bob 25", "withdraw bob 10"}
	case "queue":
		cmds = []string{"enq x", "enq y", "enq z", "deq", "enq w"}
	case "recorder":
		cmds = []string{"first cmd", "second  cmd", "third"}
	case "stack":
		cmds = []string{"push a", "push b", "push c", "pop"}
	default:
		t.Fatalf("unknown machine %q", name)
	}
	for _, c := range cmds {
		m.Apply([]byte(c))
	}
}

// durableMachines are the machines under the snapshot/restore contract.
var durableMachines = []string{"kv", "counter", "bank", "queue", "recorder", "stack"}

// TestSnapshotRestoreIdentity: Restore(Snapshot()) on a fresh machine of
// the same kind must reproduce the fingerprint exactly — the property
// replica recovery's byte-identical-convergence check rests on.
func TestSnapshotRestoreIdentity(t *testing.T) {
	for _, name := range durableMachines {
		name := name
		t.Run(name, func(t *testing.T) {
			src, err := New(name)
			if err != nil {
				t.Fatal(err)
			}
			populate(t, name, src)
			blob, err := src.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			dst, err := New(name)
			if err != nil {
				t.Fatal(err)
			}
			// Dirty the destination first: Restore must replace, not merge.
			populate(t, name, dst)
			dst.Apply([]byte("extra noise"))
			if err := dst.Restore(blob); err != nil {
				t.Fatalf("restore: %v", err)
			}
			if got, want := dst.Fingerprint(), src.Fingerprint(); got != want {
				t.Fatalf("fingerprint mismatch after restore:\n got %q\nwant %q", got, want)
			}
			// The restored machine must keep operating identically.
			r1, _ := src.Apply([]byte("probe probe"))
			r2, _ := dst.Apply([]byte("probe probe"))
			if string(r1) != string(r2) {
				t.Fatalf("post-restore divergence: %q vs %q", r1, r2)
			}
			if dst.Fingerprint() != src.Fingerprint() {
				t.Fatalf("post-restore apply diverged fingerprints")
			}
		})
	}
}

// TestRestoreEmptySnapshot: a snapshot of a pristine machine restores to a
// pristine machine.
func TestRestoreEmptySnapshot(t *testing.T) {
	for _, name := range durableMachines {
		name := name
		t.Run(name, func(t *testing.T) {
			src, _ := New(name)
			blob, err := src.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			dst, _ := New(name)
			populate(t, name, dst)
			if err := dst.Restore(blob); err != nil {
				t.Fatalf("restore: %v", err)
			}
			if dst.Fingerprint() != src.Fingerprint() {
				t.Fatalf("empty restore left state behind: %q", dst.Fingerprint())
			}
		})
	}
}

// TestRestoreCorruptSnapshot: a flipped byte anywhere in the image must
// surface an error, never a silently wrong machine — and the failed
// restore must leave the machine's prior state intact enough to detect
// (we only assert the error here; recovery discards the machine on error).
func TestRestoreCorruptSnapshot(t *testing.T) {
	for _, name := range durableMachines {
		name := name
		t.Run(name, func(t *testing.T) {
			src, _ := New(name)
			populate(t, name, src)
			blob, err := src.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			// Corrupt the body (past the header line) one byte at a time.
			headerEnd := strings.IndexByte(string(blob), '\n') + 1
			if headerEnd >= len(blob) {
				// Empty body (should not happen after populate).
				t.Fatalf("snapshot has no body: %q", blob)
			}
			for off := headerEnd; off < len(blob); off++ {
				tampered := append([]byte(nil), blob...)
				tampered[off] ^= 0x02
				dst, _ := New(name)
				if err := dst.Restore(tampered); err == nil {
					t.Fatalf("corrupted snapshot (byte %d) restored without error", off)
				}
			}
			// Header tampering: wrong machine name and wrong magic both fail.
			other := "kv"
			if name == "kv" {
				other = "bank"
			}
			wrong, err := func() ([]byte, error) {
				m, _ := New(other)
				return m.Snapshot()
			}()
			if err != nil {
				t.Fatal(err)
			}
			dst, _ := New(name)
			if err := dst.Restore(wrong); err == nil {
				t.Fatalf("foreign machine snapshot restored without error")
			}
			if err := dst.Restore([]byte("garbage")); err == nil {
				t.Fatalf("garbage restored without error")
			}
			if err := dst.Restore(nil); err == nil {
				t.Fatalf("nil snapshot restored without error")
			}
		})
	}
}
