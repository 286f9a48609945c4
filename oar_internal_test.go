package oar

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestNextIncarnation pins the WAL directory's boot counter: a fresh
// directory counts 0, 1, 2; a corrupt BOOT file is an error naming it; and a
// BOOT.tmp left by a crash between write and rename does not change the
// count. Durability across a power loss (the fsyncs) is not tested here:
// there is no file-system seam to drop unsynced writes.
func TestNextIncarnation(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	for want := uint64(0); want < 3; want++ {
		got, err := nextIncarnation(dir)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("boot %d: incarnation %d", want, got)
		}
	}

	tmp := filepath.Join(dir, "BOOT.tmp")
	if err := os.WriteFile(tmp, []byte("99\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if got, err := nextIncarnation(dir); err != nil || got != 3 {
		t.Fatalf("with a leftover BOOT.tmp: incarnation %d, %v; want 3", got, err)
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Errorf("BOOT.tmp survived the boot: %v", err)
	}

	boot := filepath.Join(dir, "BOOT")
	if err := os.WriteFile(boot, []byte("three\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := nextIncarnation(dir)
	if err == nil || !strings.Contains(err.Error(), boot) {
		t.Fatalf("corrupt BOOT: err = %v, want one naming %s", err, boot)
	}
}
