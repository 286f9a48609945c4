package cluster

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/check"
)

// driveRestartUnderLoad runs the canonical crash/restart scenario against a
// running cluster: load, crash replica `victim` mid-stream, more load while it
// is down, restart it, more load, then wait for the recovered replica to
// converge to the group's state. Returns the checker for final verification.
func driveRestartUnderLoad(t *testing.T, c *Cluster, ck *check.Checker, victim int) {
	t.Helper()
	cli, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	invoke := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if _, err := cli.Invoke(ctx, []byte(fmt.Sprintf("set k%d v%d", i, i))); err != nil {
				t.Fatalf("invoke %d: %v", i, err)
			}
		}
	}

	invoke(0, 16)
	c.Crash(0, victim)
	ck.MarkCrashed(c.Group()[victim])
	c.Suspect(0, c.Group()[victim])
	invoke(16, 32) // the surviving majority moves on

	if err := c.Restart(0, victim); err != nil {
		t.Fatalf("restart: %v", err)
	}
	invoke(32, 48) // load lands while the replica is catching up

	if !WaitUntil(30*time.Second, func() bool {
		return c.ReplicaStats(0, victim).Recoveries >= 1
	}) {
		t.Fatalf("replica %d never recovered; stats: %+v", victim, c.ReplicaStats(0, victim))
	}
	c.Trust(0, c.Group()[victim])
	invoke(48, 64) // the recovered replica participates again

	// Convergence: the restarted replica's machine must reach the byte-exact
	// state of the survivors.
	if !WaitUntil(30*time.Second, func() bool {
		want := c.Machine(0, (victim+1)%3).Fingerprint()
		return want != "" && c.Machine(0, victim).Fingerprint() == want
	}) {
		t.Fatalf("fingerprints diverge after recovery:\n  r%d: %q\n  r%d: %q",
			victim, c.Machine(0, victim).Fingerprint(),
			(victim+1)%3, c.Machine(0, (victim+1)%3).Fingerprint())
	}
	if !WaitUntil(30*time.Second, ck.LivenessSettled) {
		t.Fatal("run never settled after recovery")
	}
	for _, v := range append(ck.Verify(), ck.VerifyLiveness()...) {
		t.Errorf("checker: %v", v)
	}
	if ck.Recoveries() != 1 {
		t.Errorf("checker saw %d recoveries, want 1", ck.Recoveries())
	}
}

// TestRestartUnderLoad drives the full crash/restart/catch-up cycle on every
// backend, with the trace checker — recovery proposition included — attached.
// OAR additionally runs with a WAL, so its recovery is local replay plus peer
// catch-up; the baselines recover from peers alone.
func TestRestartUnderLoad(t *testing.T) {
	for _, proto := range []Protocol{OAR, "fixedseq", "ctab"} {
		t.Run(string(proto), func(t *testing.T) {
			ck := check.New(3)
			opts := Options{
				Protocol:          proto,
				N:                 3,
				FD:                FDOracle,
				Machine:           "kv",
				EpochRequestLimit: 4,
				Tracer:            ck,
			}
			if proto == OAR {
				opts.WALRoot = t.TempDir()
			}
			c, err := New(opts)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Stop()
			driveRestartUnderLoad(t, c, ck, 2)
		})
	}
}

// TestRestartNotCrashed pins the Restart precondition.
func TestRestartNotCrashed(t *testing.T) {
	c, err := New(Options{N: 3, FD: FDNever})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	if err := c.Restart(0, 1); err == nil {
		t.Fatal("restarting a live replica must error")
	}
}

// TestRestartReplaysWAL exercises the disk path in isolation: a single-replica
// OAR group (no peers to catch up from) is crashed after its epochs are
// closed and durable, and the restarted incarnation must rebuild the exact
// machine state from snapshot+WAL replay alone.
func TestRestartReplaysWAL(t *testing.T) {
	ck := check.New(1)
	c, err := New(Options{
		N:                 1,
		FD:                FDNever,
		Machine:           "kv",
		EpochRequestLimit: 4,
		WALRoot:           t.TempDir(),
		SnapshotEvery:     2,
		Tracer:            ck,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	cli, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	const n = 32 // multiple of the epoch limit: every delivery ends up durable
	for i := 0; i < n; i++ {
		if _, err := cli.Invoke(ctx, []byte(fmt.Sprintf("set k%d v%d", i, i))); err != nil {
			t.Fatal(err)
		}
	}
	if !WaitUntil(10*time.Second, func() bool {
		return c.ReplicaStats(0, 0).Delivered >= n
	}) {
		t.Fatalf("only %d of %d deliveries became definitive", c.ReplicaStats(0, 0).Delivered, n)
	}
	want := c.Machine(0, 0).Fingerprint()

	c.Crash(0, 0)
	ck.MarkCrashed(c.Group()[0])
	if err := c.Restart(0, 0); err != nil {
		t.Fatal(err)
	}
	if !WaitUntil(10*time.Second, func() bool {
		return c.ReplicaStats(0, 0).Recoveries >= 1
	}) {
		t.Fatal("single replica never finished local recovery")
	}
	if got := c.Machine(0, 0).Fingerprint(); got != want {
		t.Fatalf("WAL replay rebuilt %q, want %q", got, want)
	}
	for _, v := range ck.Verify() {
		t.Errorf("checker: %v", v)
	}
}
