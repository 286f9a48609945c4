package core_test

import (
	"context"
	"testing"
	"time"

	"repro/internal/backend"
	"repro/internal/check"
	"repro/internal/cluster"
	"repro/internal/proto"
)

// readClient is the fast-path surface a cluster client exposes when its
// backend supports zero-ordering reads.
type readClient interface {
	cluster.Invoker
	backend.ReadInvoker
}

// TestReadFastPathHappyPath: a read after an adopted write is answered
// without any ordering work — deliveries don't move — at a position at or
// beyond the write, with the result the write installed.
func TestReadFastPathHappyPath(t *testing.T) {
	ck := check.New(3)
	c := mustCluster(t, cluster.Options{N: 3, Machine: "kv", FD: cluster.FDNever, Tracer: ck})

	cli, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	rc, ok := cli.(readClient)
	if !ok {
		t.Fatal("cluster client does not expose the read fast path")
	}
	w := invoke(t, cli, "set a 1")

	// The write was adopted once a majority delivered it; the last replica's
	// delivery may still be in flight. Sample the delivery count only once
	// every replica has caught up, so only the read could move it.
	if !c.Quiesce(testTimeout) {
		t.Fatal("cluster did not quiesce after the write")
	}
	ctx, cancel := context.WithTimeout(context.Background(), testTimeout)
	defer cancel()
	before := c.TotalStats().Delivered
	r, err := rc.InvokeRead(ctx, []byte("get a"))
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if string(r.Result) != "1" {
		t.Fatalf("read %q, want %q", r.Result, "1")
	}
	if r.Pos < w.Pos {
		t.Fatalf("read adopted at pos %d below the write's pos %d", r.Pos, w.Pos)
	}
	if after := c.TotalStats().Delivered; after != before {
		t.Fatalf("read moved the delivery count %d -> %d: it entered the ordered path", before, after)
	}
	if !cluster.WaitUntil(testTimeout, func() bool { return c.TotalStats().ReadsServed == 3 }) {
		t.Fatalf("reads served = %d, want 3 (one per replica)", c.TotalStats().ReadsServed)
	}
	if got := c.TotalStats().ReadFallbacks; got != 0 {
		t.Fatalf("read fallbacks = %d, want 0", got)
	}
	if ck.ReadAdoptions() != 1 {
		t.Fatalf("checker saw %d read adoptions, want 1", ck.ReadAdoptions())
	}
	verifyAll(t, ck, true)
}

// TestReadNeverAdoptsDoomedPrefix replays the Figure 4 rollback with a
// fast-path read in flight against the minority's optimistic prefix: the
// read observes state ("set c" applied) that the minority later
// Opt-undelivers. The client's majority rule must refuse the adoption — the
// minority's union weight never reaches 3 of 5 — and the read must complete
// through the ordered fallback after the heal instead. This is the
// read-path analog of the m3 write-adoption refusal, checked end to end by
// the trace checker's read-consistency and read-monotonicity propositions.
func TestReadNeverAdoptsDoomedPrefix(t *testing.T) {
	ck := check.New(5)
	c := mustCluster(t, cluster.Options{N: 5, Machine: "kv", FD: cluster.FDOracle, Tracer: ck})
	pmin := []proto.NodeID{0, 1}
	pmaj := []proto.NodeID{2, 3, 4}

	c1, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	rc, ok := c1.(readClient)
	if !ok {
		t.Fatal("cluster client does not expose the read fast path")
	}
	c2, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}

	// Stage A: two writes committed everywhere (positions 1, 2).
	invoke(t, c1, "set a 1")
	invoke(t, c1, "set b 2")
	if !cluster.WaitUntil(testTimeout, func() bool { return c.TotalStats().OptDelivered == 10 }) {
		t.Fatalf("stage A incomplete: %+v", c.TotalStats())
	}

	// Stage B: partition the minority {p0 (sequencer), p1} and c1 away.
	c.Net(0).BlockGroups(pmin, pmaj)
	c1ID := proto.ClientID(0)
	c.Net(0).BlockGroups([]proto.NodeID{c1ID}, pmaj)

	// "set c 3" reaches only the minority, which opt-delivers it at pos 3 —
	// the prefix that is doomed to roll back.
	setCdone := make(chan proto.Reply, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), testTimeout)
		defer cancel()
		if r, err := c1.Invoke(ctx, []byte("set c 3")); err == nil {
			setCdone <- r
		}
	}()
	if !cluster.WaitUntil(testTimeout, func() bool {
		return c.ReplicaStats(0, 0).OptDelivered == 3 && c.ReplicaStats(0, 1).OptDelivered == 3
	}) {
		t.Fatal("minority did not opt-deliver set c")
	}

	// The read in flight during the rollback window: both minority replicas
	// answer "get c" inline from the doomed prefix (epoch 0, pos 3, result
	// "3"), but their union weight {p0, p1} is 2 < 3 — the read must hang
	// unadopted exactly like the m3 write, then fall back to the ordered
	// path, which the partition also blocks until the heal.
	readDone := make(chan proto.Reply, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), testTimeout)
		defer cancel()
		if r, err := rc.InvokeRead(ctx, []byte("get c")); err == nil {
			readDone <- r
		}
	}()
	select {
	case r := <-readDone:
		t.Fatalf("client adopted a minority-weight read %+v from the doomed prefix", r)
	case <-time.After(100 * time.Millisecond): // beyond the fallback timeout
	}
	// The fallen-back read is an ordered request that the partition lets
	// reach only the minority, which opt-delivers it at pos 4 — doomed too.
	// Waiting for it keeps it from racing "set d" below for that position.
	if !cluster.WaitUntil(testTimeout, func() bool {
		return c.ReplicaStats(0, 0).OptDelivered == 4 && c.ReplicaStats(0, 1).OptDelivered == 4
	}) {
		t.Fatal("minority did not opt-deliver the fallen-back read")
	}

	// "set d 4" from c2 reaches everyone; the minority opt-delivers it at
	// pos 5, the majority buffers it for the conservative phase.
	setDdone := make(chan proto.Reply, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), testTimeout)
		defer cancel()
		if r, err := c2.Invoke(ctx, []byte("set d 4")); err == nil {
			setDdone <- r
		}
	}()
	if !cluster.WaitUntil(testTimeout, func() bool {
		return c.ReplicaStats(0, 0).OptDelivered == 5 && c.ReplicaStats(0, 1).OptDelivered == 5
	}) {
		t.Fatal("minority did not opt-deliver set d")
	}

	// The majority suspects the minority, closes epoch 0 without it and
	// A-delivers "set d" at pos 3.
	for _, i := range []int{2, 3, 4} {
		c.Oracle(0, i).Suspect(0)
		c.Oracle(0, i).Suspect(1)
	}
	if !cluster.WaitUntil(testTimeout, func() bool {
		for _, i := range []int{2, 3, 4} {
			st := c.ReplicaStats(0, i)
			if st.Epochs < 1 || st.ADelivered < 1 {
				return false
			}
		}
		return true
	}) {
		t.Fatal("majority did not complete the conservative phase")
	}

	// Heal; the minority rolls back {set d, get c, set c} and converges; the
	// pending write and the fallen-back read both complete.
	c.TrustEverywhere(0)
	c.TrustEverywhere(1)
	c.Net(0).Heal()

	var read proto.Reply
	select {
	case read = <-readDone:
	case <-time.After(testTimeout):
		t.Fatal("read never completed after the heal")
	}
	select {
	case <-setCdone:
	case <-time.After(testTimeout):
		t.Fatal("set c never adopted after the heal")
	}
	select {
	case <-setDdone:
	case <-time.After(testTimeout):
		t.Fatal("set d never adopted after the heal")
	}
	// At least set c and set d roll back at both minority replicas (the
	// fallen-back read between them adds its own undos).
	if !cluster.WaitUntil(testTimeout, func() bool { return ck.Undeliveries() >= 4 }) {
		t.Fatalf("undeliveries = %d, want >= 4", ck.Undeliveries())
	}
	// The fallback read is an ordered adoption: no fast-path read adoption
	// may exist in this trace, and the result must reflect the definitive
	// order at the read's position, never the rolled-back prefix's "3" at a
	// pre-rollback position.
	if ck.ReadAdoptions() != 0 {
		t.Fatalf("checker saw %d fast-path read adoptions, want 0", ck.ReadAdoptions())
	}
	if read.Pos <= 2 {
		t.Fatalf("ordered read adopted at pos %d, inside the pre-partition prefix", read.Pos)
	}
	// The verdict is about the whole group: wait until the minority has
	// rolled its doomed prefix back and caught up.
	settle(t, c, ck)
	verifyAll(t, ck, true)
}
