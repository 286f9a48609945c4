package core_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/check"
	"repro/internal/cluster"
	"repro/internal/memnet"
	"repro/internal/proto"
)

// TestLaggingReplicaCatchesUp: p2 is cut off while the rest of the group
// advances through several GC epochs; after healing it must replay the
// buffered orderings/decisions and converge. Exercises the future-epoch
// SeqOrder buffer, pending-PhaseII and stored-decision paths.
func TestLaggingReplicaCatchesUp(t *testing.T) {
	ck := check.New(3)
	// Heartbeat FD: the isolated p2 becomes the sequencer every third epoch
	// and must be suspected for the majority to keep advancing.
	c := mustCluster(t, cluster.Options{
		N: 3, Tracer: ck, EpochRequestLimit: 2,
		FDTimeout:         15 * time.Millisecond,
		HeartbeatInterval: 3 * time.Millisecond,
	})
	cli, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	invoke(t, cli, "m1")

	// Isolate p2 (messages held, not lost — reliable channels).
	c.Net(0).BlockGroups([]proto.NodeID{2}, []proto.NodeID{0, 1})

	// The majority {p0, p1} keeps going through multiple epochs. With
	// EpochRequestLimit=2 the sequencer forces PhaseII repeatedly; consensus
	// instances complete with the majority alone.
	for i := 2; i <= 9; i++ {
		invoke(t, cli, fmt.Sprintf("m%d", i))
	}
	if !cluster.WaitUntil(testTimeout, func() bool { return c.ReplicaStats(0, 0).Epochs >= 2 }) {
		t.Fatalf("majority did not advance epochs: %+v", c.TotalStats())
	}
	if got := c.ReplicaStats(0, 2).OptDelivered + c.ReplicaStats(0, 2).ADelivered; got > 1 {
		t.Fatalf("isolated replica delivered %d messages", got)
	}

	// Heal: p2 replays held traffic (orderings for later epochs arrive
	// before it finishes earlier phase 2s) and converges.
	c.Net(0).Heal()
	fingerprintsConverge(t, c, []int{0, 1, 2})
	verifyAll(t, ck, true)
}

// TestSeqOrderPayloadPiggyback: a client request reaches ONLY the sequencer
// (its copies to the other replicas and the sequencer's R-multicast relays of
// it are dropped); the others must still Opt-deliver it because the ordering
// message carries full payloads.
func TestSeqOrderPayloadPiggyback(t *testing.T) {
	ck := check.New(3)
	c := mustCluster(t, cluster.Options{N: 3, FD: cluster.FDNever, Tracer: ck})
	cli, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	// Drop the client's R-multicast copies to p1 and p2, and p0's relays of
	// them, but not the sequencer's ordering.
	cid := proto.ClientID(0)
	c.Net(0).SetFilter(func(from, to proto.NodeID, payload []byte) memnet.Verdict {
		if to == proto.NodeID(0) {
			return memnet.Deliver
		}
		if from == cid || (from == proto.NodeID(0) && proto.Kind(payload[0]) == proto.KindRMcast) {
			return memnet.Drop
		}
		return memnet.Deliver
	})

	reply := invoke(t, cli, "only-p0-gets-this")
	if reply.Pos != 1 {
		t.Fatalf("pos = %d", reply.Pos)
	}
	// All three replicas must have delivered it — p1/p2 learned the payload
	// from the SeqOrder message alone.
	if !cluster.WaitUntil(testTimeout, func() bool { return c.TotalStats().OptDelivered == 3 }) {
		t.Fatalf("piggyback failed: %+v", c.TotalStats())
	}
	verifyAll(t, ck, true)
}

// TestTwoCrashesWithFive: n=5 tolerates two crash failures; crash the
// sequencer of epoch 0 and then another replica, service continues.
func TestTwoCrashesWithFive(t *testing.T) {
	ck := check.New(5)
	c := mustCluster(t, cluster.Options{
		N: 5, Tracer: ck,
		FDTimeout:         15 * time.Millisecond,
		HeartbeatInterval: 3 * time.Millisecond,
	})
	cli, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	invoke(t, cli, "m1")
	ck.MarkCrashed(proto.NodeID(0))
	c.Crash(0, 0)
	invoke(t, cli, "m2")
	invoke(t, cli, "m3")
	ck.MarkCrashed(proto.NodeID(2))
	c.Crash(0, 2)
	for i := 4; i <= 7; i++ {
		invoke(t, cli, fmt.Sprintf("m%d", i))
	}
	fingerprintsConverge(t, c, []int{1, 3, 4})
	verifyAll(t, ck, true)
}

// TestSequencerRotationWrapsAround: with a 1-request epoch limit the
// sequencer role must rotate through the whole group and wrap.
func TestSequencerRotationWrapsAround(t *testing.T) {
	ck := check.New(3)
	c := mustCluster(t, cluster.Options{
		N: 3, FD: cluster.FDNever, Tracer: ck, EpochRequestLimit: 1,
	})
	cli, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 8; i++ {
		reply := invoke(t, cli, fmt.Sprintf("m%d", i))
		if reply.Pos != uint64(i) {
			t.Fatalf("pos %d for m%d", reply.Pos, i)
		}
	}
	// 8 requests, 1 per epoch: epochs well beyond n=3, so the rotating
	// sequencer wrapped at least twice.
	if !cluster.WaitUntil(testTimeout, func() bool { return c.ReplicaStats(0, 0).Epochs >= 6 }) {
		t.Fatalf("epochs = %+v", c.ReplicaStats(0, 0))
	}
	fingerprintsConverge(t, c, []int{0, 1, 2})
	verifyAll(t, ck, true)
}

// TestNonSequencerCrashIsSeamless: crashing a replica that is neither the
// sequencer nor needed for the majority must not even trigger phase 2.
func TestNonSequencerCrashIsSeamless(t *testing.T) {
	ck := check.New(3)
	c := mustCluster(t, cluster.Options{
		N: 3, FD: cluster.FDNever, Tracer: ck,
	})
	cli, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	invoke(t, cli, "m1")
	ck.MarkCrashed(proto.NodeID(2))
	c.Crash(0, 2)
	for i := 2; i <= 5; i++ {
		invoke(t, cli, fmt.Sprintf("m%d", i))
	}
	if got := c.TotalStats().Epochs; got != 0 {
		t.Errorf("non-sequencer crash triggered %d phase-2 runs", got)
	}
	fingerprintsConverge(t, c, []int{0, 1})
	verifyAll(t, ck, true)
}

// TestSuspicionStormThenStabilize: every replica suspects everyone for a
// while (epochs churn, consensus rounds rotate past n); once the detectors
// stabilize (◊S eventual accuracy), the service must make progress again.
func TestSuspicionStormThenStabilize(t *testing.T) {
	ck := check.New(3)
	c := mustCluster(t, cluster.Options{N: 3, FD: cluster.FDOracle, Tracer: ck})
	cli, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	invoke(t, cli, "m1")

	for _, id := range c.Group() {
		c.SuspectEverywhere(id)
	}
	// Issue a request into the storm; it cannot be served while everyone
	// nacks everyone.
	done := make(chan proto.Reply, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), testTimeout)
		defer cancel()
		if r, err := cli.Invoke(ctx, []byte("m2")); err == nil {
			done <- r
		}
	}()
	time.Sleep(50 * time.Millisecond) // let epochs churn

	for _, id := range c.Group() {
		c.TrustEverywhere(id)
	}
	select {
	case r := <-done:
		if r.Pos != 2 {
			t.Fatalf("m2 at pos %d", r.Pos)
		}
	case <-time.After(testTimeout):
		t.Fatal("no progress after detectors stabilized")
	}
	invoke(t, cli, "m3")
	fingerprintsConverge(t, c, []int{0, 1, 2})
	verifyAll(t, ck, true)
}

// TestGarbageOnTheWire: servers and clients must survive arbitrary bytes
// arriving on their transport without crashing or corrupting state.
func TestGarbageOnTheWire(t *testing.T) {
	ck := check.New(3)
	c := mustCluster(t, cluster.Options{N: 3, FD: cluster.FDNever, Tracer: ck})
	cli, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	invoke(t, cli, "m1")

	evil := c.Net(0).Node(proto.ClientID(99))
	payloads := [][]byte{
		nil,
		{0x00},
		{0xFF, 0xFF, 0xFF},
		{byte(proto.KindRMcast), 0xFF},
		{byte(proto.KindSeqOrder), 0xFF, 0xFF},
		{byte(proto.KindEstimate)},
		{byte(proto.KindDecide), 0x01},
		{byte(proto.KindReply), 0xFF},
	}
	for _, p := range payloads {
		for _, id := range c.Group() {
			_ = evil.Send(id, p)
		}
		_ = evil.Send(proto.ClientID(0), p)
	}

	// The cluster still works.
	reply := invoke(t, cli, "m2")
	if reply.Pos != 2 {
		t.Fatalf("pos = %d after garbage injection", reply.Pos)
	}
	if !cluster.WaitUntil(testTimeout, func() bool { return c.TotalStats().OptDelivered == 6 }) {
		t.Fatalf("deliveries incomplete: %+v", c.TotalStats())
	}
	verifyAll(t, ck, true)
}

// TestSingleReplicaDegenerate: n=1 is a legal (non-fault-tolerant) group;
// the sequencer is the whole majority.
func TestSingleReplicaDegenerate(t *testing.T) {
	ck := check.New(1)
	c := mustCluster(t, cluster.Options{N: 1, FD: cluster.FDNever, Tracer: ck, EpochRequestLimit: 2})
	cli, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		reply := invoke(t, cli, fmt.Sprintf("m%d", i))
		if reply.Pos != uint64(i) {
			t.Fatalf("pos %d", reply.Pos)
		}
	}
	verifyAll(t, ck, true)
}

// TestInterleavedClientsSeeOneOrder: two clients race commuting and
// non-commuting operations on a kv store; whatever order wins, all replicas
// and all adopted replies agree on it.
func TestInterleavedClientsSeeOneOrder(t *testing.T) {
	ck := check.New(3)
	c := mustCluster(t, cluster.Options{N: 3, Machine: "kv", FD: cluster.FDNever, Tracer: ck})
	c1, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	c2, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), testTimeout)
	defer cancel()

	done := make(chan error, 2)
	for i, cli := range []cluster.Invoker{c1, c2} {
		go func(i int, cli cluster.Invoker) {
			for j := 0; j < 20; j++ {
				if _, err := cli.Invoke(ctx, []byte(fmt.Sprintf("set shared c%d-%d", i, j))); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(i, cli)
	}
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	reply := invoke(t, c1, "get shared")
	if !cluster.WaitUntil(testTimeout, func() bool { return c.TotalStats().OptDelivered == 3*41 }) {
		t.Fatalf("deliveries incomplete: %+v", c.TotalStats())
	}
	fingerprintsConverge(t, c, []int{0, 1, 2})
	// The read must reflect the last write in the agreed order at all replicas.
	fp := c.Machine(0, 0).Fingerprint()
	if want := "shared=" + string(reply.Result) + ";"; fp != want {
		t.Fatalf("final state %q does not match read %q", fp, reply.Result)
	}
	verifyAll(t, ck, true)
}
