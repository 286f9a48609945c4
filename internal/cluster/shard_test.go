package cluster

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/backend"
	"repro/internal/check"
	"repro/internal/proto"
)

const shardTestTimeout = 30 * time.Second

// shardCheckers builds one trace checker per shard and the TracerFor hook
// wiring them in. Each group has its own total order, so each gets its own
// checker.
func shardCheckers(shards, n int) ([]*check.Checker, func(s int) backend.Tracer) {
	cks := make([]*check.Checker, shards)
	for s := range cks {
		cks[s] = check.New(n)
	}
	return cks, func(s int) backend.Tracer { return cks[s] }
}

// keyFor finds a command whose key routes to the wanted shard.
func keyFor(t *testing.T, c *Cluster, shard int) string {
	t.Helper()
	for i := 0; i < 10000; i++ {
		key := fmt.Sprintf("k%d", i)
		if int(c.Router().Route([]byte(key))) == shard {
			return key
		}
	}
	t.Fatalf("no key routes to shard %d", shard)
	return ""
}

func TestShardValidation(t *testing.T) {
	if _, err := New(Options{N: 3, Shards: -1}); err == nil {
		t.Error("negative Shards accepted")
	}
}

// TestShardedEndToEnd: a 2-shard kv cluster must serve reads and writes
// through one routing client, keep each group's checker clean, spread load
// over both groups, and never leak a frame across groups.
func TestShardedEndToEnd(t *testing.T) {
	cks, tracerFor := shardCheckers(2, 3)
	c, err := New(Options{N: 3, Shards: 2, Machine: "kv", FD: FDNever, TracerFor: tracerFor})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	if c.Shards() != 2 {
		t.Fatalf("Shards() = %d", c.Shards())
	}
	cli, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), shardTestTimeout)
	defer cancel()

	const keys = 16
	for i := 0; i < keys; i++ {
		if _, err := cli.Invoke(ctx, []byte(fmt.Sprintf("set k%d v%d", i, i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < keys; i++ {
		reply, err := cli.Invoke(ctx, []byte(fmt.Sprintf("get k%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		if string(reply.Result) != fmt.Sprintf("v%d", i) {
			t.Fatalf("get k%d = %q", i, reply.Result)
		}
	}

	// The client's last reply only proves a majority delivered: wait for the
	// slowest replica of each group before reading counters and verdicts.
	if !c.Quiesce(shardTestTimeout) {
		t.Fatal("cluster did not quiesce")
	}
	for s, ck := range cks {
		if !ck.LivenessSettled() {
			t.Errorf("shard %d quiesced with requests missing at a replica", s)
		}
	}
	// Both groups carried traffic, with no cross-group leakage.
	for s := 0; s < 2; s++ {
		st := c.ShardStats(s)
		if st.OptDelivered == 0 {
			t.Errorf("shard %d served no requests", s)
		}
		if st.ForeignDropped != 0 {
			t.Errorf("shard %d dropped %d foreign messages on a disjoint network", s, st.ForeignDropped)
		}
	}
	// Each group's trace satisfies Propositions 1–7 on its own.
	for s, ck := range cks {
		if vs := ck.Verify(); len(vs) != 0 {
			t.Errorf("shard %d checker: %v", s, vs)
		}
	}
	// The two groups really are independent sequences: each shard's replicas
	// delivered only its own requests, and the totals add up.
	if got := c.DeliveredTotal(); got != uint64(3*2*keys) {
		t.Errorf("DeliveredTotal = %d, want %d", got, 3*2*keys)
	}
}

// TestShardFaultIsolation crashes the sequencer of one shard mid-load and
// requires that (a) the other shards keep serving with normal latency while
// the wounded shard is stalled, (b) the wounded shard fails over and
// completes its pending request once its detector fires, and (c) every
// shard's trace checker stays clean.
func TestShardFaultIsolation(t *testing.T) {
	const shards = 3
	cks, tracerFor := shardCheckers(shards, 3)
	c, err := New(Options{N: 3, Shards: shards, FD: FDOracle, TracerFor: tracerFor})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	cli, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), shardTestTimeout)
	defer cancel()

	keyOf := make([]string, shards)
	for s := range keyOf {
		keyOf[s] = keyFor(t, c, s)
	}
	// Warm-up: every shard serves.
	for s := 0; s < shards; s++ {
		if _, err := cli.Invoke(ctx, []byte(keyOf[s]+" warm")); err != nil {
			t.Fatalf("warm-up shard %d: %v", s, err)
		}
	}

	// Crash shard 1's epoch-0 sequencer. Nobody suspects it yet, so shard 1
	// is stalled: its pending request cannot be ordered.
	const wounded = 1
	cks[wounded].MarkCrashed(c.Group()[0])
	c.Crash(wounded, 0)
	stalled := make(chan proto.Reply, 1)
	go func() {
		if r, err := cli.Invoke(ctx, []byte(keyOf[wounded]+" after-crash")); err == nil {
			stalled <- r
		}
	}()

	// The healthy shards must keep serving while shard 1 is down. Their
	// sequencers, detectors and networks are disjoint from the wounded
	// group, so each invoke completes quickly; the per-invoke deadline turns
	// any cross-shard interference into a hard failure.
	for round := 0; round < 5; round++ {
		for _, s := range []int{0, 2} {
			ictx, icancel := context.WithTimeout(ctx, 5*time.Second)
			if _, err := cli.Invoke(ictx, []byte(fmt.Sprintf("%s load%d", keyOf[s], round))); err != nil {
				icancel()
				t.Fatalf("healthy shard %d stalled during shard %d's outage: %v", s, wounded, err)
			}
			icancel()
		}
	}
	select {
	case <-stalled:
		t.Fatal("wounded shard made progress with a crashed, unsuspected sequencer")
	default:
	}

	// Let shard 1's detector fire: its group fails over (PhaseII + consensus
	// among the two survivors) and the stalled request completes.
	c.Suspect(wounded, c.Group()[0])
	select {
	case <-stalled:
	case <-time.After(shardTestTimeout):
		t.Fatal("wounded shard never failed over")
	}
	if !WaitUntil(shardTestTimeout, func() bool { return c.ShardStats(wounded).Epochs >= 1 }) {
		t.Fatalf("wounded shard closed no epoch: %+v", c.ShardStats(wounded))
	}

	// Safety held everywhere, independently.
	for s, ck := range cks {
		if vs := ck.Verify(); len(vs) != 0 {
			t.Errorf("shard %d checker: %v", s, vs)
		}
	}
	if st := c.TotalStats(); st.ForeignDropped != 0 {
		t.Errorf("foreign-group traffic observed on disjoint networks: %+v", st)
	}
}

// TestShardedBaselineFaultIsolation is the proof that sharding is no longer
// an OAR privilege: a 2-shard fixed-sequencer cluster boots through the same
// backend path, routes by key hash, and — using the group-qualified fault
// hooks — one shard's sequencer crash stalls only that shard until its
// (scripted) detector fires the view change, while the other keeps serving.
func TestShardedBaselineFaultIsolation(t *testing.T) {
	const shards = 2
	c, err := New(Options{Protocol: FixedSeq, N: 3, Shards: shards, FD: FDOracle})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	cli, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), shardTestTimeout)
	defer cancel()

	keyOf := make([]string, shards)
	for s := range keyOf {
		keyOf[s] = keyFor(t, c, s)
	}
	for s := 0; s < shards; s++ {
		if _, err := cli.Invoke(ctx, []byte(keyOf[s]+" warm")); err != nil {
			t.Fatalf("warm-up shard %d: %v", s, err)
		}
	}

	// Crash shard 1's view-0 sequencer; nobody suspects it yet.
	const wounded = 1
	c.Crash(wounded, 0)
	stalled := make(chan proto.Reply, 1)
	go func() {
		if r, err := cli.Invoke(ctx, []byte(keyOf[wounded]+" after-crash")); err == nil {
			stalled <- r
		}
	}()

	// The healthy shard keeps serving under its own per-invoke deadline.
	for round := 0; round < 5; round++ {
		ictx, icancel := context.WithTimeout(ctx, 5*time.Second)
		if _, err := cli.Invoke(ictx, []byte(fmt.Sprintf("%s load%d", keyOf[0], round))); err != nil {
			icancel()
			t.Fatalf("healthy shard stalled during shard %d's outage: %v", wounded, err)
		}
		icancel()
	}
	select {
	case <-stalled:
		t.Fatal("wounded shard made progress with a crashed, unsuspected sequencer")
	default:
	}

	// Script the suspicion in the wounded group only: its survivors bump the
	// view, the next rank re-orders, the stalled request completes.
	c.Suspect(wounded, c.Group()[0])
	select {
	case <-stalled:
	case <-time.After(shardTestTimeout):
		t.Fatal("wounded shard never failed over")
	}
	if views := c.ShardStats(wounded).Views; views == 0 {
		t.Errorf("wounded shard recorded no view change: %+v", c.ShardStats(wounded))
	}
	// The healthy shard saw no view change and no foreign traffic.
	if views := c.ShardStats(0).Views; views != 0 {
		t.Errorf("healthy shard changed views during another shard's outage: %+v", c.ShardStats(0))
	}
	if st := c.TotalStats(); st.ForeignDropped != 0 {
		t.Errorf("foreign-group traffic observed on disjoint networks: %+v", st)
	}
}

// TestShardedCTab boots the consensus-per-batch baseline across two shards:
// the conservative protocol must shard exactly like the others.
func TestShardedCTab(t *testing.T) {
	c, err := New(Options{Protocol: CTab, N: 3, Shards: 2, Machine: "kv", FD: FDNever})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	cli, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), shardTestTimeout)
	defer cancel()
	const keys = 8
	for i := 0; i < keys; i++ {
		if _, err := cli.Invoke(ctx, []byte(fmt.Sprintf("set k%d v%d", i, i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < keys; i++ {
		reply, err := cli.Invoke(ctx, []byte(fmt.Sprintf("get k%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		if string(reply.Result) != fmt.Sprintf("v%d", i) {
			t.Fatalf("get k%d = %q", i, reply.Result)
		}
	}
	for s := 0; s < 2; s++ {
		st := c.ShardStats(s)
		if st.Delivered == 0 || st.Batches == 0 {
			t.Errorf("shard %d served nothing: %+v", s, st)
		}
	}
	// Delivery at the non-replying replicas is asynchronous; wait for the
	// cluster-wide total to settle.
	if !WaitUntil(shardTestTimeout, func() bool { return c.DeliveredTotal() == uint64(3*2*keys) }) {
		t.Errorf("DeliveredTotal = %d, want %d", c.DeliveredTotal(), 3*2*keys)
	}
}
