package core_test

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/backend"
	"repro/internal/check"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/proto"
)

const testTimeout = 10 * time.Second

func mustCluster(t *testing.T, opts cluster.Options) *cluster.Cluster {
	t.Helper()
	c, err := cluster.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	return c
}

func invoke(t *testing.T, cli cluster.Invoker, cmd string) proto.Reply {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), testTimeout)
	defer cancel()
	reply, err := cli.Invoke(ctx, []byte(cmd))
	if err != nil {
		t.Fatalf("invoke %q: %v", cmd, err)
	}
	return reply
}

func verifyAll(t *testing.T, ck *check.Checker, liveness bool) {
	t.Helper()
	for _, v := range ck.Verify() {
		t.Error(v)
	}
	if liveness {
		for _, v := range ck.VerifyLiveness() {
			t.Error(v)
		}
	}
}

// settle waits until nothing moves any more: the live replicas stand level
// and every issued request has reached each of them.
func settle(t *testing.T, c *cluster.Cluster, ck *check.Checker) {
	t.Helper()
	if !c.Quiesce(testTimeout) || !cluster.WaitUntil(testTimeout, ck.LivenessSettled) {
		t.Fatal("cluster did not settle")
	}
}

// fingerprintsConverge waits for the cluster to quiesce, then requires all
// listed replicas — the live ones — to report the same machine fingerprint.
func fingerprintsConverge(t *testing.T, c *cluster.Cluster, replicas []int) {
	t.Helper()
	if !c.Quiesce(testTimeout) {
		t.Fatal("cluster did not quiesce")
	}
	ref := c.Machine(0, replicas[0]).Fingerprint()
	for _, i := range replicas[1:] {
		if got := c.Machine(0, i).Fingerprint(); got != ref {
			t.Fatalf("replica states did not converge:\np%d: %q\np%d: %q", replicas[0], ref, i, got)
		}
	}
}

// TestFailureFreeSequentialReplies reproduces the Figure 2 run: no failures,
// only phase 1, replies are consecutive positions.
func TestFailureFreeSequentialReplies(t *testing.T) {
	ck := check.New(3)
	c := mustCluster(t, cluster.Options{N: 3, FD: cluster.FDNever, Tracer: ck})
	cli, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		reply := invoke(t, cli, fmt.Sprintf("m%d", i))
		if reply.Pos != uint64(i) {
			t.Fatalf("request %d adopted at pos %d", i, reply.Pos)
		}
		if string(reply.Result) != fmt.Sprint(i) {
			t.Fatalf("request %d result %q", i, reply.Result)
		}
	}
	// Figure 2: only phase 1 executes — no epochs close, nothing A-delivered.
	st := c.TotalStats()
	if st.Epochs != 0 || st.ADelivered != 0 || st.OptUndelivered != 0 {
		t.Errorf("failure-free run used the conservative path: %+v", st)
	}
	ok := cluster.WaitUntil(testTimeout, func() bool { return c.TotalStats().OptDelivered == 15 })
	if !ok {
		t.Fatalf("not all replicas delivered: %+v", c.TotalStats())
	}
	fingerprintsConverge(t, c, []int{0, 1, 2})
	verifyAll(t, ck, true)
}

func TestConcurrentClientsKV(t *testing.T) {
	ck := check.New(3)
	c := mustCluster(t, cluster.Options{N: 3, Machine: "kv", Tracer: ck,
		FDTimeout: 50 * time.Millisecond})
	const clients, perClient = 4, 25
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		cli, err := c.NewClient()
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(i int, cli cluster.Invoker) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), testTimeout)
			defer cancel()
			for j := 0; j < perClient; j++ {
				if _, err := cli.Invoke(ctx, []byte(fmt.Sprintf("set k%d-%d v%d", i, j, j))); err != nil {
					errs <- err
					return
				}
			}
		}(i, cli)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	total := uint64(3 * clients * perClient)
	if !cluster.WaitUntil(testTimeout, func() bool { return c.TotalStats().OptDelivered >= total }) {
		t.Fatalf("deliveries incomplete: %+v", c.TotalStats())
	}
	fingerprintsConverge(t, c, []int{0, 1, 2})
	if got := c.Machine(0, 0).Fingerprint(); len(got) == 0 {
		t.Error("kv store empty after 100 sets")
	}
	verifyAll(t, ck, true)
	if ck.Adoptions() != clients*perClient {
		t.Errorf("adoptions = %d, want %d", ck.Adoptions(), clients*perClient)
	}
}

// TestSequencerCrashFailover reproduces the Figure 3 run: the sequencer
// crashes, the survivors suspect it, run the conservative phase and the
// service continues with the next sequencer — no client inconsistency.
func TestSequencerCrashFailover(t *testing.T) {
	ck := check.New(3)
	c := mustCluster(t, cluster.Options{
		N: 3, Tracer: ck,
		FDTimeout:         15 * time.Millisecond,
		HeartbeatInterval: 3 * time.Millisecond,
	})
	cli, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	// A few requests through the healthy sequencer p0.
	for i := 1; i <= 3; i++ {
		invoke(t, cli, fmt.Sprintf("m%d", i))
	}
	// Kill the sequencer.
	ck.MarkCrashed(proto.NodeID(0))
	c.Crash(0, 0)

	// Requests must keep completing through fail-over.
	for i := 4; i <= 8; i++ {
		reply := invoke(t, cli, fmt.Sprintf("m%d", i))
		if reply.Pos == 0 {
			t.Fatalf("empty reply for m%d", i)
		}
	}
	// The survivors must have run at least one conservative phase.
	if !cluster.WaitUntil(testTimeout, func() bool {
		return c.ReplicaStats(0, 1).Epochs >= 1 && c.ReplicaStats(0, 2).Epochs >= 1
	}) {
		t.Fatal("no epoch closed after sequencer crash")
	}
	fingerprintsConverge(t, c, []int{1, 2})
	verifyAll(t, ck, true)
}

// TestFigure4OptUndeliver reproduces the Opt-undeliver scenario of Figure 4
// (with n=5, the minimal group for the strictly majority-inclusive
// Cnsv-order — see DESIGN.md): a minority partition {p0 (sequencer), p1}
// optimistically delivers m3, m4; the majority completes the conservative
// phase without them and orders m4 first; after the partition heals, p0 and
// p1 must undo both messages, and no client ever adopts an invalidated
// reply.
func TestFigure4OptUndeliver(t *testing.T) {
	ck := check.New(5)
	c := mustCluster(t, cluster.Options{N: 5, FD: cluster.FDOracle, Tracer: ck})
	pmin := []proto.NodeID{0, 1}
	pmaj := []proto.NodeID{2, 3, 4}

	c1, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	c2, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}

	// Stage A: m1, m2 committed everywhere (positions 1, 2).
	invoke(t, c1, "m1")
	invoke(t, c1, "m2")
	if !cluster.WaitUntil(testTimeout, func() bool { return c.TotalStats().OptDelivered == 10 }) {
		t.Fatalf("stage A incomplete: %+v", c.TotalStats())
	}

	// Stage B: partition the minority (and c1) away from the majority.
	c.Net(0).BlockGroups(pmin, pmaj)
	c1ID := proto.ClientID(0)
	c.Net(0).BlockGroups([]proto.NodeID{c1ID}, pmaj)

	// m3 reaches only the minority; p0 orders it, both opt-deliver.
	m3done := make(chan proto.Reply, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), testTimeout)
		defer cancel()
		r, err := c1.Invoke(ctx, []byte("m3"))
		if err == nil {
			m3done <- r
		}
	}()
	if !cluster.WaitUntil(testTimeout, func() bool {
		return c.ReplicaStats(0, 0).OptDelivered == 3 && c.ReplicaStats(0, 1).OptDelivered == 3
	}) {
		t.Fatal("minority did not opt-deliver m3")
	}
	// The client must NOT have adopted m3: its weight union {p0, p1} is
	// below the majority of 3 — the heart of the paper's client rule.
	select {
	case r := <-m3done:
		t.Fatalf("client adopted minority-weight reply %+v", r)
	case <-time.After(50 * time.Millisecond):
	}

	// m4 from c2 reaches everyone; the minority opt-delivers it (pos 4),
	// the majority only buffers it. Its adoption requires the conservative
	// phase below, so invoke asynchronously.
	m4done := make(chan proto.Reply, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), testTimeout)
		defer cancel()
		r, err := c2.Invoke(ctx, []byte("m4"))
		if err == nil {
			m4done <- r
		}
	}()
	if !cluster.WaitUntil(testTimeout, func() bool {
		return c.ReplicaStats(0, 0).OptDelivered == 4 && c.ReplicaStats(0, 1).OptDelivered == 4
	}) {
		t.Fatal("minority did not opt-deliver m4")
	}

	// Majority suspects the whole minority, runs phase 2 of epoch 0 without
	// them, A-delivers m4 at position 3 and moves to epoch 1.
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
	var m4reply proto.Reply
	select {
	case m4reply = <-m4done:
	case <-time.After(testTimeout):
		t.Fatal("m4 never adopted despite majority-side A-delivery")
	}
	if m4reply.Pos != 3 {
		t.Fatalf("m4 adopted at pos %d, want 3 (conservative order)", m4reply.Pos)
	}

	// Heal. The minority must now Opt-undeliver m4 then m3 (reverse order),
	// A-deliver m4 at position 3, and m3 gets re-ordered in epoch 1.
	c.TrustEverywhere(0)
	c.TrustEverywhere(1)
	c.Net(0).Heal()

	var m3reply proto.Reply
	select {
	case m3reply = <-m3done:
	case <-time.After(testTimeout):
		t.Fatal("m3 never adopted after heal")
	}
	if m3reply.Pos != 4 {
		t.Fatalf("m3 adopted at pos %d, want 4", m3reply.Pos)
	}
	// Epoch 0's undos are the figure's claim. After the heal p1 — epoch 1's
	// sequencer by rotation — may also Opt-deliver m3 in epoch 1 before it
	// learns the majority closed that epoch without it, and rightly undo
	// that too, so the total is not a constant.
	if !cluster.WaitUntil(testTimeout, func() bool { return ck.UndeliveriesIn(0) == 4 }) {
		t.Fatalf("undeliveries of epoch 0 = %d, want 4 (m4 and m3 at both p0 and p1)", ck.UndeliveriesIn(0))
	}
	// All five replicas converge on the same history: m1 m2 m4 m3.
	if !cluster.WaitUntil(testTimeout, func() bool {
		ref := c.Machine(0, 0).Fingerprint()
		for i := 1; i < 5; i++ {
			if c.Machine(0, i).Fingerprint() != ref {
				return false
			}
		}
		return ref == "m1|m2|m4|m3"
	}) {
		for i := 0; i < 5; i++ {
			t.Logf("p%d: %q", i, c.Machine(0, i).Fingerprint())
		}
		t.Fatal("states did not converge to m1|m2|m4|m3")
	}
	verifyAll(t, ck, true)
}

// TestWrongSuspicionIsHarmless: a false suspicion triggers phase 2 but the
// (alive) sequencer's deliveries survive (its value is in the decision), so
// nothing is undone and clients stay consistent.
func TestWrongSuspicionIsHarmless(t *testing.T) {
	ck := check.New(3)
	c := mustCluster(t, cluster.Options{N: 3, FD: cluster.FDOracle, Tracer: ck})
	cli, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	invoke(t, cli, "m1")
	invoke(t, cli, "m2")

	// p1 and p2 wrongly suspect the healthy sequencer p0.
	c.Oracle(0, 1).Suspect(0)
	c.Oracle(0, 2).Suspect(0)
	if !cluster.WaitUntil(testTimeout, func() bool { return c.TotalStats().Epochs >= 3 }) {
		t.Fatalf("phase 2 did not run: %+v", c.TotalStats())
	}
	c.TrustEverywhere(0)

	// Service continues in the next epoch (sequencer p1 now).
	invoke(t, cli, "m3")
	if got := ck.Undeliveries(); got != 0 {
		t.Errorf("wrong suspicion caused %d undeliveries; majority guarantee protects them", got)
	}
	fingerprintsConverge(t, c, []int{0, 1, 2})
	verifyAll(t, ck, true)
}

// TestEpochGC exercises the Section 5.3 Remark: the sequencer forces a
// PhaseII every EpochRequestLimit deliveries, bounding O_delivered.
func TestEpochGC(t *testing.T) {
	ck := check.New(3)
	c := mustCluster(t, cluster.Options{N: 3, FD: cluster.FDNever, Tracer: ck, EpochRequestLimit: 4})
	cli, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 12; i++ {
		invoke(t, cli, fmt.Sprintf("m%d", i))
	}
	// 12 requests with a limit of 4 must have closed at least 2 epochs, and
	// the rotating sequencer must have moved on.
	if !cluster.WaitUntil(testTimeout, func() bool { return c.ReplicaStats(0, 0).Epochs >= 2 }) {
		t.Fatalf("GC epochs did not close: %+v", c.TotalStats())
	}
	if ck.Undeliveries() != 0 {
		t.Errorf("GC phase 2 undid %d deliveries", ck.Undeliveries())
	}
	fingerprintsConverge(t, c, []int{0, 1, 2})
	verifyAll(t, ck, true)
}

func TestBankConsistencyUnderFailover(t *testing.T) {
	ck := check.New(3)
	c := mustCluster(t, cluster.Options{
		N: 3, Machine: "bank", Tracer: ck,
		FDTimeout:         15 * time.Millisecond,
		HeartbeatInterval: 3 * time.Millisecond,
	})
	cli, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	invoke(t, cli, "open a")
	invoke(t, cli, "open b")
	invoke(t, cli, "deposit a 100")

	ck.MarkCrashed(proto.NodeID(0))
	c.Crash(0, 0)

	for i := 0; i < 5; i++ {
		invoke(t, cli, "transfer a b 10")
	}
	if got := invoke(t, cli, "balance a"); string(got.Result) != "50" {
		t.Errorf("balance a = %q, want 50", got.Result)
	}
	if got := invoke(t, cli, "balance b"); string(got.Result) != "50" {
		t.Errorf("balance b = %q, want 50", got.Result)
	}
	fingerprintsConverge(t, c, []int{1, 2})
	verifyAll(t, ck, true)
}

func TestClientContextCancelled(t *testing.T) {
	c := mustCluster(t, cluster.Options{N: 3, FD: cluster.FDNever})
	cli, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := cli.Invoke(ctx, []byte("m")); err == nil {
		t.Fatal("cancelled invoke succeeded")
	}
}

func TestServerConfigValidation(t *testing.T) {
	oar, err := backend.Lookup(core.BackendName)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := oar.NewReplica(backend.ReplicaConfig{}); err == nil {
		t.Error("empty config accepted")
	}
	if _, err := oar.NewReplica(backend.ReplicaConfig{ID: 9, Group: proto.Group(3)}); err == nil {
		t.Error("non-member server accepted")
	}
	if _, err := oar.NewInvoker(backend.InvokerConfig{}); err == nil {
		t.Error("empty client config accepted")
	}
}

// TestManyReplicaSizes runs a failure-free smoke workload at several group
// sizes, checking latency-path correctness scales with n.
func TestManyReplicaSizes(t *testing.T) {
	for _, n := range []int{1, 2, 4, 7} {
		n := n
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			ck := check.New(n)
			c := mustCluster(t, cluster.Options{N: n, FD: cluster.FDNever, Tracer: ck})
			cli, err := c.NewClient()
			if err != nil {
				t.Fatal(err)
			}
			for i := 1; i <= 5; i++ {
				reply := invoke(t, cli, fmt.Sprintf("m%d", i))
				if reply.Pos != uint64(i) {
					t.Fatalf("pos %d for request %d", reply.Pos, i)
				}
			}
			verifyAll(t, ck, false)
		})
	}
}
