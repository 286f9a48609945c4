package backend_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/backend"
	"repro/internal/baseline"
	"repro/internal/check"
	"repro/internal/cluster"
	"repro/internal/proto"
)

// stubBackend is the smallest ordering protocol that runs on the shared
// runtime, registered from this test: replica 0 is the sequencer for ever,
// orders requests in its own arrival order, and everybody delivers what it
// says — append-only, no fail-over, no consensus — served by the first-reply
// client. It exists to prove the two seams: cluster.New must boot it —
// sharded, even — through the same registry path as the built-ins, and the
// few dozen lines below must get batching, the read fast path, crash
// recovery, foreign-group filtering and the counters without writing them.
type stubBackend struct{}

func (stubBackend) Name() string { return "stub" }

func (stubBackend) NewReplica(cfg backend.ReplicaConfig) (backend.Replica, error) {
	r := &stubReplica{}
	err := r.Init(cfg, r, backend.Spec{
		SnapshotDeliveries: 4, // small, so catch-up ships a snapshot and a tail
		Defer:              []proto.Kind{proto.KindSeqOrder},
	})
	if err != nil {
		return nil, err
	}
	return r, nil
}

func (stubBackend) NewInvoker(cfg backend.InvokerConfig) (backend.Invoker, error) {
	return baseline.NewInvoker(cfg)
}

type stubReplica struct{ backend.Runtime }

func (r *stubReplica) sequencer() bool { return r.Cfg.ID == r.Cfg.Group[0] }

func (r *stubReplica) Handle(_ proto.NodeID, kind proto.Kind, body []byte) {
	switch kind {
	case proto.KindRequest:
		if req, err := proto.UnmarshalRequest(body); err == nil {
			r.Submit(req)
		}
	case proto.KindSeqOrder:
		if order, err := proto.UnmarshalSeqOrder(body); err == nil {
			r.deliver(order.Reqs)
		}
	}
}

func (r *stubReplica) Submit(req proto.Request) {
	if r.sequencer() {
		reqs := []proto.Request{req}
		r.SendOrder(proto.SeqOrder{Reqs: reqs})
		r.deliver(reqs)
	}
}

func (r *stubReplica) deliver(reqs []proto.Request) {
	for _, req := range reqs {
		if _, dup := r.Delivered[req.ID]; dup {
			continue
		}
		result, _ := r.Cfg.Machine.Apply(req.Cmd)
		r.Pos++
		r.Commit(req)
		r.Count.ADelivered.Add(1)
		r.Cfg.Tracer.ADeliver(r.Cfg.ID, 0, req.ID, r.Pos, result)
		r.SendReply(req.ID.Client, proto.Reply{
			Req: req.ID, From: r.Cfg.ID, Weight: proto.WeightOf(r.Cfg.ID), Pos: r.Pos, Result: result,
		})
	}
	r.Boundary()
}

func (r *stubReplica) EndRound()      {}
func (r *stubReplica) Tick(time.Time) {}

// Only the sequencer's link carries the order stream, FIFO behind its answer.
func (r *stubReplica) CanServe() bool                          { return r.sequencer() }
func (r *stubReplica) Accept(from proto.NodeID, _ uint64) bool { return from == r.Cfg.Group[0] }

func (r *stubReplica) Resume(deferred []backend.Deferred) {
	for _, f := range deferred {
		r.Handle(f.From, f.Kind, f.Body)
	}
}

func registerStub(t *testing.T) {
	t.Helper()
	if _, err := backend.Lookup("stub"); err == nil {
		return // an earlier test already registered it
	}
	backend.Register(stubBackend{})
}

// TestStubBackendThroughCluster proves the extension point: a backend
// registered by a test boots through cluster.New — with Shards > 1, over the
// key-hash router — and serves invokes, without the cluster package knowing
// it exists.
func TestStubBackendThroughCluster(t *testing.T) {
	registerStub(t)
	c, err := cluster.New(cluster.Options{
		Protocol: "stub", N: 1, Shards: 2, Machine: "kv", FD: cluster.FDNever,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	if got := c.Protocol(); got != "stub" {
		t.Fatalf("Protocol() = %q", got)
	}
	cli, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
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
	if got := c.DeliveredTotal(); got != 2*keys {
		t.Errorf("DeliveredTotal = %d, want %d", got, 2*keys)
	}
	// The router really spread the load: both groups' stub replicas served.
	for s := 0; s < 2; s++ {
		if st := c.ReplicaStats(s, 0); st.Delivered == 0 {
			t.Errorf("shard %d stub replica served nothing", s)
		} else if st.ForeignDropped != 0 {
			t.Errorf("shard %d saw foreign traffic on a disjoint network: %+v", s, st)
		}
	}
}

// stubCluster boots three stub replicas of a kv machine and one client with
// the read fast path.
func stubCluster(t *testing.T, tracer backend.Tracer) (*cluster.Cluster, backend.Invoker, backend.ReadInvoker) {
	t.Helper()
	registerStub(t)
	c, err := cluster.New(cluster.Options{Protocol: "stub", N: 3, Machine: "kv", FD: cluster.FDNever, Tracer: tracer})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	cli, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	return c, cli, cli.(backend.ReadInvoker)
}

// TestRuntimeServesReads: a protocol gets the read bypass from the runtime —
// reads answered inline at (Epoch, Pos) with zero ordering messages, and
// commands the machine's Reader refuses pushed into Submit and counted.
func TestRuntimeServesReads(t *testing.T) {
	c, cli, reader := stubCluster(t, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := cli.Invoke(ctx, []byte("set k v")); err != nil {
		t.Fatal(err)
	}
	reply, err := reader.InvokeRead(ctx, []byte("get k"))
	if err != nil {
		t.Fatal(err)
	}
	if string(reply.Result) != "v" || reply.Pos != 1 {
		t.Fatalf("fast-path read = %q at pos %d, want \"v\" at 1", reply.Result, reply.Pos)
	}
	// A write mislabelled as a read: every replica's Reader refuses it, the
	// sequencer's Submit orders it, and it is adopted at its one position.
	if reply, err = reader.InvokeRead(ctx, []byte("set k w")); err != nil {
		t.Fatal(err)
	} else if reply.Pos != 2 {
		t.Fatalf("fallen-back read adopted at pos %d, want 2", reply.Pos)
	}
	if !c.Quiesce(10 * time.Second) {
		t.Fatal("cluster did not quiesce")
	}
	// A replica can deliver the sequencer's order before it handles its own
	// copy of the read, so the delivery positions settle before the last
	// fallback is counted: wait for the count, then check it.
	cluster.WaitUntil(10*time.Second, func() bool { return c.TotalStats().ReadFallbacks >= 3 })
	st := c.TotalStats()
	if st.ReadsServed != 3 || st.ReadFallbacks != 3 || st.ReadReissues != 0 {
		t.Errorf("ReadsServed/ReadFallbacks/ReadReissues = %d/%d/%d, want 3/3/0", st.ReadsServed, st.ReadFallbacks, st.ReadReissues)
	}
	if st.SeqOrdersSent != 2 || st.Delivered != 6 {
		t.Errorf("SeqOrdersSent/Delivered = %d/%d, want 2/6: the fast-path read was ordered", st.SeqOrdersSent, st.Delivered)
	}
}

// TestRuntimeRecoversARestartedReplica: a protocol gets crash recovery from
// the runtime — probe, refuse reads meanwhile, adopt a snapshot plus the
// tail, resume — by answering four questions.
func TestRuntimeRecoversARestartedReplica(t *testing.T) {
	ck := check.New(3)
	c, cli, reader := stubCluster(t, ck)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	set := func(lo, hi int) {
		t.Helper()
		for i := lo; i < hi; i++ {
			if _, err := cli.Invoke(ctx, []byte(fmt.Sprintf("set k%d v%d", i, i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	const victim = 2
	set(0, 6)
	c.Crash(0, victim)
	ck.MarkCrashed(c.Group()[victim])
	set(6, 9)

	// Hold the only link catch-up state may come over, so the replica is
	// observably recovering: it must refuse the read it is sent.
	c.Net(0).Block(c.Group()[0], c.Group()[victim])
	if err := c.Restart(0, victim); err != nil {
		t.Fatal(err)
	}
	if reply, err := reader.InvokeRead(ctx, []byte("get k8")); err != nil || string(reply.Result) != "v8" {
		t.Fatalf("read during recovery = %q, %v", reply.Result, err)
	}
	if !cluster.WaitUntil(10*time.Second, func() bool { return c.ReplicaStats(0, victim).RecoveryRefusedReads >= 1 }) {
		t.Fatal("recovering replica never refused the read")
	}
	if st := c.ReplicaStats(0, victim); st.Recoveries != 0 || st.ReadsServed != 0 {
		t.Fatalf("replica recovered, or served a read, without a catch-up answer: %+v", st)
	}
	set(9, 12) // orders queue up behind the held link, ahead of any answer

	c.Net(0).Unblock(c.Group()[0], c.Group()[victim])
	if !cluster.WaitUntil(10*time.Second, func() bool { return c.ReplicaStats(0, victim).Recoveries >= 1 }) {
		t.Fatal("replica never recovered")
	}
	set(12, 14)
	if !c.Quiesce(10*time.Second) || !ck.LivenessSettled() {
		t.Fatal("cluster did not settle")
	}
	if st, pos := c.ReplicaStats(0, victim), c.Replica(0, victim).Position(); st.Recoveries != 1 || pos.Pos != 14 || pos.Definitive != 14 {
		t.Errorf("recovered replica: %+v at %+v, want Recoveries 1 at position 14", st, pos)
	}
	if got := c.ReplicaStats(0, 0).CatchupServed; got == 0 {
		t.Error("the sequencer served no catch-up state")
	}
	if got := c.ReplicaStats(0, 1).CatchupServed; got != 0 {
		t.Errorf("a non-sequencer served catch-up state %d times", got)
	}
	if want, got := c.Machine(0, 0).Fingerprint(), c.Machine(0, victim).Fingerprint(); got != want {
		t.Errorf("recovered machine %q, want %q", got, want)
	}
	for _, v := range append(ck.Verify(), ck.VerifyLiveness()...) {
		t.Errorf("checker: %v", v)
	}
	if ck.Recoveries() != 1 {
		t.Errorf("checker saw %d recoveries, want 1", ck.Recoveries())
	}
}

// TestRuntimeDropsForeignGroupTraffic: a protocol never sees a message tagged
// with another ordering group.
func TestRuntimeDropsForeignGroupTraffic(t *testing.T) {
	c, _, _ := stubCluster(t, nil)
	evil := c.Net(0).Node(proto.ClientID(9))
	request := func(g proto.GroupID) []byte {
		return proto.MarshalRequest(proto.Request{ID: proto.RequestID{Group: g, Client: evil.ID(), Seq: uint64(g)}, Cmd: []byte("set k v")})
	}
	if err := evil.Send(c.Group()[0], request(7)); err != nil {
		t.Fatal(err)
	}
	if !cluster.WaitUntil(10*time.Second, func() bool { return c.ReplicaStats(0, 0).ForeignDropped == 1 }) {
		t.Fatalf("foreign request never counted as dropped: %+v", c.ReplicaStats(0, 0))
	}
	// The same request tagged with the replicas' own group is ordered.
	if err := evil.Send(c.Group()[0], request(0)); err != nil {
		t.Fatal(err)
	}
	if !cluster.WaitUntil(10*time.Second, func() bool { return c.DeliveredTotal() == 3 }) {
		t.Fatalf("own-group request not delivered everywhere: %+v", c.TotalStats())
	}
	if st := c.TotalStats(); st.ForeignDropped != 1 {
		t.Errorf("ForeignDropped = %d, want 1", st.ForeignDropped)
	}
}

func TestRegistry(t *testing.T) {
	for _, name := range []string{"oar", "fixedseq", "ctab"} {
		be, err := backend.Lookup(name)
		if err != nil {
			t.Fatalf("built-in %q not registered: %v", name, err)
		}
		if be.Name() != name {
			t.Errorf("Lookup(%q).Name() = %q", name, be.Name())
		}
	}
	if _, err := backend.Lookup("no-such-backend"); err == nil {
		t.Error("unknown backend resolved")
	}
	names := backend.Names()
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("Names() not sorted: %v", names)
		}
	}
}

func TestRegisterRejectsDuplicatesAndNil(t *testing.T) {
	registerStub(t)
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("duplicate Register", func() { backend.Register(stubBackend{}) })
	mustPanic("nil Register", func() { backend.Register(nil) })
}

func TestStatsAccumulate(t *testing.T) {
	a := backend.Stats{Delivered: 1, OptDelivered: 2, OptUndelivered: 3, ADelivered: 4, Epochs: 5, SeqOrdersSent: 6, ForeignDropped: 7, Views: 8, Batches: 9}
	b := a
	b.Accumulate(a)
	want := backend.Stats{Delivered: 2, OptDelivered: 4, OptUndelivered: 6, ADelivered: 8, Epochs: 10, SeqOrdersSent: 12, ForeignDropped: 14, Views: 16, Batches: 18}
	if b != want {
		t.Errorf("Accumulate = %+v, want %+v", b, want)
	}
}
