package tcpnet

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/app"
	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/fd"
	"repro/internal/proto"
	"repro/internal/transport"
)

func newNode(t *testing.T, id proto.NodeID) *Node {
	t.Helper()
	n, err := New(Config{ID: id, Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	return n
}

func connect(nodes ...*Node) {
	for _, a := range nodes {
		for _, b := range nodes {
			if a != b {
				a.SetPeer(b.ID(), b.Addr().String())
			}
		}
	}
}

// TestStatsCounters: frames and payload bytes are counted in both
// directions (handshakes and length prefixes excluded).
func TestStatsCounters(t *testing.T) {
	a, b := newNode(t, 0), newNode(t, 1)
	connect(a, b)
	payload := []byte("counted-payload")
	if err := a.Send(1, payload); err != nil {
		t.Fatal(err)
	}
	got := recvOne(t, b, 5*time.Second)
	if string(got.Payload) != string(payload) {
		t.Fatalf("payload = %q", got.Payload)
	}
	as, bs := a.Stats(), b.Stats()
	if as.FramesSent != 1 || as.BytesSent != uint64(len(payload)) {
		t.Errorf("sender stats = %+v, want 1 frame / %d bytes", as, len(payload))
	}
	if bs.FramesReceived != 1 || bs.BytesReceived != uint64(len(payload)) {
		t.Errorf("receiver stats = %+v, want 1 frame / %d bytes", bs, len(payload))
	}
	if as.FramesReceived != 0 || bs.FramesSent != 0 {
		t.Errorf("phantom reverse traffic: a=%+v b=%+v", as, bs)
	}
}

func recvOne(t *testing.T, n *Node, timeout time.Duration) transport.Message {
	t.Helper()
	select {
	case m, ok := <-n.Recv():
		if !ok {
			t.Fatal("inbox closed")
		}
		return m
	case <-time.After(timeout):
		t.Fatal("timed out")
	}
	return transport.Message{}
}

func TestSendReceive(t *testing.T) {
	a, b := newNode(t, 0), newNode(t, 1)
	connect(a, b)
	if err := a.Send(1, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	m := recvOne(t, b, 5*time.Second)
	if m.From != 0 || string(m.Payload) != "hello" {
		t.Fatalf("got %+v", m)
	}
}

func TestFIFOOrder(t *testing.T) {
	a, b := newNode(t, 0), newNode(t, 1)
	connect(a, b)
	const count = 500
	for i := 0; i < count; i++ {
		if err := a.Send(1, []byte{byte(i), byte(i >> 8)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < count; i++ {
		m := recvOne(t, b, 5*time.Second)
		got := int(m.Payload[0]) | int(m.Payload[1])<<8
		if got != i {
			t.Fatalf("message %d arrived as %d", i, got)
		}
	}
}

func TestBidirectional(t *testing.T) {
	a, b := newNode(t, 0), newNode(t, 1)
	connect(a, b)
	if err := a.Send(1, []byte("ping")); err != nil {
		t.Fatal(err)
	}
	recvOne(t, b, 5*time.Second)
	if err := b.Send(0, []byte("pong")); err != nil {
		t.Fatal(err)
	}
	m := recvOne(t, a, 5*time.Second)
	if string(m.Payload) != "pong" {
		t.Fatalf("got %q", m.Payload)
	}
}

func TestClientIDsSurviveHandshake(t *testing.T) {
	a, b := newNode(t, proto.ClientID(3)), newNode(t, 1)
	connect(a, b)
	if err := a.Send(1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	m := recvOne(t, b, 5*time.Second)
	if m.From != proto.ClientID(3) {
		t.Fatalf("from = %v, want %v", m.From, proto.ClientID(3))
	}
}

func TestSendToUnknownPeerQueues(t *testing.T) {
	a := newNode(t, 0)
	// No address for node 1: Send must not fail (frames wait), and once the
	// peer appears, they flow.
	if err := a.Send(1, []byte("early")); err != nil {
		t.Fatal(err)
	}
	b := newNode(t, 1)
	a.SetPeer(1, b.Addr().String())
	m := recvOne(t, b, 5*time.Second)
	if string(m.Payload) != "early" {
		t.Fatalf("got %q", m.Payload)
	}
}

func TestOversizeFrameRejected(t *testing.T) {
	a := newNode(t, 0)
	if err := a.Send(1, make([]byte, MaxFrame+1)); err == nil {
		t.Fatal("oversize frame accepted")
	}
}

func TestSendAfterClose(t *testing.T) {
	a, err := New(Config{ID: 0, Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	a.Close()
	if err := a.Send(1, []byte("x")); err == nil {
		t.Fatal("send after close succeeded")
	}
	a.Close() // idempotent
}

// TestOARClusterOverTCP runs the full protocol over real sockets: three
// replicas + one client, a handful of requests, position-consistent replies.
func TestOARClusterOverTCP(t *testing.T) {
	group := proto.Group(3)
	nodes := make([]*Node, 3)
	for i := range nodes {
		nodes[i] = newNode(t, group[i])
	}
	cliNode := newNode(t, proto.ClientID(0))
	all := append(append([]*Node(nil), nodes...), cliNode)
	connect(all...)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	start := time.Now()
	for i := range nodes {
		machine, _ := app.New("recorder")
		srv, err := core.NewServer(backend.ReplicaConfig{
			ID:       group[i],
			Group:    group,
			Node:     nodes[i],
			Machine:  machine,
			Detector: fd.NewTimeout(200*time.Millisecond, group, start),
		})
		if err != nil {
			t.Fatal(err)
		}
		go func() { _ = srv.Run(ctx) }()
	}

	oar, err := backend.Lookup(core.BackendName)
	if err != nil {
		t.Fatal(err)
	}
	cli, err := oar.NewInvoker(backend.InvokerConfig{
		ID:    proto.ClientID(0),
		Group: group,
		Node:  cliNode,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		cancel()
		cli.Stop()
	}()

	for i := 1; i <= 5; i++ {
		ictx, icancel := context.WithTimeout(context.Background(), 10*time.Second)
		reply, err := cli.Invoke(ictx, []byte(fmt.Sprintf("m%d", i)))
		icancel()
		if err != nil {
			t.Fatalf("invoke m%d over TCP: %v", i, err)
		}
		if reply.Pos != uint64(i) {
			t.Fatalf("m%d at pos %d", i, reply.Pos)
		}
	}
}

// TestDialBackViaHandshake: a server with no static peer entry for the
// client must learn the client's address from the handshake and reply.
func TestDialBackViaHandshake(t *testing.T) {
	srv := newNode(t, 0)
	cli := newNode(t, proto.ClientID(0))
	cli.SetPeer(0, srv.Addr().String()) // only the client knows the server

	if err := cli.Send(0, []byte("request")); err != nil {
		t.Fatal(err)
	}
	m := recvOne(t, srv, 5*time.Second)
	if m.From != proto.ClientID(0) {
		t.Fatalf("from = %v", m.From)
	}
	// The server can now reach the client without any SetPeer call.
	if err := srv.Send(proto.ClientID(0), []byte("reply")); err != nil {
		t.Fatal(err)
	}
	r := recvOne(t, cli, 5*time.Second)
	if string(r.Payload) != "reply" {
		t.Fatalf("got %q", r.Payload)
	}
}

// TestDialBackFollowsARestartedClient: a second client process under the
// same ID, listening at another address, replaces the first as the server's
// reply destination — the server must not keep dialing the dead address.
func TestDialBackFollowsARestartedClient(t *testing.T) {
	srv := newNode(t, 0)
	for i := 0; i < 2; i++ {
		cli := newNode(t, proto.ClientID(0))
		cli.SetPeer(0, srv.Addr().String())
		if err := cli.Send(0, []byte("request")); err != nil {
			t.Fatal(err)
		}
		recvOne(t, srv, 5*time.Second)
		if err := srv.Send(proto.ClientID(0), []byte("reply")); err != nil {
			t.Fatal(err)
		}
		if r := recvOne(t, cli, 5*time.Second); string(r.Payload) != "reply" {
			t.Fatalf("client %d got %q", i, r.Payload)
		}
		cli.Close()
	}
}

// TestBatchFrameDeliversInnerInOrder sends a proto.Batch envelope between
// nodes and checks the receiver can expand it to the inner messages in the
// original order (the contract the replicas rely on when coalescing the hot
// path over TCP).
func TestBatchFrameDeliversInnerInOrder(t *testing.T) {
	a, b := newNode(t, 0), newNode(t, 1)
	connect(a, b)
	inner := make([][]byte, 50)
	for i := range inner {
		inner[i] = []byte(fmt.Sprintf("msg-%03d", i))
	}
	if err := transport.SendBatch(a, 0, 1, inner); err != nil {
		t.Fatal(err)
	}
	m := recvOne(t, b, 5*time.Second)
	msgs, ok := transport.ExpandBatch(m)
	if !ok {
		t.Fatalf("expected a batch frame, got %q", m.Payload)
	}
	if len(msgs) != len(inner) {
		t.Fatalf("got %d inner messages, want %d", len(msgs), len(inner))
	}
	for i, mm := range msgs {
		if string(mm.Payload) != string(inner[i]) {
			t.Fatalf("inner %d: got %q want %q", i, mm.Payload, inner[i])
		}
		if mm.From != 0 {
			t.Fatalf("inner %d: from %v", i, mm.From)
		}
	}
}

// TestBacklogCoalescesAndPreservesOrder floods one destination queue and
// verifies every frame arrives, in order — the buffered writer must not drop
// or reorder across flush boundaries — and that a queued backlog leaves the
// queue as one burst (one buffered write), not one write per frame.
func TestBacklogCoalescesAndPreservesOrder(t *testing.T) {
	a, b := newNode(t, 0), newNode(t, 1)
	connect(a, b)

	const frames = 500
	for i := 0; i < frames; i++ {
		if err := a.Send(1, []byte(fmt.Sprintf("f%04d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < frames; i++ {
		m := recvOne(t, b, 5*time.Second)
		if want := fmt.Sprintf("f%04d", i); string(m.Payload) != want {
			t.Fatalf("frame %d: got %q want %q", i, m.Payload, want)
		}
	}

	// The send loop writes once per popBatch result. With no consumer
	// running, the whole backlog comes back from one call, in queue order,
	// and the next poll reports the queue idle — the flush point.
	out := &outgoing{signal: make(chan struct{}, 1)}
	for i := 0; i < frames; i++ {
		f := transport.GetFrame()
		f.Buf = append(f.Buf, byte(i), byte(i>>8))
		out.queue = append(out.queue, f)
	}
	batch, st := out.popBatch(false)
	if st != popFrames || len(batch) != frames {
		t.Fatalf("popBatch = %d frames (status %d), want the whole backlog of %d in one burst", len(batch), st, frames)
	}
	for i, f := range batch {
		if int(f.Buf[0])|int(f.Buf[1])<<8 != i {
			t.Fatalf("burst frame %d out of queue order", i)
		}
		f.Release()
	}
	if _, st := out.popBatch(false); st != popIdle {
		t.Fatalf("second popBatch status %d, want popIdle", st)
	}
}
