package core

import (
	"bytes"
	"context"
	"testing"
	"time"

	"repro/internal/app"
	"repro/internal/backend"
	"repro/internal/fd"
	"repro/internal/proto"
	"repro/internal/transport"
)

// sinkNode is a transport.Node whose inbound side the test drives directly:
// pushed messages (including pooled frames) flow to the client's Recv loop,
// and outbound sends are discarded.
type sinkNode struct {
	id proto.NodeID
	q  *transport.Queue
}

func newSinkNode(id proto.NodeID) *sinkNode {
	return &sinkNode{id: id, q: transport.NewQueue()}
}

func (s *sinkNode) ID() proto.NodeID                { return s.id }
func (s *sinkNode) Send(proto.NodeID, []byte) error { return nil }
func (s *sinkNode) Recv() <-chan transport.Message  { return s.q.Out() }
func (s *sinkNode) Close() error                    { s.q.Close(); return nil }

// issueTracer signals once the client has registered its request, so the
// test can deliver replies only after the call is pending.
type issueTracer struct {
	backend.Tracer
	issued chan struct{}
}

func (t *issueTracer) Issue(proto.NodeID, proto.RequestID, []byte) {
	select {
	case t.issued <- struct{}{}:
	default:
	}
}

// TestPooledReplyBufferReuseSafety proves the copy-on-retain ownership rule
// on the client's zero-copy reply path: a reply decoded from a pooled frame
// is retained across frames (the Figure 5 quorum accumulates from several
// servers' messages) and eventually handed to the invoking goroutine — both
// after the frame it aliased has been released and recycled. The test
// delivers the quorum in two pooled frames, scribbles over the first frame's
// buffer once the protocol has consumed it (simulating the pool handing the
// buffer to an unrelated message), and asserts the adopted reply still
// carries the original result. Run under -race, a retained alias into the
// recycled buffer would also be reported as a data race.
func TestPooledReplyBufferReuseSafety(t *testing.T) {
	node := newSinkNode(proto.ClientID(0))
	group := proto.Group(3)
	tracer := &issueTracer{Tracer: backend.NopTracer(), issued: make(chan struct{}, 1)}
	cli, err := oarBackend{}.NewInvoker(backend.InvokerConfig{ID: proto.ClientID(0), Group: group, Node: node, Tracer: tracer})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Stop()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	type result struct {
		reply proto.Reply
		err   error
	}
	resCh := make(chan result, 1)
	go func() {
		r, err := cli.Invoke(ctx, []byte("cmd"))
		resCh <- result{r, err}
	}()
	select {
	case <-tracer.issued: // the call is registered; replies will be accepted
	case <-ctx.Done():
		t.Fatal("invoke never issued")
	}

	// The Invoke above is the client's first: Seq 0.
	id := proto.RequestID{Group: 0, Client: proto.ClientID(0), Seq: 0}
	wantResult := []byte("retained-result")

	mkFrame := func(reply proto.Reply) *transport.Frame {
		f := transport.GetFrame()
		f.Buf = proto.AppendReply(f.Buf, reply)
		return f
	}

	// Frame 1: a reply from p1 with weight {p1} — below the majority of 2,
	// so the client must retain it while waiting for more weight.
	f1 := mkFrame(proto.Reply{
		Req: id, From: 1, Epoch: 0, Weight: proto.WeightOf(1), Pos: 7,
		Result: wantResult,
	})
	f1buf := f1.Buf
	node.q.Push(transport.OwnedMessage(1, f1.Buf, f1))

	// Frame 2: a reply from p0 completing the quorum ({p0} ∪ {p1} is a
	// majority of 3). Equal individual weights: the client adopts the first
	// accumulated reply — the one decoded from frame 1.
	f2 := mkFrame(proto.Reply{
		Req: id, From: 0, Epoch: 0, Weight: proto.WeightOf(0), Pos: 7,
		Result: []byte("other-result"),
	})
	node.q.Push(transport.OwnedMessage(0, f2.Buf, f2))

	var got result
	select {
	case got = <-resCh:
	case <-ctx.Done():
		t.Fatal("invoke did not complete")
	}
	if got.err != nil {
		t.Fatal(got.err)
	}

	// The client has released frame 1 (it handled frame 2 afterwards, and
	// frames are released in handling order). Simulate the pool recycling
	// the buffer for an unrelated message: overwrite every byte. If the
	// adopted reply's Result still aliased the frame, the assertion below
	// would observe the scribble — and -race would flag the write racing
	// the retained read.
	for i := range f1buf {
		f1buf[i] = 0xAA
	}

	if got.reply.From != 1 {
		t.Fatalf("adopted reply from %v, want p1 (the retained frame-1 reply)", got.reply.From)
	}
	if !bytes.Equal(got.reply.Result, wantResult) {
		t.Fatalf("adopted result %q corrupted by buffer reuse, want %q", got.reply.Result, wantResult)
	}
	if got.reply.Pos != 7 {
		t.Fatalf("adopted pos %d, want 7", got.reply.Pos)
	}
}

// TestPooledRequestBufferReuseSafety is the server-side twin: a request
// decoded zero-copy from a pooled SeqOrder frame is retained in the
// replica's epoch table (Task 0 piggyback) long after the frame is
// recycled. The test delivers an ordering message for a future epoch — the
// path that buffers both the requests and the order itself — then scribbles
// the frame and verifies the server's later re-materialization of the
// request (via the consensus input it would propose) is intact. It drives
// the server's handler directly, single-threaded, as the event loop would.
func TestPooledRequestBufferReuseSafety(t *testing.T) {
	node := newSinkNode(proto.NodeID(0))
	defer node.Close()
	srv, err := NewServer(backend.ReplicaConfig{
		ID:       proto.NodeID(0),
		Group:    proto.Group(3),
		Node:     node,
		Machine:  app.NewRecorder(),
		Detector: fd.Never{},
	})
	if err != nil {
		t.Fatal(err)
	}

	want := []byte("command-body-kept-across-reuse")
	req := proto.Request{
		ID:  proto.RequestID{Group: 0, Client: proto.ClientID(3), Seq: 11},
		Cmd: want,
	}
	// An order for epoch 2 while the server is at epoch 0: the lagging path
	// buffers the order and the request payloads — both must survive the
	// frame's recycling.
	f := transport.GetFrame()
	f.Buf = proto.AppendSeqOrder(f.Buf, 0, proto.SeqOrder{Epoch: 2, Reqs: []proto.Request{req}})
	fbuf := f.Buf
	m := transport.OwnedMessage(proto.NodeID(1), f.Buf, f)
	kind, _, body, err := proto.Unmarshal(m.Payload)
	if err != nil {
		t.Fatal(err)
	}
	srv.Handle(m.From, kind, body)
	m.Release()

	// Recycle simulation: the frame's bytes now belong to someone else.
	for i := range fbuf {
		fbuf[i] = 0x55
	}

	i, ok := srv.at[req.ID]
	if !ok {
		t.Fatal("request not buffered by the future-epoch ordering path")
	}
	if stored := srv.live[i].req; !bytes.Equal(stored.Cmd, want) {
		t.Fatalf("buffered command %q corrupted by buffer reuse, want %q", stored.Cmd, want)
	}
	buffered := srv.seqOrderBuf[2]
	if len(buffered) != 1 || len(buffered[0].Reqs) != 1 {
		t.Fatalf("future-epoch order not buffered: %+v", buffered)
	}
	if !bytes.Equal(buffered[0].Reqs[0].Cmd, want) {
		t.Fatalf("buffered order command %q corrupted by buffer reuse, want %q", buffered[0].Reqs[0].Cmd, want)
	}
}
