package backend_test

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/backend"
	"repro/internal/proto"
	"repro/internal/transport"
)

// scriptNode is a client endpoint the test drives by hand: it records what
// the client sends and delivers the replies the test pushes.
type scriptNode struct {
	id proto.NodeID
	q  *transport.Queue

	mu   sync.Mutex
	sent []proto.NodeID // destinations, in send order
}

func newScriptNode(id proto.NodeID) *scriptNode {
	return &scriptNode{id: id, q: transport.NewQueue()}
}

func (n *scriptNode) ID() proto.NodeID               { return n.id }
func (n *scriptNode) Recv() <-chan transport.Message { return n.q.Out() }
func (n *scriptNode) Close() error                   { n.q.Close(); return nil }
func (n *scriptNode) Send(to proto.NodeID, _ []byte) error {
	n.mu.Lock()
	n.sent = append(n.sent, to)
	n.mu.Unlock()
	return nil
}

func (n *scriptNode) sends() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.sent)
}

// ruleTracer records the client events and, at Issue, how much had been sent.
type ruleTracer struct {
	backend.Tracer
	node        *scriptNode
	issued      chan proto.RequestID
	sentAtIssue int // written before the send on issued

	mu      sync.Mutex
	adopted []proto.Reply
}

func (t *ruleTracer) Issue(_ proto.NodeID, id proto.RequestID, _ []byte) {
	t.sentAtIssue = t.node.sends()
	t.issued <- id
}

func (t *ruleTracer) Adopt(_ proto.NodeID, _ proto.RequestID, reply proto.Reply) {
	t.mu.Lock()
	t.adopted = append(t.adopted, reply)
	t.mu.Unlock()
}

// TestOneClientTwoAdoptionRules plays one reply script to the one client
// under each protocol's write-adoption rule. The script is the shape of the
// Figure 1(b) fault: a lone reply arrives first, then two heavier ones from a
// different epoch. The baselines' first-reply rule adopts the loner; OAR's
// majority-weight rule (Figure 5) waits for a same-epoch majority and adopts
// its heaviest member. Everything around the rule — numbering, Issue before
// the first byte, one send per replica, Adopt, reply ownership — is the same
// code and must behave the same.
func TestOneClientTwoAdoptionRules(t *testing.T) {
	group := proto.Group(3)
	script := []proto.Reply{
		{From: 0, Epoch: 0, Weight: proto.WeightOf(0), Pos: 1, Result: []byte("lone")},
		{From: 1, Epoch: 1, Weight: proto.WeightOf(1), Pos: 2, Result: []byte("light")},
		{From: 2, Epoch: 1, Weight: proto.WeightOf(1, 2), Pos: 2, Result: []byte("heavy")},
	}
	for _, tc := range []struct {
		protocol string
		want     string
		wantPos  uint64
	}{
		{"fixedseq", "lone", 1},
		{"ctab", "lone", 1},
		{"oar", "heavy", 2},
	} {
		t.Run(tc.protocol, func(t *testing.T) {
			be, err := backend.Lookup(tc.protocol)
			if err != nil {
				t.Fatal(err)
			}
			node := newScriptNode(proto.ClientID(0))
			defer node.Close()
			tracer := &ruleTracer{Tracer: backend.NopTracer(), node: node, issued: make(chan proto.RequestID, 1)}
			cli, err := be.NewInvoker(backend.InvokerConfig{
				ID: node.id, Group: group, GroupID: 3, Node: node, Tracer: tracer,
				Unbatched: true, // sends happen inside Invoke, so they can be counted
			})
			if err != nil {
				t.Fatal(err)
			}
			defer cli.Stop()

			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			type result struct {
				reply proto.Reply
				err   error
			}
			done := make(chan result, 1)
			go func() {
				r, err := cli.Invoke(ctx, []byte("cmd"))
				done <- result{r, err}
			}()
			id := <-tracer.issued
			if want := (proto.RequestID{Group: 3, Client: node.id, Seq: 0}); id != want {
				t.Fatalf("issued %v, want %v", id, want)
			}
			if tracer.sentAtIssue != 0 {
				t.Errorf("%d frames were sent before Issue was traced", tracer.sentAtIssue)
			}

			// Each reply rides its own pooled frame, scribbled over once the
			// client has released it: an adopted reply must own its bytes.
			var frames [][]byte
			for _, reply := range script {
				reply.Req = id
				f := transport.GetFrame()
				f.Buf = proto.AppendReply(f.Buf, reply)
				frames = append(frames, f.Buf)
				node.q.Push(transport.OwnedMessage(reply.From, f.Buf, f))
			}
			got := <-done
			if got.err != nil {
				t.Fatal(got.err)
			}
			// Stop waits for the reply loop, which releases every frame it has
			// handled: the frames are free to be recycled, which the scribble
			// simulates.
			cli.Stop()
			for _, buf := range frames {
				for i := range buf {
					buf[i] = 0xAA
				}
			}
			if string(got.reply.Result) != tc.want || got.reply.Pos != tc.wantPos {
				t.Errorf("adopted %q at pos %d, want %q at %d", got.reply.Result, got.reply.Pos, tc.want, tc.wantPos)
			}
			if node.sends() != len(group) {
				t.Errorf("client sent %d frames, want one per replica", node.sends())
			}
			tracer.mu.Lock()
			defer tracer.mu.Unlock()
			if len(tracer.adopted) != 1 || string(tracer.adopted[0].Result) != tc.want {
				t.Errorf("traced adoptions %+v, want exactly %q", tracer.adopted, tc.want)
			}
		})
	}
}
