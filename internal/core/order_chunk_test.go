package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/app"
	"repro/internal/backend"
	"repro/internal/check"
	"repro/internal/fd"
	"repro/internal/proto"
	"repro/internal/transport"
)

// sentNode is a sinkNode that keeps what the replica sends.
type sentNode struct {
	*sinkNode
	sent map[proto.NodeID][][]byte
}

func (n *sentNode) Send(to proto.NodeID, payload []byte) error {
	n.sent[to] = append(n.sent[to], payload)
	return nil
}

// TestBacklogIsOrderedInCappedSeqOrders: a backlog larger than maxBatch — what
// a long phase 2 leaves behind — is ordered by one EndRound as ⌈n/maxBatch⌉
// SeqOrders, none over the cap, and the peers that receive them deliver the
// same sequence (trace checker clean). Driven single-threaded, as the event
// loop would.
func TestBacklogIsOrderedInCappedSeqOrders(t *testing.T) {
	const n = 2*maxBatch + 276
	ck := check.New(3)
	var srvs [3]*Server
	nodes := [3]*sentNode{}
	for i := range srvs {
		nodes[i] = &sentNode{sinkNode: newSinkNode(proto.NodeID(i)), sent: map[proto.NodeID][][]byte{}}
		defer nodes[i].Close()
		srv, err := NewServer(backend.ReplicaConfig{
			ID:       proto.NodeID(i),
			Group:    proto.Group(3),
			Node:     nodes[i],
			Machine:  app.NewRecorder(),
			Detector: fd.Never{},
			Tracer:   ck,
			// No tick may fire inside the brief Run below.
			TickInterval: time.Hour,
		})
		if err != nil {
			t.Fatal(err)
		}
		srvs[i] = srv
	}

	seq := srvs[0] // sequencer of epoch 0
	for i := 0; i < n; i++ {
		req := proto.Request{
			ID:  proto.RequestID{Client: proto.ClientID(0), Seq: uint64(i)},
			Cmd: []byte{byte(i), byte(i >> 8)},
		}
		ck.Issue(req.ID.Client, req.ID, req.Cmd)
		seq.Submit(req)
	}
	seq.EndRound()
	if got, want := seq.Stats().SeqOrdersSent, uint64((n+maxBatch-1)/maxBatch); got != want {
		t.Fatalf("SeqOrdersSent = %d, want %d for a backlog of %d", got, want, n)
	}
	// A loop that exits mid-round flushes what the round had buffered: that
	// is how the orders reach the node here.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := seq.Run(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Run = %v, want context.Canceled", err)
	}

	for _, peer := range []proto.NodeID{1, 2} {
		frames := nodes[0].sent[peer]
		if len(frames) != 1 {
			t.Fatalf("peer %d got %d frames, want the round's one envelope", peer, len(frames))
		}
		msgs, _ := transport.ExpandBatch(transport.Message{From: 0, Payload: frames[0]})
		next := uint64(0)
		for _, m := range msgs {
			kind, _, body, err := proto.Unmarshal(m.Payload)
			if err != nil || kind != proto.KindSeqOrder {
				t.Fatalf("peer %d: unexpected message kind %v (%v)", peer, kind, err)
			}
			var order proto.SeqOrder
			if err := order.UnmarshalBody(body); err != nil {
				t.Fatal(err)
			}
			if len(order.Reqs) == 0 || len(order.Reqs) > maxBatch {
				t.Fatalf("peer %d: SeqOrder carries %d requests, cap is %d", peer, len(order.Reqs), maxBatch)
			}
			for _, r := range order.Reqs {
				if r.ID.Seq != next {
					t.Fatalf("peer %d: request %d ordered where %d belongs", peer, r.ID.Seq, next)
				}
				next++
			}
			srvs[peer].Handle(0, kind, body)
		}
		if next != n {
			t.Fatalf("peer %d was sent %d requests, want %d", peer, next, n)
		}
		if got := srvs[peer].Stats().OptDelivered; got != n {
			t.Fatalf("peer %d opt-delivered %d, want %d", peer, got, n)
		}
	}
	for _, v := range ck.Verify() {
		t.Error(v)
	}
}
