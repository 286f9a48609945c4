package core

import (
	"context"
	"errors"
	"slices"
	"testing"
	"time"

	"repro/internal/app"
	"repro/internal/backend"
	"repro/internal/cnsvorder"
	"repro/internal/consensus"
	"repro/internal/fd"
	"repro/internal/proto"
	"repro/internal/transport"
)

// TestEpochCloseKeepsUndoneAndUnorderedInArrivalOrder pins the close
// transition of the epoch table. Replica self of a five-replica group
// receives a, b, c, d, Opt-delivers the sequencer's order [a c], enters
// phase 2 and then receives e. A majority that never saw c decides
// (dlv [a], notdlv [b x]), where x never reached self: Cnsv-order keeps a,
// undoes c and A-delivers b and x. The closed table must hold exactly the
// undone and the unordered requests, c d e, in arrival order, and nothing
// for x. At p2 they all wait unordered; p1 is the sequencer of epoch 1, and
// its first SeqOrder lists them in that order. Driven single-threaded, as
// the event loop would; the hand-built decision stands in for the consensus
// round.
func TestEpochCloseKeepsUndoneAndUnorderedInArrivalOrder(t *testing.T) {
	reqs := map[string]proto.Request{}
	for i, name := range []string{"a", "b", "c", "d", "e", "x"} {
		reqs[name] = proto.Request{
			ID:  proto.RequestID{Client: proto.ClientID(9), Seq: uint64(i)},
			Cmd: []byte(name),
		}
	}
	pick := func(names ...string) []proto.Request {
		out := make([]proto.Request, len(names))
		for i, n := range names {
			out[i] = reqs[n]
		}
		return out
	}
	wantLive := []proto.RequestID{reqs["c"].ID, reqs["d"].ID, reqs["e"].ID}

	for _, self := range []proto.NodeID{1, 2} {
		node := &sentNode{sinkNode: newSinkNode(self), sent: map[proto.NodeID][][]byte{}}
		defer node.Close()
		srv, err := NewServer(backend.ReplicaConfig{
			ID:       self,
			Group:    proto.Group(5),
			Node:     node,
			Machine:  app.NewRecorder(),
			Detector: fd.Never{},
			// No tick may fire inside the brief Run below.
			TickInterval: time.Hour,
		})
		if err != nil {
			t.Fatal(err)
		}

		for _, r := range pick("a", "b", "c", "d") {
			srv.Submit(r)
		}
		srv.handleSeqOrder(proto.SeqOrder{Epoch: 0, Reqs: pick("a", "c")})
		srv.handlePhaseII(0)
		srv.Submit(reqs["e"])

		in := cnsvorder.Input{Dlv: pick("a"), NotDlv: pick("b", "x")}
		var d consensus.Decision
		for _, from := range []proto.NodeID{0, 3, 4} {
			d = append(d, consensus.ProposedValue{From: from, Val: in.Marshal()})
		}
		srv.onDecide(0, d)

		// p1 Opt-delivers the survivors again as the sequencer of epoch 1.
		wantOpt := uint64(2)
		if self == 1 {
			wantOpt += uint64(len(wantLive))
		}
		st := srv.Stats()
		if srv.Epoch != 1 || st.OptDelivered != wantOpt || st.OptUndelivered != 1 || st.ADelivered != 2 {
			t.Fatalf("p%d: epoch %d, stats %+v; want epoch 1, %d Opt-deliveries, 1 undo (c) and 2 A-deliveries (b x)",
				self, srv.Epoch, st, wantOpt)
		}
		var live []proto.RequestID
		for _, sl := range srv.live {
			live = append(live, sl.req.ID)
		}
		if !slices.Equal(live, wantLive) {
			t.Fatalf("p%d: closed table holds %v, want the undone and unordered requests c d e %v", self, live, wantLive)
		}
		for i, id := range live {
			if srv.at[id] != i {
				t.Fatalf("p%d: index maps %v to slot %d, want %d", self, id, srv.at[id], i)
			}
		}
		if len(srv.at) != len(wantLive) {
			t.Fatalf("p%d: index has %d entries for %d slots; x, which only consensus carried, must have none",
				self, len(srv.at), len(wantLive))
		}

		if self != 1 {
			if fp := srv.Footprint(); fp.Live != fp.Pending || fp.Live != len(wantLive) || fp.ODelivered != 0 {
				t.Fatalf("p%d: footprint after close %+v, want Live == Pending == %d", self, fp, len(wantLive))
			}
			continue
		}

		// p1 ordered the survivors on entering epoch 1; a loop that exits
		// mid-round flushes what the round had buffered.
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if err := srv.Run(ctx); !errors.Is(err, context.Canceled) {
			t.Fatalf("Run = %v, want context.Canceled", err)
		}
		var first *proto.SeqOrder
		for _, frame := range node.sent[0] {
			msgs, _ := transport.ExpandBatch(transport.Message{From: self, Payload: frame})
			for _, m := range msgs {
				kind, _, body, err := proto.Unmarshal(m.Payload)
				if err != nil || kind != proto.KindSeqOrder {
					continue
				}
				var order proto.SeqOrder
				if err := order.UnmarshalBody(body); err != nil {
					t.Fatal(err)
				}
				first = &order
				break
			}
			if first != nil {
				break
			}
		}
		if first == nil {
			t.Fatal("p1: the sequencer of epoch 1 sent no SeqOrder")
		}
		var ordered []proto.RequestID
		for _, r := range first.Reqs {
			ordered = append(ordered, r.ID)
		}
		if first.Epoch != 1 || !slices.Equal(ordered, wantLive) {
			t.Fatalf("p1: first SeqOrder is epoch %d %v, want epoch 1 %v", first.Epoch, ordered, wantLive)
		}
	}
}
