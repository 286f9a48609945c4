package transport

import (
	"bytes"
	"sync/atomic"
	"testing"

	"repro/internal/proto"
)

// captureNode records every sent payload. It deliberately does NOT implement
// FrameSender, exercising the owned-copy fallback path.
type captureNode struct {
	sent [][]byte
	to   []proto.NodeID
}

func (n *captureNode) ID() proto.NodeID { return 0 }
func (n *captureNode) Send(to proto.NodeID, payload []byte) error {
	n.to = append(n.to, to)
	n.sent = append(n.sent, payload)
	return nil
}
func (n *captureNode) Recv() <-chan Message { return nil }
func (n *captureNode) Close() error         { return nil }

// frameCaptureNode records sends arriving on the pooled-frame path and
// releases every frame it is handed, keeping the framecheck ledger balanced.
type frameCaptureNode struct {
	captureNode
	frames atomic.Uint64
}

func (n *frameCaptureNode) SendFrame(to proto.NodeID, f *Frame) error {
	n.frames.Add(1)
	cp := make([]byte, len(f.Buf))
	copy(cp, f.Buf)
	f.Release()
	return n.Send(to, cp)
}

// readReplyFrame encodes a reply the way the replica's read fast path does
// (backend.Runtime.handleRead → SendReply → AppendReply), so these tests
// exercise the exact frames the batcher carries on the read path.
func readReplyFrame(pos uint64) []byte {
	return proto.AppendReply(nil, proto.Reply{
		Req:    proto.RequestID{Group: 1, Client: -7, Seq: pos},
		From:   0,
		Epoch:  0,
		Weight: proto.WeightOf(0),
		Pos:    pos,
		Result: []byte("1"),
	})
}

// TestBatcherSingleMessageShipsBare: a round with one message for a
// destination ships it without an envelope, byte-identical to the unbatched
// wire — the read fast path's reply costs no framing.
func TestBatcherSingleMessageShipsBare(t *testing.T) {
	n := &captureNode{}
	b := NewBatcher(n, 1)
	frame := readReplyFrame(1)
	b.Add(2, frame)
	b.Flush()
	if len(n.sent) != 1 {
		t.Fatalf("sent %d frames, want the reply shipped on its own round's flush", len(n.sent))
	}
	if !bytes.Equal(n.sent[0], frame) {
		t.Fatalf("single reply shipped as %x, want the bare frame %x", n.sent[0], frame)
	}
}

// TestBatcherRoundShipsOneEnvelopePerDestination: everything added in a round
// ships on that round's Flush as one envelope per destination, each carrying
// its messages in Add order; nothing is held for a later round.
func TestBatcherRoundShipsOneEnvelopePerDestination(t *testing.T) {
	n := &captureNode{}
	b := NewBatcher(n, 1)
	want := map[proto.NodeID][][]byte{}
	for pos := uint64(1); pos <= 6; pos++ {
		to := proto.NodeID(7 + pos%2) // interleave two destinations
		f := readReplyFrame(pos)
		want[to] = append(want[to], f)
		b.Add(to, f)
	}
	b.Flush()
	if len(n.sent) != 2 {
		t.Fatalf("sent %d frames, want 2 (one envelope per destination)", len(n.sent))
	}
	if n.to[0] != 8 || n.to[1] != 7 {
		t.Fatalf("destinations shipped as %v, want first-send order [8 7]", n.to)
	}
	for i, to := range n.to {
		got, ok := ExpandBatch(Message{Payload: n.sent[i]})
		if !ok || len(got) != len(want[to]) {
			t.Fatalf("frame to %d: envelope=%v carrying %d messages, want %d", to, ok, len(got), len(want[to]))
		}
		for j := range got {
			if !bytes.Equal(got[j].Payload, want[to][j]) {
				t.Fatalf("envelope to %d message %d out of FIFO order", to, j)
			}
		}
	}
	if s := b.Stats(); s.Frames != 2 || s.Msgs != 6 {
		t.Fatalf("Stats = %+v, want Frames=2 Msgs=6", s)
	}
	// Nothing was retained: an empty round ships nothing, and the next
	// round's message ships alone.
	b.Flush()
	if len(n.sent) != 2 {
		t.Fatalf("an empty round shipped %d extra frames", len(n.sent)-2)
	}
	b.Add(7, readReplyFrame(9))
	b.Flush()
	if len(n.sent) != 3 || !bytes.Equal(n.sent[2], readReplyFrame(9)) {
		t.Fatalf("next round: sent=%d, want its one message shipped bare", len(n.sent))
	}
}

// TestBatcherFlushReleasesEveryFrame pushes pooled frames through a batcher
// and flushes: with the framecheck tag on (make framecheck) an unbalanced
// GetFrame/Release panics, so simply completing is the assert.
func TestBatcherFlushReleasesEveryFrame(t *testing.T) {
	n := &frameCaptureNode{}
	b := NewBatcher(n, 1)
	for i := 0; i < 100; i++ {
		// Encode into a pooled frame like the replica send path does, hand
		// the aliasing slice to Add (which copies), and release our frame.
		f := GetFrame()
		f.Buf = append(f.Buf, proto.MarshalHeartbeat(proto.GroupID(i))...)
		b.Add(proto.NodeID(i%4), f.Buf)
		f.Release()
	}
	b.Flush()
	if got := n.frames.Load(); got != 4 {
		t.Fatalf("Flush shipped %d frames, want 4 (one per destination)", got)
	}
	if s := b.Stats(); s.Frames != 4 || s.Msgs != 100 {
		t.Fatalf("Stats = %+v, want Frames=4 Msgs=100 (nothing left buffered)", s)
	}
}
