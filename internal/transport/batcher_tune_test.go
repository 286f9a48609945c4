package transport

import (
	"bytes"
	"sync/atomic"
	"testing"
	"time"

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

// fixedTuner pins the effective window, recording observations.
type fixedTuner struct {
	window   time.Duration
	observed atomic.Uint64 // frames observed
	msgs     atomic.Uint64
}

func (t *fixedTuner) Window() time.Duration { return t.window }
func (t *fixedTuner) Observe(_ time.Time, msgs int, _ time.Duration) {
	t.observed.Add(1)
	t.msgs.Add(uint64(msgs))
}

func msg(b byte) []byte { return proto.MarshalHeartbeat(proto.GroupID(b)) }

// TestBatcherWindowZeroFlushesImmediately: the zero-options batcher must keep
// the legacy contract — every Flush ships everything, nothing is held.
func TestBatcherWindowZeroFlushesImmediately(t *testing.T) {
	n := &captureNode{}
	b := NewBatcherWith(n, 1, BatcherOptions{Window: 0})
	b.Add(7, msg(1))
	b.Add(7, msg(2))
	b.Flush()
	if len(n.sent) != 1 {
		t.Fatalf("sent %d frames, want 1 coalesced envelope", len(n.sent))
	}
	if b.Pending() != 0 {
		t.Fatalf("Pending = %d after flush, want 0", b.Pending())
	}
	// And a second message in a later round ships on its round's flush too.
	b.Add(7, msg(3))
	b.Flush()
	if len(n.sent) != 2 {
		t.Fatalf("sent %d frames after second round, want 2", len(n.sent))
	}
}

// TestBatcherMaxBatchOneDegeneratesToUnbatched: with MaxBatch=1 every Add
// ships a bare frame immediately, byte-identical to the unbatched wire.
func TestBatcherMaxBatchOneDegeneratesToUnbatched(t *testing.T) {
	n := &captureNode{}
	b := NewBatcherWith(n, 3, BatcherOptions{MaxBatch: 1})
	payloads := [][]byte{msg(3), msg(3), msg(3)}
	for _, p := range payloads {
		b.Add(9, p)
	}
	// Everything already shipped from Add; Flush must be a no-op.
	if len(n.sent) != len(payloads) {
		t.Fatalf("sent %d frames before Flush, want %d (ship-on-Add)", len(n.sent), len(payloads))
	}
	b.Flush()
	if len(n.sent) != len(payloads) {
		t.Fatalf("Flush shipped extra frames: %d", len(n.sent))
	}
	for i, p := range payloads {
		if !bytes.Equal(n.sent[i], p) {
			t.Fatalf("frame %d = %x, want the bare message %x (no envelope)", i, n.sent[i], p)
		}
	}
}

// TestBatcherMaxBatchCapsEnvelope: the cap ships a full envelope from Add
// and the remainder on Flush.
func TestBatcherMaxBatchCapsEnvelope(t *testing.T) {
	n := &captureNode{}
	b := NewBatcherWith(n, 1, BatcherOptions{MaxBatch: 2})
	for i := 0; i < 5; i++ {
		b.Add(4, msg(1))
	}
	if len(n.sent) != 2 {
		t.Fatalf("sent %d envelopes from Add, want 2 (two full batches of 2)", len(n.sent))
	}
	b.Flush()
	if len(n.sent) != 3 {
		t.Fatalf("sent %d total, want 3 (2 capped + 1 remainder)", len(n.sent))
	}
	s := b.Stats()
	if s.Frames != 3 || s.Msgs != 5 {
		t.Fatalf("Stats = %+v, want Frames=3 Msgs=5", s)
	}
}

// TestBatcherWindowHoldsAcrossFlush: with an open window a young envelope
// survives Flush and ships once the hold expires or on Close.
func TestBatcherWindowHoldsAcrossFlush(t *testing.T) {
	n := &captureNode{}
	b := NewBatcherWith(n, 1, BatcherOptions{Window: time.Hour})
	b.Add(2, msg(1))
	b.Flush()
	if len(n.sent) != 0 {
		t.Fatal("held envelope shipped before its window expired")
	}
	if b.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1 held message", b.Pending())
	}
	b.Add(2, msg(2)) // joins the held envelope
	b.Add(5, msg(3)) // second destination, also held
	b.Flush()
	if len(n.sent) != 0 || b.Pending() != 3 {
		t.Fatalf("sent=%d pending=%d, want all 3 still held", len(n.sent), b.Pending())
	}
	b.Close()
	if len(n.sent) != 2 {
		t.Fatalf("Close shipped %d frames, want 2 (one per destination)", len(n.sent))
	}
	if b.Pending() != 0 {
		t.Fatalf("Pending = %d after Close, want 0", b.Pending())
	}
	if s := b.Stats(); s.Msgs != 3 {
		t.Fatalf("Stats.Msgs = %d, want 3", s.Msgs)
	}
}

// TestBatcherWindowExpiryShips: a held envelope ships on the first Flush
// after its oldest message is Window old.
func TestBatcherWindowExpiryShips(t *testing.T) {
	n := &captureNode{}
	b := NewBatcherWith(n, 1, BatcherOptions{Window: 5 * time.Millisecond})
	b.Add(2, msg(1))
	b.Flush()
	if len(n.sent) != 0 {
		t.Fatal("shipped before expiry")
	}
	time.Sleep(10 * time.Millisecond)
	b.Flush()
	if len(n.sent) != 1 {
		t.Fatalf("sent %d after expiry flush, want 1", len(n.sent))
	}
}

// TestBatcherTunerDrivesWindowAndSeesShips: the tuner's Window gates holds
// and every shipped frame is observed, on the pooled-frame path.
func TestBatcherTunerDrivesWindowAndSeesShips(t *testing.T) {
	n := &frameCaptureNode{}
	tn := &fixedTuner{window: time.Hour}
	b := NewBatcherWith(n, 1, BatcherOptions{Tuner: tn})
	b.Add(2, msg(1))
	b.Flush()
	if len(n.sent) != 0 {
		t.Fatal("tuner window open: envelope should have been held")
	}
	if got := b.Stats().Window; got != time.Hour {
		t.Fatalf("Stats.Window = %v, want the tuner's %v", got, time.Hour)
	}
	tn.window = 0 // tuner decides: latency floor
	b.Flush()
	if len(n.sent) != 1 {
		t.Fatalf("sent %d after tuner closed the window, want 1", len(n.sent))
	}
	if n.frames.Load() != 1 {
		t.Fatalf("pooled-frame sends = %d, want 1", n.frames.Load())
	}
	if tn.observed.Load() != 1 || tn.msgs.Load() != 1 {
		t.Fatalf("tuner observed frames=%d msgs=%d, want 1/1", tn.observed.Load(), tn.msgs.Load())
	}
}

// readReplyFrame encodes a reply the way the replica's read fast path does
// (backend.Runtime.handleRead → SendReply → AppendReply), so these tests exercise
// the exact frames the batcher holds on the read path.
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

// TestBatcherReadReplyNeverHeldPastMaxWindow pins the read-latency contract
// of the AutoTune batcher: a read reply may be held by an open window, but
// never longer than the tuner's ceiling (tune.Config.MaxWindow) measured from
// the OLDEST buffered message. The regression this guards: re-stamping the
// hold clock on later Adds would let a trickle of read replies postpone the
// envelope indefinitely, turning the "bounded hold" into an unbounded one and
// destroying the read fast path's latency edge (E13's read p50 ≤ write p50).
func TestBatcherReadReplyNeverHeldPastMaxWindow(t *testing.T) {
	const window = 25 * time.Millisecond // stands in for the tuner's MaxWindow ceiling
	n := &captureNode{}
	tn := &fixedTuner{window: window}
	b := NewBatcherWith(n, 1, BatcherOptions{Tuner: tn})

	b.Add(2, readReplyFrame(1))
	b.Flush()
	if len(n.sent) != 0 {
		t.Fatal("read reply shipped before the window expired (hold layer inactive)")
	}

	// A second reply arrives just as the first's hold expires. The window is
	// measured from the oldest message: the young reply must NOT reset the
	// clock, so this Flush ships both.
	time.Sleep(window + window/2)
	b.Add(2, readReplyFrame(2))
	b.Flush()
	if len(n.sent) != 1 {
		t.Fatalf("sent %d frames, want 1: a fresh Add re-stamped the hold clock and kept the expired reply buffered", len(n.sent))
	}
	if b.Pending() != 0 {
		t.Fatalf("Pending = %d after the expiry flush, want 0", b.Pending())
	}
	if s := b.Stats(); s.Msgs != 2 {
		t.Fatalf("Stats.Msgs = %d, want both replies in the shipped envelope", s.Msgs)
	}
}

// TestBatcherReadReplyWindowExtremes drives the tuner to both ends of its
// control range. At the latency floor (window 0) a read reply ships on the
// round's own Flush, byte-identical to the unbatched wire; at an effectively
// infinite window the reply still cannot be held past the envelope cap — a
// full envelope ships from Add itself — and Close drains whatever remains.
func TestBatcherReadReplyWindowExtremes(t *testing.T) {
	// Floor: the tuner decided pure latency mode.
	n := &captureNode{}
	tn := &fixedTuner{window: 0}
	b := NewBatcherWith(n, 1, BatcherOptions{Tuner: tn})
	frame := readReplyFrame(1)
	b.Add(2, frame)
	b.Flush()
	if len(n.sent) != 1 {
		t.Fatalf("sent %d at the latency floor, want the reply shipped on its own round's flush", len(n.sent))
	}
	if !bytes.Equal(n.sent[0], frame) {
		t.Fatalf("single read reply shipped as %x, want the bare unbatched frame %x", n.sent[0], frame)
	}

	// Ceiling stuck open: even a window that never expires cannot hold a
	// reply once the envelope is full, and Close drains the rest.
	n2 := &captureNode{}
	b2 := NewBatcherWith(n2, 1, BatcherOptions{Tuner: &fixedTuner{window: time.Hour}, MaxBatch: 4})
	for pos := uint64(1); pos <= 5; pos++ {
		b2.Add(2, readReplyFrame(pos))
	}
	if len(n2.sent) != 1 {
		t.Fatalf("sent %d under an open window, want 1 full envelope shipped from Add at MaxBatch", len(n2.sent))
	}
	b2.Flush()
	if len(n2.sent) != 1 || b2.Pending() != 1 {
		t.Fatalf("sent=%d pending=%d: the young remainder should still be held", len(n2.sent), b2.Pending())
	}
	b2.Close()
	if len(n2.sent) != 2 || b2.Pending() != 0 {
		t.Fatalf("sent=%d pending=%d after Close, want everything drained", len(n2.sent), b2.Pending())
	}
}

// TestBatcherCloseReleasesEveryQueuedFrame pushes pooled frames through a
// held batcher and closes it: with the framecheck tag on (make framecheck)
// an unbalanced GetFrame/Release panics, so simply completing is the assert.
func TestBatcherCloseReleasesEveryQueuedFrame(t *testing.T) {
	n := &frameCaptureNode{}
	b := NewBatcherWith(n, 1, BatcherOptions{Window: time.Hour})
	for i := 0; i < 100; i++ {
		// Encode into a pooled frame like the replica send path does, hand
		// the aliasing slice to Add (which copies), and release our frame.
		f := GetFrame()
		f.Buf = append(f.Buf, msg(byte(i))...)
		b.Add(proto.NodeID(i%4), f.Buf)
		f.Release()
	}
	if b.Pending() != 100 {
		t.Fatalf("Pending = %d, want 100 held", b.Pending())
	}
	b.Close()
	if b.Pending() != 0 {
		t.Fatalf("Pending = %d after Close, want 0", b.Pending())
	}
	if got := n.frames.Load(); got != 4 {
		t.Fatalf("Close shipped %d frames, want 4 (one per destination)", got)
	}
	if s := b.Stats(); s.Msgs != 100 {
		t.Fatalf("Stats.Msgs = %d, want 100", s.Msgs)
	}
}
