package transport

import (
	"encoding/binary"
	"sync/atomic"

	"repro/internal/proto"
)

// sendBuf accumulates one destination's outbound messages as a proto.Batch
// envelope under construction: [KindBatch][group][len][msg][len][msg]... The
// buffer is reused across flushes.
type sendBuf struct {
	buf   []byte
	count int
}

// sendBufMaxIdle caps the capacity a reusable send buffer may retain after a
// flush, so one exceptional burst does not pin memory forever.
const sendBufMaxIdle = 64 << 10

// Batcher coalesces the sends of one batching round per destination, tagging
// every envelope with the owning ordering group. The replica runtime and the
// client sender of internal/backend funnel every protocol's sends through
// one of these, so all backends are measured under the same transport. A
// Batcher is owned by a single goroutine (a replica event loop, or a client's
// sender loop). FIFO per destination is preserved because frames are appended
// in send order and rounds never interleave.
//
// One round is one batch: Flush ships everything Add buffered since the last
// Flush, so no message is held across rounds. Measured on the benchmark of
// record, every hold window lost on every workload (EXPERIMENTS.md, "Hold
// windows: measured, and deleted").
//
// Allocation discipline: Add copies the frame into the destination's reusable
// envelope buffer, so callers may encode into a scratch buffer and hand the
// aliasing slice straight in. Flush ships each envelope as a pooled Frame
// when the node supports FrameSender (the steady-state zero-allocation path)
// and falls back to an owned copy plus plain Send otherwise.
type Batcher struct {
	node   Node
	frames FrameSender // non-nil when node supports the pooled-frame path
	header []byte      // precomputed [KindBatch][group] envelope header
	bufs   map[proto.NodeID]*sendBuf
	order  []proto.NodeID // destinations with buffered sends, in first-send order

	// Lifetime counters for the stats surface; read concurrently.
	framesSent atomic.Uint64
	msgsSent   atomic.Uint64
}

// NewBatcher creates a batcher shipping through node, tagging envelopes with
// the given ordering group.
func NewBatcher(node Node, group proto.GroupID) *Batcher {
	b := &Batcher{
		node:   node,
		header: proto.AppendHeader(nil, proto.KindBatch, group),
		bufs:   make(map[proto.NodeID]*sendBuf),
	}
	if fs, ok := node.(FrameSender); ok {
		b.frames = fs
	}
	return b
}

// Add appends one kind-tagged message to to's envelope buffer, copying it —
// frame may alias a scratch buffer the caller reuses immediately after.
func (b *Batcher) Add(to proto.NodeID, frame []byte) {
	sb, ok := b.bufs[to]
	if !ok {
		sb = &sendBuf{} // once per destination; the map entry is reused forever
		b.bufs[to] = sb
	}
	if sb.count == 0 {
		sb.buf = append(sb.buf[:0], b.header...)
		b.order = append(b.order, to)
	}
	sb.buf = binary.AppendUvarint(sb.buf, uint64(len(frame)))
	sb.buf = append(sb.buf, frame...)
	sb.count++
}

// Flush ships every buffered send: one owned frame per destination — the
// batch envelope, or the bare inner message when it holds just one (so
// single-message traffic is byte-identical to the unbatched wire). Nothing
// stays buffered. On a FrameSender transport the frame comes from (and
// returns to) the shared frame pool; otherwise it is freshly allocated.
// Send errors mean the network or this node is gone; the caller's receive
// side will observe the closed inbox. Nothing useful to do here.
func (b *Batcher) Flush() {
	for _, to := range b.order {
		b.ship(b.bufs[to], to)
	}
	b.order = b.order[:0]
}

// ship sends one destination's envelope and resets its buffer.
func (b *Batcher) ship(sb *sendBuf, to proto.NodeID) {
	raw := sb.buf
	if sb.count == 1 {
		// Unwrap [KindBatch][group][len][msg] to the bare message.
		skip := len(b.header)
		_, n := binary.Uvarint(raw[skip:])
		raw = raw[skip+n:]
	}
	if b.frames != nil {
		f := GetFrame()
		f.Buf = append(f.Buf, raw...)
		_ = b.frames.SendFrame(to, f)
	} else {
		frame := make([]byte, len(raw))
		copy(frame, raw)
		_ = b.node.Send(to, frame)
	}
	b.framesSent.Add(1)
	b.msgsSent.Add(uint64(sb.count))
	sb.count = 0
	if cap(sb.buf) > sendBufMaxIdle {
		sb.buf = nil
	}
}

// BatcherStats is a point-in-time view of a Batcher, for stats surfaces.
// Read concurrently with the owner's Add/Flush.
type BatcherStats struct {
	// Frames counts shipped frames; Msgs counts the messages they carried.
	Frames uint64
	Msgs   uint64
}

// Stats reads the batcher's counters. Safe from any goroutine.
func (b *Batcher) Stats() BatcherStats {
	return BatcherStats{Frames: b.framesSent.Load(), Msgs: b.msgsSent.Load()}
}
