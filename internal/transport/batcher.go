package transport

import (
	"encoding/binary"
	"sync/atomic"
	"time"

	"repro/internal/proto"
)

// WindowTuner is a closed-loop controller for the Batcher's hold window.
// Window is the current control output; Observe feeds the controller one
// shipped frame (how many messages it coalesced and how long its oldest
// message was held). The Batcher calls Observe from its owning goroutine;
// Window may be read by the same call, so implementations must make both
// cheap and Window safe for concurrent readers. internal/tune.Controller is
// the production implementation.
type WindowTuner interface {
	Window() time.Duration
	Observe(now time.Time, msgs int, hold time.Duration)
}

// BatcherOptions tune a Batcher beyond the per-round coalescing default.
// The zero value is the legacy behaviour: every Flush ships everything.
type BatcherOptions struct {
	// Window, when positive, holds a destination's envelope across Flush
	// calls until its oldest message is Window old (or MaxBatch is reached).
	// The owner must keep calling Flush periodically (a tick, or a timer)
	// for held envelopes to drain. Zero means Flush always ships.
	Window time.Duration
	// MaxBatch, when positive, caps messages per envelope: a destination
	// reaching it ships immediately from Add, without waiting for Flush.
	// MaxBatch=1 degenerates to the unbatched wire (every message ships as
	// a bare frame the moment it is added). When a hold is configured
	// (Window or Tuner) and MaxBatch is zero, DefaultMaxBatch applies so a
	// held envelope cannot grow past the transport frame limit; negative
	// disables the cap explicitly.
	MaxBatch int
	// Tuner, when non-nil, overrides Window with a closed-loop controller:
	// the effective window is Tuner.Window() at each Flush, and every
	// shipped frame is reported back through Tuner.Observe.
	Tuner WindowTuner
}

// sendBuf accumulates one destination's outbound messages as a proto.Batch
// envelope under construction: [KindBatch][group][len][msg][len][msg]... The
// buffer is reused across flushes.
type sendBuf struct {
	buf      []byte
	count    int
	queued   bool      // present in Batcher.order
	firstAdd time.Time // when the oldest buffered message was added (timed mode)
}

// sendBufMaxIdle caps the capacity a reusable send buffer may retain after a
// flush, so one exceptional burst does not pin memory forever.
const sendBufMaxIdle = 64 << 10

// DefaultMaxBatch is the envelope cap a holding batcher (Window or Tuner set)
// falls back to when the owner left MaxBatch at zero. A hold bounds an
// envelope only in time, not in size, so without a cap a saturated sender
// could grow one past the transport frame limit (tcpnet rejects such frames
// whole, silently dropping every coalesced message in them). Matches the OAR
// server's default ordering batch size.
const DefaultMaxBatch = 512

// Batcher coalesces the sends of one batching round per destination, tagging
// every envelope with the owning ordering group. The replica runtime and the
// client sender of internal/backend funnel every protocol's sends through
// one of these, so all backends are measured under the same transport. A
// Batcher is owned by a
// single goroutine (a replica event loop, or a client's sender loop). FIFO
// per destination is preserved because frames are appended in send order and
// rounds never interleave.
//
// With BatcherOptions a Batcher can also hold envelopes across rounds (a
// static Window or a closed-loop WindowTuner) and cap envelope size
// (MaxBatch). An owner using a window must call Flush on a timer or tick so
// held envelopes drain, and Close when shutting down so nothing queued is
// dropped.
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
	opts   BatcherOptions
	timed  bool // stamp firstAdd: a window or tuner may hold envelopes
	bufs   map[proto.NodeID]*sendBuf
	order  []proto.NodeID // destinations with buffered sends, in first-send order

	// Lifetime counters for the stats surface; read concurrently.
	framesSent atomic.Uint64
	msgsSent   atomic.Uint64
}

// NewBatcher creates a batcher shipping through node, tagging envelopes with
// the given ordering group. Legacy per-round behaviour: Flush ships all.
func NewBatcher(node Node, group proto.GroupID) *Batcher {
	return NewBatcherWith(node, group, BatcherOptions{})
}

// NewBatcherWith creates a batcher with explicit hold-window / batch-size
// options.
func NewBatcherWith(node Node, group proto.GroupID, opts BatcherOptions) *Batcher {
	if (opts.Window > 0 || opts.Tuner != nil) && opts.MaxBatch == 0 {
		// A hold without a size cap could grow an envelope past the frame
		// limit; see DefaultMaxBatch.
		opts.MaxBatch = DefaultMaxBatch
	}
	b := &Batcher{
		node:   node,
		header: proto.AppendHeader(nil, proto.KindBatch, group),
		opts:   opts,
		timed:  opts.Window > 0 || opts.Tuner != nil,
		bufs:   make(map[proto.NodeID]*sendBuf),
	}
	if fs, ok := node.(FrameSender); ok {
		b.frames = fs
	}
	return b
}

// Add appends one kind-tagged message to to's envelope buffer, copying it —
// frame may alias a scratch buffer the caller reuses immediately after. When
// MaxBatch is set and the envelope reaches it, the envelope ships here.
func (b *Batcher) Add(to proto.NodeID, frame []byte) {
	sb, ok := b.bufs[to]
	if !ok {
		sb = &sendBuf{} // once per destination; the map entry is reused forever
		b.bufs[to] = sb
	}
	if sb.count == 0 {
		sb.buf = append(sb.buf[:0], b.header...)
		if b.timed {
			sb.firstAdd = time.Now()
		}
		if !sb.queued {
			sb.queued = true
			b.order = append(b.order, to)
		}
	}
	sb.buf = binary.AppendUvarint(sb.buf, uint64(len(frame)))
	sb.buf = append(sb.buf, frame...)
	sb.count++
	if b.opts.MaxBatch > 0 && sb.count >= b.opts.MaxBatch {
		var now time.Time
		if b.timed {
			now = time.Now()
		}
		b.ship(sb, to, now)
		// sb stays queued; the next Flush prunes it from order if it gets
		// no further messages.
	}
}

// Flush ships every buffered send whose hold has expired: one owned frame per
// destination — the batch envelope, or the bare inner message when it holds
// just one (so single-message traffic is byte-identical to the unbatched
// wire). With no window (and no tuner, or a tuner currently at the latency
// floor) everything ships; with an open window, a destination whose oldest
// message is younger than the window and whose envelope is under MaxBatch is
// retained for a later Flush. On a FrameSender transport the frame comes from
// (and returns to) the shared frame pool; otherwise it is freshly allocated.
// Send errors mean the network or this node is gone; the caller's receive
// side will observe the closed inbox. Nothing useful to do here.
func (b *Batcher) Flush() {
	b.flush(false)
}

// Close force-ships everything still buffered, ignoring any hold window.
// Owners using a window (or tuner) must call it on shutdown so queued
// messages are not silently dropped.
func (b *Batcher) Close() {
	b.flush(true)
}

func (b *Batcher) flush(force bool) {
	if len(b.order) == 0 {
		return
	}
	w := b.opts.Window
	if b.opts.Tuner != nil {
		w = b.opts.Tuner.Window()
	}
	var now time.Time
	if b.timed {
		now = time.Now()
	}
	kept := b.order[:0]
	for _, to := range b.order {
		sb := b.bufs[to]
		if sb.count == 0 {
			// Shipped from Add when it hit MaxBatch; drop from order.
			sb.queued = false
			continue
		}
		if !force && w > 0 && now.Sub(sb.firstAdd) < w &&
			(b.opts.MaxBatch <= 0 || sb.count < b.opts.MaxBatch) {
			kept = append(kept, to)
			continue
		}
		sb.queued = false
		b.ship(sb, to, now)
	}
	b.order = kept
}

// ship sends one destination's envelope and resets its buffer. now is zero
// when the batcher is untimed (no window, no tuner).
func (b *Batcher) ship(sb *sendBuf, to proto.NodeID, now time.Time) {
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
	if b.opts.Tuner != nil {
		var hold time.Duration
		if !sb.firstAdd.IsZero() {
			hold = now.Sub(sb.firstAdd)
		}
		b.opts.Tuner.Observe(now, sb.count, hold)
	}
	sb.count = 0
	sb.firstAdd = time.Time{}
	if cap(sb.buf) > sendBufMaxIdle {
		sb.buf = nil
	}
}

// Pending reports how many messages are buffered (held or not yet flushed).
// Owners holding a window use it to arm a drain timer.
func (b *Batcher) Pending() int {
	n := 0
	for _, to := range b.order {
		n += b.bufs[to].count
	}
	return n
}

// BatcherStats is a point-in-time view of a Batcher, for stats surfaces.
// Read concurrently with the owner's Add/Flush.
type BatcherStats struct {
	// Frames counts shipped frames; Msgs counts the messages they carried.
	Frames uint64
	Msgs   uint64
	// Window is the effective hold window right now: the tuner's output
	// when auto-tuning, the static option otherwise.
	Window time.Duration
}

// Stats reads the batcher's counters. Safe from any goroutine.
func (b *Batcher) Stats() BatcherStats {
	s := BatcherStats{
		Frames: b.framesSent.Load(),
		Msgs:   b.msgsSent.Load(),
		Window: b.opts.Window,
	}
	if b.opts.Tuner != nil {
		s.Window = b.opts.Tuner.Window()
	}
	return s
}
