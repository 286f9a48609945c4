// Package transport defines the point-to-point messaging abstraction used by
// every protocol in this repository, matching the system model of Section 3
// of the paper: processes communicate over reliable FIFO channels via the two
// primitives send and receive.
//
// Two implementations exist: memnet (in-process, with configurable latency,
// partitions and fault injection — used by tests, examples and benchmarks)
// and tcpnet (real TCP, used by the cmd/ tools).
package transport

import (
	"errors"
	"sync"

	"repro/internal/proto"
)

// ErrClosed is returned by Send after the node or network has been closed.
var ErrClosed = errors.New("transport: closed")

// ErrCrashed is returned by Send on a node that has been crashed by fault
// injection.
var ErrCrashed = errors.New("transport: node crashed")

// Frame is a uniquely-owned, poolable payload buffer. The steady-state frame
// path recycles Frames instead of allocating: a sender takes one with
// GetFrame, fills Buf, and hands it to a FrameSender; whoever observes the
// frame last — the transport after writing it to a socket, the receiving
// event loop after handling the delivered message — calls Release to return
// it to the pool.
//
// Ownership rule: a Frame has exactly one owner at a time, and Release may
// be called exactly once per GetFrame. After Release the buffer will be
// overwritten by an unrelated message; any data that must outlive it (a
// request body kept in a payloads map, an adopted reply's result) must be
// copied out first — see the Clone methods on proto.Request, proto.Reply and
// proto.SeqOrder.
type Frame struct {
	Buf []byte

	// dbg is empty (and the hooks below free) unless the framecheck build
	// tag is on, in which case double releases panic with the acquisition
	// stack. See framecheck_on.go.
	dbg frameDebug
}

// frameMaxIdle caps the capacity a pooled frame may retain, so one
// exceptional burst does not pin memory in the pool forever.
const frameMaxIdle = 64 << 10

var framePool = sync.Pool{New: func() any { return &Frame{} }}

// GetFrame takes an empty frame from the shared pool.
func GetFrame() *Frame {
	f := framePool.Get().(*Frame)
	f.Buf = f.Buf[:0]
	f.dbg.noteGet()
	return f
}

// Release returns f to the pool. Exactly one Release per GetFrame; the
// caller must not touch f.Buf (or anything aliasing it) afterwards.
func (f *Frame) Release() {
	if f == nil {
		return
	}
	f.dbg.noteRelease()
	if cap(f.Buf) > frameMaxIdle {
		return // ownership still ends here; the frame just isn't pooled
	}
	framePool.Put(f)
}

// Message is a payload delivered to a node, tagged with its sender. If the
// payload rides a pooled Frame, the frame travels with the message and the
// receiver recycles it by calling Release once the message (and everything
// decoded zero-copy from it) is no longer needed.
type Message struct {
	From    proto.NodeID
	Payload []byte

	frame *Frame // pooled backing buffer; nil for unpooled payloads
}

// OwnedMessage builds a Message whose payload rides the pooled frame f.
// payload must alias f.Buf (it is usually f.Buf itself, but may be a
// sub-slice — e.g. the single survivor of a filtered envelope). The message
// takes over the frame's single ownership: the receiver's Release recycles
// it.
func OwnedMessage(from proto.NodeID, payload []byte, f *Frame) Message {
	//oar:frame-handoff released by the receiver's Message.Release, once per delivery
	return Message{From: from, Payload: payload, frame: f}
}

// Release recycles the message's pooled backing frame, if any. Receivers
// call it once per delivered message, after the message — including every
// slice decoded zero-copy from its payload — is done with. Releasing an
// unpooled message is a no-op, so event loops release unconditionally.
func (m Message) Release() {
	if m.frame != nil {
		m.frame.Release()
	}
}

// Node is one process's endpoint. Send is asynchronous, non-blocking and
// reliable FIFO per destination: two messages sent to the same destination
// are delivered in send order. Implementations must make Send safe for
// concurrent use.
//
// Send borrows payload: the transport may queue and share the very slice it
// was given, so the caller must not mutate it afterwards (it may still hold
// and resend it — heartbeat frames do). The zero-allocation path transfers
// ownership instead: see FrameSender.
type Node interface {
	// ID returns this node's process identifier.
	ID() proto.NodeID
	// Send enqueues payload for delivery to the destination. It never blocks
	// on the receiver.
	Send(to proto.NodeID, payload []byte) error
	// Recv returns the channel of inbound messages. The channel is closed
	// when the node is closed or crashed.
	Recv() <-chan Message
	// Close releases the node's resources.
	Close() error
}

// FrameSender is the optional zero-allocation send capability of a
// transport. SendFrame transfers ownership of a pooled frame obtained from
// GetFrame: the transport (or the final in-process receiver it delivers to)
// releases it, and the caller must not touch the frame after the call —
// succeed or fail. Same delivery semantics as Send otherwise.
// transport.Batcher uses this automatically when the node provides it.
type FrameSender interface {
	SendFrame(to proto.NodeID, f *Frame) error
}

// SendBatch delivers several kind-tagged payloads to one destination as a
// single frame: one payload is sent as-is, several are coalesced into a
// proto.Batch envelope of group g (one syscall on tcpnet, one link hop on
// memnet). The receiver unwraps the envelope with ExpandBatch, preserving
// order.
func SendBatch(n Node, g proto.GroupID, to proto.NodeID, payloads [][]byte) error {
	switch len(payloads) {
	case 0:
		return nil
	case 1:
		return n.Send(to, payloads[0])
	default:
		return n.Send(to, proto.MarshalBatch(g, payloads))
	}
}

// ExpandBatch splits a received message into its inner messages if it is a
// proto.Batch envelope, preserving the sender and the inner order. Non-batch
// messages (and malformed batches, which are dropped like any other garbage)
// are returned unchanged as a single-element slice with ok=false.
//
// Expansion is single-level by construction: proto.UnmarshalBatch rejects
// envelopes that contain a nested batch, so an adversarial
// batch-inside-a-batch payload is a decode error (dropped wholesale) rather
// than a recursion. The inner filter here is defense in depth — should a
// nested envelope ever slip through a future decoder change, it is discarded
// instead of being handed back to a dispatcher that might expand it again.
func ExpandBatch(m Message) (msgs []Message, ok bool) {
	kind, _, body, err := proto.Unmarshal(m.Payload)
	if err != nil || kind != proto.KindBatch {
		//oar:frame-handoff ownership returns to the caller inside the result slice
		return []Message{m}, false
	}
	batch, err := proto.UnmarshalBatch(body)
	if err != nil {
		return nil, true // corrupt (or nested) batch: drop it wholesale
	}
	out := make([]Message, 0, len(batch.Msgs))
	for _, inner := range batch.Msgs {
		if proto.Kind(inner[0]) == proto.KindBatch {
			continue // never re-expandable: flatten by discarding
		}
		out = append(out, Message{From: m.From, Payload: inner})
	}
	return out, true
}

// Queue is an unbounded FIFO of messages feeding an output channel. It
// decouples senders from receivers so that an event-loop process can never
// deadlock by sending while its own inbox is full. Close is idempotent.
type Queue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	items  []Message
	closed bool

	out    chan Message
	notify chan struct{} // closed by Close; unblocks the pump's send
	done   chan struct{} // pump goroutine exited
}

// outBuffer is the capacity of a queue's delivery channel. A buffered
// channel lets the pump stay ahead of the consumer, so an event loop that
// drains its inbox opportunistically (the batching path in backend.Runtime.Run)
// actually observes the backlog instead of one message per goroutine switch.
const outBuffer = 256

// NewQueue creates a queue and starts its delivery pump.
func NewQueue() *Queue {
	q := &Queue{
		out:    make(chan Message, outBuffer),
		notify: make(chan struct{}),
		done:   make(chan struct{}),
	}
	q.cond = sync.NewCond(&q.mu)
	go q.pump()
	return q
}

// Push enqueues m. Pushes after Close are dropped (releasing any pooled
// frame the message rides).
func (q *Queue) Push(m Message) {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		m.Release()
		return
	}
	q.items = append(q.items, m) //oar:frame-handoff released by the consumer after delivery, or by pump's discard path on Close
	q.cond.Signal()
	q.mu.Unlock()
}

// Out returns the delivery channel. It is closed after Close once the pump
// has stopped; messages not yet consumed are discarded.
func (q *Queue) Out() <-chan Message { return q.out }

// Len returns the number of queued (not yet delivered) messages.
func (q *Queue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.items)
}

// Close stops the queue. Messages not yet handed to the consumer are
// discarded. Close is idempotent and blocks until the pump has exited.
func (q *Queue) Close() {
	q.mu.Lock()
	if !q.closed {
		q.closed = true
		close(q.notify)
		q.cond.Signal()
	}
	q.mu.Unlock()
	<-q.done
}

func (q *Queue) pump() {
	defer close(q.done)
	defer close(q.out)
	for {
		q.mu.Lock()
		for len(q.items) == 0 && !q.closed {
			q.cond.Wait()
		}
		if q.closed {
			// Discard (and recycle) whatever the consumer never saw.
			items := q.items
			q.items = nil
			q.mu.Unlock()
			for _, m := range items {
				m.Release()
			}
			return
		}
		m := q.items[0]
		q.items = q.items[1:]
		q.mu.Unlock()

		select {
		case q.out <- m: //oar:frame-handoff released by the consumer reading Out()
		case <-q.notify:
			m.Release()
			q.mu.Lock()
			items := q.items
			q.items = nil
			q.mu.Unlock()
			for _, im := range items {
				im.Release()
			}
			return
		}
	}
}
