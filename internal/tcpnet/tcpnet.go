// Package tcpnet implements the transport abstraction over TCP, for running
// replicas and clients as separate OS processes (cmd/oar-server,
// cmd/oar-client).
//
// Wire format: a connection starts with a handshake — the sender's NodeID
// (8 bytes, big-endian two's complement) and its listen address (2-byte
// length + bytes; empty if none) — followed by length-prefixed frames
// (4-byte big-endian length, then payload). The advertised listen address
// lets a server dial back clients it has never been configured with (replies
// go to the request's originating NodeID). One outgoing connection per destination
// preserves the FIFO property of the model; dialing is lazy with
// exponential backoff, and frames queue unboundedly while a peer is down.
// Each sender wakeup drains its whole queued backlog, assembles it into one
// length-prefixed burst, and hands it to a buffered writer that flushes when
// the queue runs dry, so message bursts — including proto.Batch envelopes
// produced by the replicas — cost one buffered write and one syscall instead
// of one per message — matching the reliable-channel abstraction for
// crash-stop runs (frames in flight during a genuine TCP reset can be lost;
// the protocols above tolerate this exactly the way they tolerate a slow
// channel, via relays and consensus).
// Frames are pooled in both directions (transport.Frame): sends recycle
// their buffers once written, and received frames are recycled by the
// consuming event loop's Message.Release.
package tcpnet

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/proto"
	"repro/internal/transport"
)

// MaxFrame bounds a single message (16 MiB), protecting against corrupt
// length prefixes.
const MaxFrame = 16 << 20

// Config configures a TCP node.
type Config struct {
	// ID is this process's node ID.
	ID proto.NodeID
	// Listen is the local listen address, e.g. ":7000". Empty means
	// client-only (no inbound connections are accepted; suitable for
	// clients, which only receive replies over their outgoing dials... and
	// therefore must set Listen too in practice — replies are sent to the
	// client's listen address).
	Listen string
	// Peers maps node IDs to "host:port" addresses for outgoing traffic.
	// Additional peers are learned dynamically from inbound handshakes; a
	// learned address follows the peer's latest handshake.
	Peers map[proto.NodeID]string
	// Advertise is the address announced in outbound handshakes so peers can
	// dial back (e.g. the externally visible form of Listen). Empty defaults
	// to the bound listen address.
	Advertise string
	// DialTimeout bounds one connection attempt (default 2s).
	DialTimeout time.Duration
	// RetryMax bounds the reconnect backoff (default 1s).
	RetryMax time.Duration
}

// sendBufSize is the bufio buffer in front of each outgoing socket. Frames
// larger than this still work: bufio writes through when its buffer fills.
const sendBufSize = 64 << 10

// Stats counts a node's wire traffic: whole frames (one frame may be a
// proto.Batch carrying many protocol messages) and payload bytes, in both
// directions. Byte counts exclude the 4-byte length prefixes and the
// connection handshakes.
type Stats struct {
	FramesSent     uint64
	FramesReceived uint64
	BytesSent      uint64
	BytesReceived  uint64
}

// Node is a TCP transport endpoint.
type Node struct {
	cfg   Config
	ln    net.Listener
	inbox *transport.Queue

	framesSent     atomic.Uint64
	framesReceived atomic.Uint64
	bytesSent      atomic.Uint64
	bytesReceived  atomic.Uint64

	mu      sync.Mutex
	outs    map[proto.NodeID]*outgoing
	inbound map[net.Conn]struct{}
	learned map[proto.NodeID]bool // peers whose address came from a handshake
	closed  bool
	wg      sync.WaitGroup
}

var _ transport.Node = (*Node)(nil)

// outgoing is a per-destination sender: an unbounded queue of pooled frames
// drained by one goroutine that (re)dials as needed, preserving FIFO order.
// The single consumer is woken through signal.
type outgoing struct {
	mu     sync.Mutex
	queue  []*transport.Frame
	spare  []*transport.Frame // drained queue storage, recycled by popBatch
	closed bool
	signal chan struct{} // capacity 1; single consumer
}

// pop outcomes.
const (
	popFrames = iota // one or more frames were dequeued
	popIdle          // the queue is empty and the caller chose not to block
	popClosed        // the sender was closed
)

// popBatch dequeues the entire queued backlog in one swap, so a wakeup
// under streaming load drains every frame the senders accumulated (the
// caller coalesces them into a single buffered write). On an empty queue it
// blocks until a frame or close when block is set, and reports popIdle
// otherwise. The returned slice is owned by the caller until its next
// popBatch call.
func (o *outgoing) popBatch(block bool) ([]*transport.Frame, int) {
	for {
		o.mu.Lock()
		if len(o.queue) > 0 {
			batch := o.queue
			o.queue = o.spare[:0]
			o.spare = batch[:0] // recycled on the next swap
			o.mu.Unlock()
			return batch, popFrames
		}
		closed := o.closed
		o.mu.Unlock()
		if closed {
			return nil, popClosed
		}
		if !block {
			return nil, popIdle
		}
		<-o.signal
	}
}

// close stops the sender; its loop recycles whatever is still queued.
func (o *outgoing) close() {
	o.mu.Lock()
	o.closed = true
	o.mu.Unlock()
	o.wake()
}

// wake nudges the consumer (non-blocking; capacity-1 channel).
func (o *outgoing) wake() {
	select {
	case o.signal <- struct{}{}:
	default:
	}
}

// New creates a node and starts listening (if configured).
func New(cfg Config) (*Node, error) {
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 2 * time.Second
	}
	if cfg.RetryMax <= 0 {
		cfg.RetryMax = time.Second
	}
	n := &Node{
		cfg:     cfg,
		inbox:   transport.NewQueue(),
		outs:    make(map[proto.NodeID]*outgoing),
		inbound: make(map[net.Conn]struct{}),
		learned: make(map[proto.NodeID]bool),
	}
	if cfg.Listen != "" {
		ln, err := net.Listen("tcp", cfg.Listen)
		if err != nil {
			return nil, fmt.Errorf("tcpnet: listen %s: %w", cfg.Listen, err)
		}
		n.ln = ln
		n.wg.Add(1)
		go n.acceptLoop()
	}
	return n, nil
}

// Addr returns the bound listen address (nil without a listener).
func (n *Node) Addr() net.Addr {
	if n.ln == nil {
		return nil
	}
	return n.ln.Addr()
}

// ID implements transport.Node.
func (n *Node) ID() proto.NodeID { return n.cfg.ID }

// Recv implements transport.Node.
func (n *Node) Recv() <-chan transport.Message { return n.inbox.Out() }

// Stats returns a snapshot of the node's wire-traffic counters. Sent frames
// are counted when written to the socket buffer (not when queued), so after
// a quiescent period the counts reflect what actually reached the kernel.
func (n *Node) Stats() Stats {
	return Stats{
		FramesSent:     n.framesSent.Load(),
		FramesReceived: n.framesReceived.Load(),
		BytesSent:      n.bytesSent.Load(),
		BytesReceived:  n.bytesReceived.Load(),
	}
}

// SetPeer adds or updates a peer address (e.g. when a client learns its
// reply-to address dynamically). Safe to call concurrently.
func (n *Node) SetPeer(id proto.NodeID, addr string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.cfg.Peers == nil {
		n.cfg.Peers = make(map[proto.NodeID]string)
	}
	n.cfg.Peers[id] = addr
	delete(n.learned, id)
}

// Send implements transport.Node. The payload is borrowed: it is copied
// into the queue, so the caller may reuse its buffer immediately.
func (n *Node) Send(to proto.NodeID, payload []byte) error {
	if len(payload) > MaxFrame {
		return fmt.Errorf("tcpnet: frame of %d bytes exceeds limit", len(payload))
	}
	// Copy into a pooled frame: the send loop releases it once the bytes
	// are on their way to the socket.
	f := transport.GetFrame()
	f.Buf = append(f.Buf, payload...)
	return n.enqueue(to, f)
}

// SendFrame implements transport.FrameSender: ownership of the pooled frame
// transfers to the node, which releases it after writing the bytes to the
// socket buffer (or on close) — no copy on the way in.
func (n *Node) SendFrame(to proto.NodeID, f *transport.Frame) error {
	if size := len(f.Buf); size > MaxFrame {
		f.Release()
		return fmt.Errorf("tcpnet: frame of %d bytes exceeds limit", size)
	}
	return n.enqueue(to, f)
}

func (n *Node) enqueue(to proto.NodeID, f *transport.Frame) error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		f.Release()
		return transport.ErrClosed
	}
	out, ok := n.outs[to]
	if !ok {
		out = &outgoing{signal: make(chan struct{}, 1)}
		n.outs[to] = out
		n.wg.Add(1)
		go n.sendLoop(to, out)
	}
	n.mu.Unlock()

	out.mu.Lock()
	if out.closed {
		out.mu.Unlock()
		f.Release()
		return transport.ErrClosed
	}
	out.queue = append(out.queue, f) //oar:frame-handoff released by sendLoop after the socket write, or by the drain in closeLocked
	out.mu.Unlock()
	out.wake()
	return nil
}

// Close shuts the node down: listener, inbox and all senders.
func (n *Node) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	outs := make([]*outgoing, 0, len(n.outs))
	for _, o := range n.outs {
		outs = append(outs, o)
	}
	conns := make([]net.Conn, 0, len(n.inbound))
	for c := range n.inbound {
		conns = append(conns, c)
	}
	n.mu.Unlock()

	if n.ln != nil {
		_ = n.ln.Close()
	}
	for _, c := range conns {
		_ = c.Close() // unblocks readLoops
	}
	for _, o := range outs {
		o.close()
	}
	n.wg.Wait()
	n.inbox.Close()
	return nil
}

func (n *Node) acceptLoop() {
	defer n.wg.Done()
	for {
		conn, err := n.ln.Accept()
		if err != nil {
			return // listener closed
		}
		n.mu.Lock()
		if n.closed {
			n.mu.Unlock()
			conn.Close()
			return
		}
		n.inbound[conn] = struct{}{}
		n.mu.Unlock()
		n.wg.Add(1)
		go n.readLoop(conn)
	}
}

// readLoop consumes one inbound connection: handshake, then frames.
func (n *Node) readLoop(conn net.Conn) {
	defer n.wg.Done()
	defer func() {
		conn.Close()
		n.mu.Lock()
		delete(n.inbound, conn)
		n.mu.Unlock()
	}()
	var idBuf [8]byte
	if _, err := io.ReadFull(conn, idBuf[:]); err != nil {
		return
	}
	from := proto.NodeID(int32(binary.BigEndian.Uint64(idBuf[:]))) //nolint:gosec // truncation is the inverse of the handshake encoding
	var addrLen [2]byte
	if _, err := io.ReadFull(conn, addrLen[:]); err != nil {
		return
	}
	if size := binary.BigEndian.Uint16(addrLen[:]); size > 0 {
		addr := make([]byte, size)
		if _, err := io.ReadFull(conn, addr); err != nil {
			return
		}
		// Learn the peer's dial-back address unless statically configured.
		// A learned peer that handshakes from another address is a new
		// process under the same ID (a restarted client): re-learn it, and
		// retire the sender bound to the old address so that the next frame
		// dials the new one.
		n.mu.Lock()
		if n.cfg.Peers == nil {
			n.cfg.Peers = make(map[proto.NodeID]string)
		}
		var stale *outgoing
		if old, ok := n.cfg.Peers[from]; !ok || (n.learned[from] && old != string(addr)) {
			n.cfg.Peers[from] = string(addr)
			n.learned[from] = true
			if ok {
				stale = n.outs[from]
				delete(n.outs, from)
			}
		}
		n.mu.Unlock()
		if stale != nil {
			stale.close()
		}
	}

	var lenBuf [4]byte
	for {
		if _, err := io.ReadFull(conn, lenBuf[:]); err != nil {
			return
		}
		size := binary.BigEndian.Uint32(lenBuf[:])
		if size > MaxFrame {
			return // corrupt stream; drop the connection
		}
		// Read into a pooled frame; the receiving event loop's Release
		// recycles it once the message is handled.
		f := transport.GetFrame()
		if cap(f.Buf) < int(size) {
			f.Buf = make([]byte, size)
		} else {
			f.Buf = f.Buf[:size]
		}
		if _, err := io.ReadFull(conn, f.Buf); err != nil {
			f.Release()
			return
		}
		n.framesReceived.Add(1)
		n.bytesReceived.Add(uint64(size))
		n.inbox.Push(transport.OwnedMessage(from, f.Buf, f))
	}
}

// sendLoop drains one destination queue over a (re)dialed connection. Each
// wakeup takes the entire queued backlog in one swap, length-prefixes every
// frame into a reusable scratch buffer, releases the pooled frames, and
// hands the whole burst to the bufio.Writer as a single write; the writer is
// flushed only when the queue runs dry. A burst of messages therefore costs
// one buffered write and one syscall instead of one per frame. Frames
// buffered but not yet flushed when the connection breaks are lost exactly
// like frames in flight on the wire — the loss mode the protocols above
// already tolerate.
func (n *Node) sendLoop(to proto.NodeID, out *outgoing) {
	defer n.wg.Done()
	var conn net.Conn
	var bw *bufio.Writer
	defer func() {
		if conn != nil {
			if bw != nil {
				_ = bw.Flush()
			}
			conn.Close()
		}
		// Recycle whatever was still queued at close.
		out.mu.Lock()
		leftover := out.queue
		out.queue = nil
		out.mu.Unlock()
		for _, f := range leftover {
			f.Release()
		}
	}()
	backoff := 10 * time.Millisecond
	buffered := false // bytes written to bw since the last flush
	var burst []byte  // reusable length-prefixed assembly buffer
	var lenBuf [4]byte

	for {
		// Nothing buffered: block until work arrives. Otherwise poll, and
		// flush as soon as the queue is idle.
		batch, st := out.popBatch(!buffered)
		switch st {
		case popClosed:
			return
		case popIdle:
			// Queue idle: push the buffered burst to the kernel.
			if bw != nil {
				if err := bw.Flush(); err != nil {
					conn.Close()
					conn, bw = nil, nil
				}
			}
			buffered = false
			continue
		}

		// Assemble the burst: [len][frame][len][frame]... then recycle the
		// pooled frames — their bytes now live in the scratch buffer.
		burst = burst[:0]
		frames := 0
		bytes := 0
		for _, f := range batch {
			binary.BigEndian.PutUint32(lenBuf[:], uint32(len(f.Buf))) //nolint:gosec // length checked in Send
			burst = append(burst, lenBuf[:]...)
			burst = append(burst, f.Buf...)
			frames++
			bytes += len(f.Buf)
			f.Release()
		}

		for {
			if out.isClosed() {
				return
			}
			if conn == nil {
				c, err := n.dial(to)
				if err != nil {
					time.Sleep(backoff)
					backoff = min(backoff*2, n.cfg.RetryMax)
					continue
				}
				conn = c
				bw = bufio.NewWriterSize(conn, sendBufSize)
				backoff = 10 * time.Millisecond
			}
			if err := writeAll(bw, burst); err != nil {
				conn.Close()
				conn, bw = nil, nil
				continue // the burst is retried on a fresh connection
			}
			n.framesSent.Add(uint64(frames))
			n.bytesSent.Add(uint64(bytes))
			buffered = true
			break
		}
		if cap(burst) > sendBufMaxIdle {
			burst = nil
		}
	}
}

// sendBufMaxIdle caps the capacity the burst-assembly scratch may retain
// between wakeups.
const sendBufMaxIdle = 256 << 10

func (o *outgoing) isClosed() bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.closed
}

func (n *Node) dial(to proto.NodeID) (net.Conn, error) {
	n.mu.Lock()
	addr, ok := n.cfg.Peers[to]
	n.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("tcpnet: no address for %v: %w", to, errUnknownPeer)
	}
	conn, err := net.DialTimeout("tcp", addr, n.cfg.DialTimeout)
	if err != nil {
		return nil, err
	}
	var idBuf [8]byte
	binary.BigEndian.PutUint64(idBuf[:], uint64(int64(n.cfg.ID)))
	if err := writeAll(conn, idBuf[:]); err != nil {
		conn.Close()
		return nil, err
	}
	advertise := n.cfg.Advertise
	if advertise == "" && n.ln != nil {
		advertise = n.ln.Addr().String()
	}
	if len(advertise) > 0xFFFF {
		advertise = ""
	}
	var addrLen [2]byte
	binary.BigEndian.PutUint16(addrLen[:], uint16(len(advertise)))
	if err := writeAll(conn, addrLen[:]); err != nil {
		conn.Close()
		return nil, err
	}
	if advertise != "" {
		if err := writeAll(conn, []byte(advertise)); err != nil {
			conn.Close()
			return nil, err
		}
	}
	return conn, nil
}

var errUnknownPeer = errors.New("unknown peer")

func writeAll(w io.Writer, b []byte) error {
	for len(b) > 0 {
		m, err := w.Write(b)
		if err != nil {
			return err
		}
		b = b[m:]
	}
	return nil
}
