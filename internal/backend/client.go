package backend

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/proto"
	"repro/internal/transport"
)

// WriteRule is a protocol's write-adoption rule — with SubmitFunc, its half
// of the client. The client offers it every reply to an outstanding write,
// under the client lock; seen is that write's accumulator, for rules that
// need more than one reply. It returns the reply to adopt once the rule is
// satisfied. reply aliases the inbound frame: whatever is retained or
// returned must be a Clone.
type WriteRule func(seen *Replies, reply proto.Reply) (adopted proto.Reply, ok bool)

// SubmitFunc sends one write to the group (OAR: a reliable multicast; the
// baselines: a copy to every replica). The client calls it under its lock,
// after tracing Issue; cmd is the caller's and must not be retained.
type SubmitFunc func(id proto.RequestID, cmd []byte)

// SendFunc is the client's unicast: through the coalescing sender loop, or
// straight to the transport when unbatched. It keeps the payload it is given.
type SendFunc func(to proto.NodeID, payload []byte)

// StaleReadFloorBug re-introduces the read-floor bug the read fast path
// shipped without: when enabled, a fast-path read judges candidate replies
// against the high-water position captured when the read was ISSUED instead
// of the client's live high-water at each reply. A write adopted between
// issue and reply then no longer raises the read's floor, so a replica
// answering from a prefix that predates the write can gather an adopting
// majority — a read-monotonicity / read-your-writes violation the trace
// checker flags.
//
// This is a fault-injection hook for the nemesis harness (it proves the
// search actually finds planted bugs, end to end through search and
// shrinking); it must never be enabled outside tests. It is process-global
// and racy-by-design cheap: an atomic load on the read-reply path.
var StaleReadFloorBug atomic.Bool

// Client is the client of every protocol: it numbers requests, coalesces the
// sends of concurrent Invokes, decodes replies, and runs the read fast path.
// What differs between protocols — how a write is submitted and which reply
// to it is adopted — is plugged in.
//
// A Client is safe for concurrent use: multiple goroutines may Invoke at
// once (each request is tracked independently).
type Client struct {
	cfg    InvokerConfig
	n      int
	adopt  WriteRule
	submit SubmitFunc

	mu      sync.Mutex
	nextSeq uint64
	pending map[proto.RequestID]*call
	// highWater is the largest delivery position this client has adopted a
	// reply at — write or read. Fast-path read replies from shorter prefixes
	// are discarded (not counted toward adoption), which makes reads monotonic
	// and read-your-writes: a read issued after an adopted operation can only
	// adopt state that includes it.
	highWater uint64

	reissues atomic.Uint64

	// Invokes enqueue their outbound frames here and the sender loop
	// coalesces whatever has accumulated per server into one proto.Batch
	// frame per round (nil when cfg.Unbatched).
	sendCh chan sendJob

	done       chan struct{} // reply loop exited
	senderDone chan struct{} // sender loop exited
	stop       context.CancelFunc
	stopOnce   sync.Once
	stopped    chan struct{} // closed by Stop; unblocks enqueues
}

// sendJob is one frame bound for one server.
type sendJob struct {
	to      proto.NodeID
	payload []byte
}

// call is one outstanding request.
type call struct {
	result chan proto.Reply // buffered(1); receives the adopted reply
	seen   Replies          // a write's replies so far, for the WriteRule

	// Read fast path only: rq runs the majority-validated adoption rule and
	// tracks which replicas answered at all, so the invoker can give up and
	// re-issue on the ordered path as soon as the whole group has answered
	// without an adoptable majority.
	rq     *ReadQuorum
	giveUp chan struct{} // closed once every replica answered without adoption
	gaveUp bool
	// issueFloor is the client high-water at read-issue time. Only consulted
	// when StaleReadFloorBug is enabled (fault injection): the correct floor
	// is the live highWater, re-read at every reply.
	issueFloor uint64
}

// NewClient validates cfg and creates a started client: adopt is the
// protocol's write-adoption rule, and newSubmit builds its submit function
// around the client's send. Release it with Stop.
func NewClient(cfg InvokerConfig, adopt WriteRule, newSubmit func(send SendFunc) SubmitFunc) (*Client, error) {
	if cfg.Node == nil || len(cfg.Group) == 0 {
		return nil, fmt.Errorf("backend: client Node and Group are required")
	}
	if !cfg.ID.IsClient() {
		return nil, fmt.Errorf("backend: %v is not a client ID", cfg.ID)
	}
	if cfg.Tracer == nil {
		cfg.Tracer = NopTracer()
	}
	ctx, cancel := context.WithCancel(context.Background())
	c := &Client{
		cfg:        cfg,
		n:          len(cfg.Group),
		adopt:      adopt,
		nextSeq:    cfg.FirstSeq,
		pending:    make(map[proto.RequestID]*call),
		done:       make(chan struct{}),
		senderDone: make(chan struct{}),
		stop:       cancel,
		stopped:    make(chan struct{}),
	}
	if cfg.Unbatched {
		close(c.senderDone)
	} else {
		// Sized so a burst of concurrent Invokes (n frames each) rarely
		// blocks on the sender loop.
		c.sendCh = make(chan sendJob, 256)
		go c.sendLoop(ctx)
	}
	c.submit = newSubmit(c.send)
	go c.loop(ctx)
	return c, nil
}

// send ships one outbound frame: to the sender loop, or straight to the
// transport when unbatched. After Stop the frame is dropped — outstanding
// Invokes are failing with their contexts anyway.
func (c *Client) send(to proto.NodeID, payload []byte) {
	if c.sendCh == nil {
		_ = c.cfg.Node.Send(to, payload)
		return
	}
	select {
	case c.sendCh <- sendJob{to: to, payload: payload}:
	case <-c.stopped:
	}
}

// sendLoop drains queued frames and flushes them per destination, coalescing
// the sends of concurrent Invokes into one frame per server per round.
// Concurrent Invokes serialize on the client mutex, so the goroutine that
// will enqueue the next frames is often runnable-but-not-yet-run when the
// queue looks empty; the linger lets it join the round, and an idle client
// pays only the yields.
func (c *Client) sendLoop(ctx context.Context) {
	defer close(c.senderDone)
	out := transport.NewBatcher(c.cfg.Node, c.cfg.GroupID)
	for {
		select {
		case <-ctx.Done():
			return
		case job := <-c.sendCh:
			out.Add(job.to, job.payload)
			transport.DrainLinger(c.sendCh, flushSpins, maxDrain-1, func(j sendJob) {
				out.Add(j.to, j.payload)
			})
			out.Flush()
		}
	}
}

// Stop terminates the reply and sender loops and waits for them to exit.
// Outstanding Invokes fail with their context (or hang until it ends), so
// cancel those first.
func (c *Client) Stop() {
	c.stop()
	c.stopOnce.Do(func() { close(c.stopped) })
	<-c.done
	<-c.senderDone
}

// ReadReissues counts the fast-path reads this client gave up on and
// re-issued through Invoke, as an ordered request under a fresh id: every
// replica had answered without an adoptable majority, or the fallback timer
// fired. Each costs one full ordering round that no replica counter sees.
func (c *Client) ReadReissues() uint64 { return c.reissues.Load() }

func (c *Client) loop(ctx context.Context) {
	defer close(c.done)
	var replies []proto.Reply // reused across frames
	for {
		select {
		case <-ctx.Done():
			return
		case m, ok := <-c.cfg.Node.Recv():
			if !ok {
				return
			}
			// Servers coalesce the replies of one delivery round into a
			// proto.Batch frame; expand it (a non-batch message passes
			// through unchanged), decode the inner replies, and process the
			// whole frame under one lock. The decoded results alias the
			// frame; whatever is retained is cloned, so the frame's pooled
			// buffer is recycled as soon as dispatch returns.
			msgs, _ := transport.ExpandBatch(m)
			replies = replies[:0]
			for _, inner := range msgs {
				kind, group, body, err := proto.Unmarshal(inner.Payload)
				if err != nil || kind != proto.KindReply || group != c.cfg.GroupID {
					continue
				}
				reply, err := proto.UnmarshalReply(body)
				if err != nil {
					continue
				}
				replies = append(replies, reply)
			}
			if len(replies) > 0 {
				c.mu.Lock()
				for _, reply := range replies {
					c.onReplyLocked(reply)
				}
				c.mu.Unlock()
			}
			m.Release()
		}
	}
}

// onReplyLocked routes one reply to its outstanding call; replies for
// unknown or already-adopted requests cost nothing. Caller holds c.mu.
func (c *Client) onReplyLocked(reply proto.Reply) {
	call, ok := c.pending[reply.Req]
	if !ok {
		return
	}
	if call.rq != nil {
		c.onReadReplyLocked(call, reply)
		return
	}
	if best, ok := c.adopt(&call.seen, reply); ok {
		c.adoptLocked(call, best)
		c.cfg.Tracer.Adopt(c.cfg.ID, best.Req, best)
	}
}

// adoptLocked hands the adopted (owned) reply to the invoking goroutine and
// retires the call.
func (c *Client) adoptLocked(call *call, best proto.Reply) {
	call.result <- best
	delete(c.pending, best.Req)
	if best.Pos > c.highWater {
		c.highWater = best.Pos
	}
}

// onReadReplyLocked feeds a read call's reply through the majority-validated
// adoption rule (ReadQuorum). Replies below the client's high-water mark are
// discarded before they enter the accumulator (they would break monotonic
// reads) but still count toward the answered weight, so a read that can
// never be adopted — e.g. every replica behind the client's last write —
// gives up instead of hanging. Caller holds c.mu.
func (c *Client) onReadReplyLocked(rc *call, reply proto.Reply) {
	floor := c.highWater
	if StaleReadFloorBug.Load() {
		floor = rc.issueFloor // injected bug: floor frozen at issue time
	}
	if reply.Pos < floor {
		rc.rq.Answer(reply) // stale prefix: predates this client's last adopted operation
	} else if best, ok := rc.rq.Offer(reply.Clone(), floor); ok {
		c.adoptLocked(rc, best)
		c.cfg.Tracer.ReadAdopt(c.cfg.ID, best.Req, best)
		return
	}
	if !rc.gaveUp && rc.rq.AllAnswered() {
		rc.gaveUp = true
		close(rc.giveUp)
	}
}

// register numbers a new request and makes its call pending. Caller holds
// c.mu.
func (c *Client) register(call *call) proto.RequestID {
	id := proto.RequestID{Group: c.cfg.GroupID, Client: c.cfg.ID, Seq: c.nextSeq}
	c.nextSeq++
	c.pending[id] = call
	return id
}

// retire abandons an outstanding call.
func (c *Client) retire(id proto.RequestID) {
	c.mu.Lock()
	delete(c.pending, id)
	c.mu.Unlock()
}

// Invoke submits cmd through the protocol's submit function and blocks until
// its adoption rule accepts a reply or ctx ends. The returned Reply carries
// the application result, the delivery position and the endorsing weight.
func (c *Client) Invoke(ctx context.Context, cmd []byte) (proto.Reply, error) {
	call := &call{result: make(chan proto.Reply, 1)}
	c.mu.Lock()
	id := c.register(call)
	c.cfg.Tracer.Issue(c.cfg.ID, id, cmd)
	c.submit(id, cmd)
	c.mu.Unlock()

	select {
	case reply := <-call.result:
		return reply, nil
	case <-ctx.Done():
		c.retire(id)
		return proto.Reply{}, fmt.Errorf("backend: invoke %v: %w", id, ctx.Err())
	}
}

// readFallbackTimeout bounds how long a fast-path read waits for an
// adoptable majority before re-issuing on the ordered path. It only fires
// when replies were lost or replicas hang — the all-answered-without-adoption
// case gives up immediately — so it is deliberately generous next to normal
// round-trip latency.
const readFallbackTimeout = 64 * DefaultTickInterval

// InvokeRead performs a read-only request on the fast path: the command goes
// directly to every replica of the group — no ordering, no position in the
// definitive order — and each replica whose machine's Query accepts the
// command answers inline from its current prefix. The reply is adopted under the
// majority-validated rule of ReadQuorum (whatever the protocol's write rule:
// a single replica's unordered snapshot carries no ordering evidence at
// all), which also keeps this client's reads monotonic and read-your-writes.
//
// A read that cannot be adopted — no compatible majority forms — is
// re-issued on the ordered path via a fresh Invoke (safe: the fast-path
// attempt had no effect on any replica). Replica-side fallbacks (no Reader,
// not a well-formed read) resolve transparently: all replicas then reply
// from the request's single delivery position, which satisfies the read rule
// at that position.
func (c *Client) InvokeRead(ctx context.Context, cmd []byte) (proto.Reply, error) {
	rc := &call{
		result: make(chan proto.Reply, 1),
		rq:     NewReadQuorum(c.n),
		giveUp: make(chan struct{}),
	}
	c.mu.Lock()
	rc.issueFloor = c.highWater
	id := c.register(rc)
	c.mu.Unlock()

	// One owned frame shared across every destination: sent payloads are
	// immutable, and the batching sender copies on Add anyway.
	frame := proto.MarshalRead(proto.Request{ID: id, Cmd: cmd, ReadOnly: true})
	for _, srv := range c.cfg.Group {
		c.send(srv, frame)
	}

	timer := time.NewTimer(readFallbackTimeout)
	defer timer.Stop()
	select {
	case reply := <-rc.result:
		return reply, nil
	case <-ctx.Done():
		c.retire(id)
		return proto.Reply{}, fmt.Errorf("backend: read %v: %w", id, ctx.Err())
	case <-rc.giveUp:
	case <-timer.C:
	}

	// Re-issue on the ordered path. Retire the fast-path attempt first; once
	// it leaves pending no late adoption can race the re-issue, and an
	// adoption that slipped in before the lock sits in the buffered result
	// channel.
	c.retire(id)
	select {
	case reply := <-rc.result:
		return reply, nil
	default:
	}
	c.reissues.Add(1)
	return c.Invoke(ctx, cmd)
}
