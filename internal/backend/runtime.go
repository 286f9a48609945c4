package backend

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/proto"
	"repro/internal/transport"
	"repro/internal/wal"
)

// Protocol is what an ordering protocol supplies to a Runtime: its ordering
// rule — how it handles its own message kinds, what it does when a round or
// a tick ends — and the decisions of crash recovery that depend on that rule.
// Everything else a replica does is the Runtime's. All methods run on the
// replica's event loop, in mutual exclusion.
type Protocol interface {
	// Handle processes one inbound message of a kind the runtime does not
	// own (ordering, multicast and consensus traffic). body aliases a pooled
	// frame that is recycled when Handle returns: clone what is retained.
	Handle(from proto.NodeID, kind proto.Kind, body []byte)
	// EndRound runs once per event-loop round, after the inbox backlog has
	// been drained and before the round's sends are flushed: the place for
	// ordering that should cover the whole round (OAR's Task 1a).
	EndRound()
	// Tick drives the periodic duties: suspicion, fail-over, consensus
	// timeouts. The runtime has already sent heartbeats, and does not tick a
	// recovering replica.
	Tick(now time.Time)
	// Submit buffers a request for ordering. The runtime calls it for a read
	// the fast path could not answer; req.Cmd aliases the inbound frame.
	Submit(req proto.Request)
	// CanServe reports whether this replica may answer a catch-up probe with
	// state right now: its definitive prefix must be a boundary every later
	// ordering message extends, as seen by a prober that starts listening
	// only now.
	CanServe() bool
	// Accept reports whether a well-formed catch-up answer from a peer that
	// reports itself in the given epoch may be adopted.
	Accept(from proto.NodeID, epoch uint64) bool
	// Resume re-enters ordering after the runtime adopted a peer's state:
	// Epoch, Pos and Delivered are the adopted boundary, and deferred holds
	// the frames set aside while recovering, in arrival order (owned copies).
	Resume(deferred []Deferred)
}

// Spec is the static part of a protocol's contract with the Runtime.
type Spec struct {
	// Journal makes the runtime log definitive deliveries and boundaries to
	// the write-ahead log when ReplicaConfig.WALDir is set, and replay it at
	// boot. Protocols without it ignore WALDir and recover from peers alone.
	Journal bool
	// SnapshotDeliveries, when positive, compacts the catch-up tail into a
	// snapshot every that many definitive deliveries — for protocols whose
	// boundaries are too frequent to count (one per ordering message) —
	// instead of every ReplicaConfig.SnapshotEvery boundaries.
	SnapshotDeliveries uint64
	// Defer lists the message kinds a recovering replica sets aside for
	// Resume; the protocol's other kinds are dropped until it has caught up.
	Defer []proto.Kind
	// FlatReads tags every fast-path read reply with epoch 0: the protocol's
	// positions mean the same prefix in every epoch, so grouping a read
	// quorum by epoch would only split it.
	FlatReads bool
}

// Deferred is one protocol frame a recovering replica set aside.
type Deferred struct {
	From proto.NodeID
	Kind proto.Kind
	Body []byte // owned copy
}

// DefaultSnapshotEvery is the snapshot cadence (in boundaries) when
// ReplicaConfig.SnapshotEvery is zero.
const DefaultSnapshotEvery = 8

const (
	// maxDrain bounds how many backlogged messages one event-loop round
	// absorbs before its flush, so a flooded loop still orders, flushes and
	// heartbeats regularly.
	maxDrain = 1024
	// flushSpins is how many consecutive empty-queue scheduler yields a
	// batching loop tolerates before closing its round (transport.DrainLinger).
	flushSpins = 2
)

// Counters are a replica's monotonically increasing event counts, readable
// concurrently through Stats. The exported ones belong to the protocol.
type Counters struct {
	OptDelivered   atomic.Uint64 // optimistic deliveries (Fig. 6 line 17)
	OptUndelivered atomic.Uint64 // undone deliveries (Fig. 6 line 26)
	ADelivered     atomic.Uint64 // irrevocable deliveries (Fig. 6 line 28; every baseline delivery)
	Epochs         atomic.Uint64 // completed phase-2 rounds
	Views          atomic.Uint64 // fixedseq fail-overs
	Batches        atomic.Uint64 // ctab consensus instances
	// ForeignDropped counts messages dropped for a foreign GroupID: the
	// runtime's envelope check, plus what a protocol drops from payloads
	// nested inside its own messages.
	ForeignDropped atomic.Uint64

	seqOrders     atomic.Uint64
	reads         atomic.Uint64
	readFallbacks atomic.Uint64
	recoveries    atomic.Uint64
	catchupServed atomic.Uint64
	refusedReads  atomic.Uint64
}

// Position is where a replica stood at the end of its last event-loop round.
type Position struct {
	// Epoch and Pos are the protocol's live epoch and delivery position.
	Epoch, Pos uint64
	// Definitive is the length of the prefix that can no longer be revoked;
	// Pos beyond it is optimistic.
	Definitive uint64
}

// Runtime is the replica every protocol runs on: it owns the event loop, the
// send batcher, the read fast path, the durability and crash-recovery state
// machine and the counters. A protocol embeds it, calls Init from its
// constructor and thereby is a Replica; what remains the protocol's is the
// Protocol interface.
//
// Epoch, Pos and Delivered are the replica's live protocol position, kept
// here because reads, catch-up and snapshots need them: the protocol advances
// them as it delivers (on the event loop), the runtime sets them when it
// replays or adopts state.
type Runtime struct {
	// Cfg is the validated configuration, defaults applied (Cfg.Tracer is
	// never nil).
	Cfg ReplicaConfig

	// Epoch is the protocol's current epoch (OAR's k, fixedseq's view, ctab's
	// consensus instance) and Pos its delivery position, optimistic deliveries
	// included.
	Epoch, Pos uint64
	// Delivered is the at-most-once filter: every definitively delivered
	// request. Adoption replaces the map, so protocols must not cache it.
	Delivered map[proto.RequestID]struct{}
	// Count holds the counters behind Stats.
	Count Counters

	p    Protocol
	spec Spec

	// Every send of one round is appended to a per-destination envelope and
	// flushed as one frame at the end of the round; the buffers and frames
	// are reused, so the steady-state send path allocates nothing.
	out           *transport.Batcher
	encBuf        []byte // reusable encode scratch for replies and orders
	hbFrame       []byte // heartbeat payload, constant per group
	lastHeartbeat time.Time

	// Durability and recovery (recovery.go).
	log         *wal.Log
	ds          DurableState
	walBuf      []byte
	snapEvery   int
	sinceSnap   int
	recovering  bool
	catchupTick int
	deferred    []Deferred

	pubEpoch, pubPos, pubDefinitive atomic.Uint64
}

// Init validates cfg, applies the defaults, replays local durable state and
// decides whether the replica boots into recovery. p's hooks are not called
// before Run.
func (rt *Runtime) Init(cfg ReplicaConfig, p Protocol, spec Spec) error {
	if len(cfg.Group) == 0 || len(cfg.Group) > proto.MaxGroupSize {
		return fmt.Errorf("backend: group size %d out of range [1,%d]", len(cfg.Group), proto.MaxGroupSize)
	}
	member := false
	for _, id := range cfg.Group {
		member = member || id == cfg.ID
	}
	if !member {
		return fmt.Errorf("backend: replica %v not in its own group", cfg.ID)
	}
	if cfg.Node == nil || cfg.Machine == nil || cfg.Detector == nil {
		return fmt.Errorf("backend: Node, Machine and Detector are required")
	}
	if cfg.TickInterval <= 0 {
		cfg.TickInterval = DefaultTickInterval
	}
	if cfg.HeartbeatInterval == 0 {
		cfg.HeartbeatInterval = DefaultHeartbeatInterval
	}
	if cfg.Tracer == nil {
		cfg.Tracer = NopTracer()
	}
	*rt = Runtime{
		Cfg:       cfg,
		Delivered: make(map[proto.RequestID]struct{}),
		p:         p,
		spec:      spec,
		out:       transport.NewBatcher(cfg.Node, cfg.GroupID),
		encBuf:    make([]byte, 0, 256),
		hbFrame:   proto.MarshalHeartbeat(cfg.GroupID),
	}
	if err := rt.initDurability(); err != nil {
		return err
	}
	rt.publish()
	return nil
}

// Run executes the replica event loop until ctx is cancelled or the
// transport closes (crash injection).
//
// Each round handles one inbound message, then opportunistically drains the
// backlog that has already arrived before the protocol's EndRound and the
// flush. Under load this is what forms batches — one ordering message and
// one frame per destination cover the whole round — with zero added latency
// when the inbox is empty.
func (rt *Runtime) Run(ctx context.Context) error {
	ticker := time.NewTicker(rt.Cfg.TickInterval)
	defer ticker.Stop()
	// Ship what a round cut short by the exit had already buffered.
	defer rt.out.Flush()
	inbox := rt.Cfg.Node.Recv()
	spins := 0 // the unbatched control handles one message per round
	if rt.Batching() {
		spins = flushSpins
	}
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case m, ok := <-inbox:
			if !ok {
				return nil
			}
			now := time.Now()
			// Each message's pooled frame is recycled as soon as it is
			// handled: every retention point clones what it keeps.
			rt.handleMessage(m, now)
			m.Release()
			if _, open := transport.DrainLinger(inbox, spins, maxDrain-1, func(m transport.Message) {
				rt.handleMessage(m, now)
				m.Release()
			}); !open {
				return nil
			}
			if !rt.recovering {
				rt.p.EndRound()
			}
		case now := <-ticker.C:
			rt.tick(now)
		}
		rt.out.Flush()
		rt.publish()
	}
}

// publish makes the round's final position visible to Position: three plain
// atomic stores, no allocation.
func (rt *Runtime) publish() {
	rt.pubEpoch.Store(rt.Epoch)
	rt.pubPos.Store(rt.Pos)
	rt.pubDefinitive.Store(rt.ds.Pos)
}

// Position returns where the replica stood at the end of its last round.
// Safe to call concurrently with Run; the three values are stored one by
// one, so a caller comparing replicas should see the same answer twice.
func (rt *Runtime) Position() Position {
	return Position{Epoch: rt.pubEpoch.Load(), Pos: rt.pubPos.Load(), Definitive: rt.pubDefinitive.Load()}
}

// Stats returns a snapshot of the counters. Safe to call concurrently with
// Run.
func (rt *Runtime) Stats() Stats {
	c, bs := &rt.Count, rt.out.Stats()
	s := Stats{
		OptDelivered:         c.OptDelivered.Load(),
		OptUndelivered:       c.OptUndelivered.Load(),
		ADelivered:           c.ADelivered.Load(),
		Epochs:               c.Epochs.Load(),
		SeqOrdersSent:        c.seqOrders.Load(),
		ForeignDropped:       c.ForeignDropped.Load(),
		ReadsServed:          c.reads.Load(),
		ReadFallbacks:        c.readFallbacks.Load(),
		Views:                c.Views.Load(),
		Recoveries:           c.recoveries.Load(),
		CatchupServed:        c.catchupServed.Load(),
		RecoveryRefusedReads: c.refusedReads.Load(),
		Batches:              c.Batches.Load(),
		BatchFrames:          bs.Frames,
		BatchedSends:         bs.Msgs,
	}
	// The three delivery counters are independent atomics, so a snapshot can
	// land between related increments and transiently see more rollbacks
	// than deliveries: sum signed and clamp rather than wrap to near 2^64.
	if d := int64(s.OptDelivered) + int64(s.ADelivered) - int64(s.OptUndelivered); d > 0 { //nolint:gosec // counters far below 2^63
		s.Delivered = uint64(d)
	}
	return s
}

// Batching reports whether the batching layer is on (the default; off only
// for the Unbatched control).
func (rt *Runtime) Batching() bool { return !rt.Cfg.Unbatched }

// Send ships one kind-tagged payload. On the batching path it is copied into
// the destination's envelope at once, so payload may alias a scratch buffer;
// the unbatched control hands the slice to the transport, which keeps it.
func (rt *Runtime) Send(to proto.NodeID, payload []byte) {
	if !rt.Batching() {
		// Send errors mean the network or this node is gone; the event loop
		// will observe the closed inbox and stop.
		_ = rt.Cfg.Node.Send(to, payload)
		return
	}
	rt.out.Add(to, payload)
}

// SendToPeers sends payload to every other group member.
func (rt *Runtime) SendToPeers(payload []byte) {
	for _, p := range rt.Cfg.Group {
		if p != rt.Cfg.ID {
			rt.Send(p, payload)
		}
	}
}

// SendReply encodes and sends a reply — on the batching path through the
// reusable scratch buffer, so a reply costs no allocation.
func (rt *Runtime) SendReply(to proto.NodeID, reply proto.Reply) {
	if !rt.Batching() {
		_ = rt.Cfg.Node.Send(to, proto.MarshalReply(reply))
		return
	}
	rt.encBuf = proto.AppendReply(rt.encBuf[:0], reply)
	rt.out.Add(to, rt.encBuf)
}

// SendOrder ships one sequencer ordering message to every peer and counts it.
func (rt *Runtime) SendOrder(order proto.SeqOrder) {
	if rt.Batching() {
		rt.encBuf = proto.AppendSeqOrder(rt.encBuf[:0], rt.Cfg.GroupID, order)
		rt.SendToPeers(rt.encBuf)
	} else {
		rt.SendToPeers(proto.MarshalSeqOrder(rt.Cfg.GroupID, order))
	}
	rt.Count.seqOrders.Add(1)
}

// handleMessage parses one inbound envelope. Messages tagged with a foreign
// ordering group are dropped before any body decode: each group's protocol
// state only ever sees its own traffic.
func (rt *Runtime) handleMessage(m transport.Message, now time.Time) {
	kind, group, body, err := proto.Unmarshal(m.Payload)
	if err != nil {
		return // garbage on the wire; drop
	}
	if group != rt.Cfg.GroupID {
		rt.Count.ForeignDropped.Add(1)
		return
	}
	switch {
	case kind == proto.KindBatch:
		batch, err := proto.UnmarshalBatch(body)
		if err != nil {
			return // corrupt envelope; drop
		}
		// UnmarshalBatch rejects nested batches, so this recursion is flat.
		for _, inner := range batch.Msgs {
			rt.handleMessage(transport.Message{From: m.From, Payload: inner}, now)
		}
	case kind == proto.KindHeartbeat:
		rt.Cfg.Detector.Observe(m.From, now)
	case rt.recovering:
		rt.handleRecovering(m.From, kind, body)
	case kind == proto.KindRead:
		rt.handleRead(body)
	case kind == proto.KindCatchupReq:
		rt.handleCatchupReq(m.From, body)
	case kind == proto.KindCatchupResp:
		// An answer to a recovery that already completed; drop.
	default:
		rt.p.Handle(m.From, kind, body)
	}
}

// handleRead serves a read-only request without touching the ordering path:
// the machine's Query answers from the current prefix and the reply is
// tagged with (Epoch, Pos, own weight). The client adopts it only once a
// majority has answered at a compatible prefix (ReadQuorum), so nothing is
// buffered or retained here: a read costs zero ordering messages.
//
// Commands the machine's Query refuses — every command of a machine with no
// read-only subset, and writes or malformed commands mislabelled as reads —
// fall back to the ordered path: the request is submitted like a
// write, and every replica eventually replies from its one delivery
// position, which satisfies the client's read rule at that position.
func (rt *Runtime) handleRead(body []byte) {
	req, err := proto.UnmarshalRead(body)
	if err != nil {
		return
	}
	if result, ok := rt.Cfg.Machine.Query(req.Cmd); ok {
		rt.Count.reads.Add(1)
		epoch := rt.Epoch
		if rt.spec.FlatReads {
			epoch = 0
		}
		rt.SendReply(req.ID.Client, proto.Reply{
			Req:    req.ID,
			From:   rt.Cfg.ID,
			Epoch:  epoch,
			Weight: proto.WeightOf(rt.Cfg.ID),
			Pos:    rt.Pos,
			Result: result,
		})
		return
	}
	rt.Count.readFallbacks.Add(1)
	rt.p.Submit(req)
}

// tick sends heartbeats, then probes (recovering) or ticks the protocol.
func (rt *Runtime) tick(now time.Time) {
	if rt.Cfg.HeartbeatInterval > 0 && now.Sub(rt.lastHeartbeat) >= rt.Cfg.HeartbeatInterval {
		rt.lastHeartbeat = now
		// One immutable frame, encoded at start-up, shared with the
		// transport across ticks and peers.
		rt.SendToPeers(rt.hbFrame)
	}
	if rt.recovering {
		rt.probeCatchup()
		return
	}
	rt.p.Tick(now)
}
