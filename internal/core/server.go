// Package core implements the Optimistic Active Replication (OAR) protocol
// of Felber & Schiper (ICDCS 2001): the client-side weight-quorum algorithm
// of Figure 5 and the server-side epoch algorithm of Figure 6 (Tasks 0,
// 1a, 1b, 1c and 2), with conservative ordering per Figure 7 via
// Maj-validity consensus. Everything a replica or a client does that is not
// the protocol — event loop, batching, reads, durability, recovery — is
// internal/backend's.
//
// Execution model: each server is one goroutine owning all protocol state —
// the paper's "tasks execute in any order, but in mutual exclusion" — fed by
// a transport inbox and a timer tick. During phase 2, Task 0 (buffering),
// heartbeats and consensus stay live while Tasks 1a/1b are suppressed for
// the epoch, exactly as the "wait until decide" in Figure 6 implies.
package core

import (
	"fmt"
	"time"

	"repro/internal/backend"
	"repro/internal/cnsvorder"
	"repro/internal/consensus"
	"repro/internal/proto"
	"repro/internal/rmcast"
)

// maxBatch caps the requests per SeqOrder. A round rarely gathers that many;
// the cap bounds the frame when a long phase 2 leaves a large backlog to
// order at once.
const maxBatch = 512

// Server is one OAR replica: Figure 6's tasks and Figure 7's Cnsv-order on
// the shared replica runtime, which supplies the event loop, sends, the read
// fast path, durability and crash recovery. Epoch (k), Pos (next delivery
// position - 1, the reply value of App. A) and Delivered (A_delivered, as a
// set) live in the embedded Runtime. Create with NewServer, drive with Run.
type Server struct {
	backend.Runtime
	n  int
	rm *rmcast.RMcast

	// Figure 6 state, as one epoch table: live is R_delivered ⊖ A_delivered
	// in arrival order, with payloads, and at indexes it. The slots that are
	// not done are O_notdelivered; the sequencer orders in arrival order and
	// nothing else delivers there, so at the sequencer they are exactly
	// live[ordered:]. Closing the epoch keeps only those slots, so the
	// per-request footprint is bounded by the in-flight window, not the run
	// length.
	live       []slot
	at         map[proto.RequestID]int
	ordered    int      // the sequencer's cursor into live
	oDelivered []int    // O_delivered (current epoch), as slots of live
	undoStack  []func() // undo closures, aligned with oDelivered
	inPhase2   bool
	phase2Sent bool // this epoch's PhaseII was R-broadcast (Task 1c guard)

	// Epoch/consensus bookkeeping.
	pendingPhase2 map[uint64]struct{}         // PhaseII(k') for future epochs
	seqOrderBuf   map[uint64][]proto.SeqOrder // ordering messages for future epochs
	cons          map[uint64]*consensus.Instance
	decisions     map[uint64]consensus.Decision // decided, possibly before we start the epoch's phase 2
	ownInput      cnsvorder.Input               // our proposal for the current epoch's phase 2

	// orderScratch is the reusable decode target for inbound SeqOrder
	// bodies: the steady-state decode allocates nothing, and the decoded
	// request commands alias the inbound frame (anything retained past the
	// frame is cloned — see bufferRequest and handleSeqOrder). reqScratch is
	// the reusable request slice the sequencer materializes each outgoing
	// ordering batch into.
	orderScratch proto.SeqOrder
	reqScratch   []proto.Request

	// Observe mode: the join epoch after a crash recovery. Orderings sent
	// before the restart are lost, so Opt-delivering a later one would assign
	// wrong positions and claim the sequencer's endorsement weight for them —
	// a single such {p,s} reply would look like a majority to a client of a
	// 3-replica group. The replica therefore takes part in phase 2 (its
	// O_delivered proposal is empty) but neither orders nor Opt-delivers
	// until the epoch closes; the closing decision carries the epoch's full
	// payloads, so it A-delivers the whole epoch then and leaves observe mode
	// in lockstep with its peers.
	observing    bool
	observeEpoch uint64
}

var _ backend.Protocol = (*Server)(nil)

// slot is one request of the epoch table.
type slot struct {
	req  proto.Request
	done bool // Opt-delivered this epoch, or A-delivered at its close
}

// NewServer validates cfg and creates a replica.
func NewServer(cfg backend.ReplicaConfig) (*Server, error) {
	s := &Server{
		n:             len(cfg.Group),
		at:            make(map[proto.RequestID]int),
		pendingPhase2: make(map[uint64]struct{}),
		seqOrderBuf:   make(map[uint64][]proto.SeqOrder),
		cons:          make(map[uint64]*consensus.Instance),
		decisions:     make(map[uint64]consensus.Decision),
	}
	// OAR journals: optimistic deliveries are revocable, so what reaches the
	// WAL is the conservative order, one batch per closed epoch. A recovering
	// replica defers everything Figure 6 reacts to.
	err := s.Init(cfg, s, backend.Spec{
		Journal: true,
		Defer: []proto.Kind{proto.KindRMcast, proto.KindSeqOrder,
			proto.KindEstimate, proto.KindPropose, proto.KindAck, proto.KindDecide},
	})
	if err != nil {
		return nil, err
	}
	s.rm = rmcast.New(rmcast.Config{
		Self:    cfg.ID,
		Group:   cfg.Group,
		GroupID: cfg.GroupID,
		Send:    s.Send,
		// On the batching path every send is copied into the round's
		// envelope buffers immediately, so the relay hot path may encode
		// into a reusable scratch buffer.
		SendCopies: s.Batching(),
		// Each incarnation multicasts from a disjoint sequence range, so
		// peers' (origin, seq) dedup state from before a crash cannot
		// swallow the restarted replica's multicasts.
		FirstSeq: cfg.Incarnation << 32,
	})
	return s, nil
}

// sequencer returns s, the sequencer of the current epoch: the rotating
// coordinator s = k mod |Π| (Section 5.3's rotation, since k increments
// exactly once per phase 2).
func (s *Server) sequencer() proto.NodeID {
	return s.Cfg.Group[int(s.Epoch%uint64(s.n))] //nolint:gosec // n ≤ 64
}

// Handle implements backend.Protocol: Figure 6 reacts to R-multicasts (Task
// 0 and the start of Task 2), the sequencer's orderings (Task 1b) and the
// consensus traffic of phase 2.
func (s *Server) Handle(from proto.NodeID, kind proto.Kind, body []byte) {
	switch kind {
	case proto.KindRMcast:
		inner, deliver, err := s.rm.OnMessage(body)
		if err != nil || !deliver {
			return
		}
		s.handleRDelivery(inner)
	case proto.KindSeqOrder:
		// Decode into the reusable scratch order: zero allocations, with
		// the request commands aliasing the inbound frame. handleSeqOrder
		// clones anything it retains past this call.
		if err := s.orderScratch.UnmarshalBody(body); err != nil {
			return
		}
		s.handleSeqOrder(s.orderScratch)
	case proto.KindEstimate, proto.KindPropose, proto.KindAck, proto.KindDecide:
		s.handleConsensus(from, kind, body)
	default:
		// Replies and baseline traffic are not for servers; drop.
	}
}

// handleRDelivery processes an R-delivered inner payload: a client request
// (Task 0) or a PhaseII notification (start of Task 2).
func (s *Server) handleRDelivery(inner []byte) {
	kind, group, body, err := proto.Unmarshal(inner)
	if err != nil {
		return
	}
	if group != s.Cfg.GroupID {
		s.Count.ForeignDropped.Add(1)
		return // misrouted into our group's R-multicast stream
	}
	switch kind {
	case proto.KindRequest:
		req, err := proto.UnmarshalRequest(body)
		if err != nil {
			return
		}
		s.Submit(req)
	case proto.KindPhaseII:
		p2, err := proto.UnmarshalPhaseII(body)
		if err != nil {
			return
		}
		s.handlePhaseII(p2.Epoch)
	}
}

// Submit implements backend.Protocol: Task 0 for a client request, or for a
// read the fast path could not answer. Ordering is deferred to EndRound,
// which runs after the inbox backlog is drained — the low-latency path when
// the replica is idle, and the batch-forming path when it is not. With
// batching disabled, order immediately as the original code did.
func (s *Server) Submit(req proto.Request) {
	s.bufferRequest(req)
	if !s.Batching() {
		s.maybeOrder()
	}
}

// bufferRequest is Task 0: R_delivered ← R_delivered ⊕ {m}. It returns the
// request's slot in the epoch table, or -1 for a request that already reached
// A_delivered (a closed epoch dropped its slot): ignoring those preserves
// at-most-once across the garbage collection.
//
// The table retains the request past this frame's handling, so the command
// is cloned here (copy-on-retain; req.Cmd usually aliases the inbound
// frame). Duplicates — every eager-relay copy after the first — return
// before the clone, so deduplication costs no allocation.
func (s *Server) bufferRequest(req proto.Request) int {
	if _, done := s.Delivered[req.ID]; done {
		return -1
	}
	if i, known := s.at[req.ID]; known {
		return i
	}
	s.at[req.ID] = len(s.live)
	s.live = append(s.live, slot{req: req.Clone()})
	return len(s.live) - 1
}

// notDelivered is (R_delivered ⊖ A_delivered) ⊖ O_delivered (Figure 6, line
// 23) in arrival order: the table's slots that are not done.
func (s *Server) notDelivered() []proto.Request {
	var reqs []proto.Request
	for _, sl := range s.live {
		if !sl.done {
			reqs = append(reqs, sl.req)
		}
	}
	return reqs
}

// EndRound implements backend.Protocol: Task 1a for whatever the current
// event-loop round accumulated — a round is the batch.
func (s *Server) EndRound() {
	if s.ordered == len(s.live) || s.inPhase2 || s.sequencer() != s.Cfg.ID {
		return
	}
	s.maybeOrder()
}

// maybeOrder is Task 1a: if this replica is the sequencer of the current
// epoch and there are unordered messages, it orders them — in batches of at
// most maxBatch — and sends each sequence to all, then Opt-delivers it
// immediately itself ("we assume that the sequencer immediately delivers
// this message"). Delivering each batch before emitting the next keeps that
// assumption intact when a delivery triggers the epoch-limit PhaseII.
func (s *Server) maybeOrder() {
	if s.observing {
		return // no ordering in the join epoch; see handleSeqOrder
	}
	for !s.inPhase2 && s.sequencer() == s.Cfg.ID && s.ordered < len(s.live) {
		end := min(s.ordered+maxBatch, len(s.live))
		// Materialize into the reusable scratch slice (the payload bodies
		// are owned by the table); SendOrder encodes into the runtime's
		// scratch buffer — the steady-state ordering path allocates nothing.
		s.reqScratch = s.reqScratch[:0]
		for _, sl := range s.live[s.ordered:end] {
			s.reqScratch = append(s.reqScratch, sl.req)
		}
		s.ordered = end
		order := proto.SeqOrder{Epoch: s.Epoch, Reqs: s.reqScratch}
		s.SendOrder(order)
		s.optDeliverBatch(order)
	}
}

// handleSeqOrder is the receiving half of Task 1b.
func (s *Server) handleSeqOrder(order proto.SeqOrder) {
	switch {
	case order.Epoch < s.Epoch:
		return // stale epoch
	case order.Epoch > s.Epoch:
		// We lag behind; keep the payloads (Task 0 piggyback) and buffer the
		// ordering until our phase 2s catch us up. The buffered order
		// outlives the inbound frame (order may be the decode scratch), so
		// it is deep-copied here — the lagging path is off the steady state.
		for _, req := range order.Reqs {
			s.bufferRequest(req)
		}
		s.seqOrderBuf[order.Epoch] = append(s.seqOrderBuf[order.Epoch], order.Clone())
		return
	case s.inPhase2 || s.observing:
		// Not Opt-delivered: after PhaseII the messages stay in R_delivered
		// for the next sequencer or the consensus merge to re-order; in the
		// join epoch after recovery, orderings sent before our restart are
		// lost, so Opt-delivering would assign positions (and claim the
		// sequencer's reply weight) for a prefix we never saw. Keep the
		// payloads; the epoch-closing consensus delivers them definitively.
		for _, req := range order.Reqs {
			s.bufferRequest(req)
		}
		return
	}
	s.optDeliverBatch(order)
}

// optDeliverBatch is Task 1b: Opt-deliver every message of msgSet_k in
// order, send replies weighted {s} (at the sequencer) or {p, s}. Replies go
// through the round's per-destination send buffer, so a round that serves
// many requests of one client costs one frame.
func (s *Server) optDeliverBatch(order proto.SeqOrder) {
	seq := s.sequencer()
	var weight proto.Weight
	if s.Cfg.ID == seq {
		weight = proto.WeightOf(seq)
	} else {
		weight = proto.WeightOf(s.Cfg.ID, seq)
	}
	for _, req := range order.Reqs {
		// The ordering message carries full payloads, so we may learn the
		// request here before its R-multicast copy arrives (dedup in Task 0).
		i := s.bufferRequest(req)
		if i < 0 || s.live[i].done {
			continue // A-delivered in an earlier epoch, or Opt-delivered in this one
		}
		s.live[i].done = true

		result, undo := s.Cfg.Machine.Apply(req.Cmd)
		s.Pos++
		s.oDelivered = append(s.oDelivered, i)
		s.undoStack = append(s.undoStack, undo)
		s.Count.OptDelivered.Add(1)
		s.Cfg.Tracer.OptDeliver(s.Cfg.ID, s.Epoch, req.ID, s.Pos, result)
		s.SendReply(req.ID.Client, proto.Reply{
			Req:    req.ID,
			From:   s.Cfg.ID,
			Epoch:  s.Epoch,
			Weight: weight,
			Pos:    s.Pos,
			Result: result,
		})
	}

	// Garbage collection (Remark, Section 5.3): the sequencer periodically
	// forces phase 2 to truncate O_delivered.
	if s.Cfg.EpochRequestLimit > 0 && s.Cfg.ID == seq && !s.inPhase2 &&
		len(s.oDelivered) >= s.Cfg.EpochRequestLimit {
		s.broadcastPhaseII()
	}
}

// broadcastPhaseII is the sending half of Task 1c (also used by the GC
// path): R-broadcast (k, PhaseII) to all.
func (s *Server) broadcastPhaseII() {
	if s.phase2Sent {
		return
	}
	s.phase2Sent = true
	inner := proto.MarshalPhaseII(s.Cfg.GroupID, proto.PhaseII{Epoch: s.Epoch})
	if local, ok := s.rm.Multicast(inner); ok {
		s.handleRDelivery(local)
	}
}

// handlePhaseII is the start of Task 2 for epoch k.
func (s *Server) handlePhaseII(k uint64) {
	if k < s.Epoch {
		return
	}
	if k > s.Epoch {
		s.pendingPhase2[k] = struct{}{}
		return
	}
	if s.inPhase2 {
		return
	}
	s.inPhase2 = true

	// Figure 6 lines 23–24: propose (O_delivered, O_notdelivered).
	dlv := make([]proto.Request, len(s.oDelivered))
	for j, i := range s.oDelivered {
		dlv[j] = s.live[i].req
	}
	s.ownInput = cnsvorder.Input{Dlv: dlv, NotDlv: s.notDelivered()}
	inst := s.instance(k)
	inst.Start(s.ownInput.Marshal())
	// The decision may already be known (we were slow; others decided).
	if d, ok := s.decisions[k]; ok {
		s.applyDecision(k, d)
	}
}

// instance returns (creating if needed) the consensus instance for epoch k.
func (s *Server) instance(k uint64) *consensus.Instance {
	if inst, ok := s.cons[k]; ok {
		return inst
	}
	inst := consensus.NewInstance(consensus.Config{
		Self:     s.Cfg.ID,
		Group:    s.Cfg.Group,
		GroupID:  s.Cfg.GroupID,
		Instance: k,
		Send:     s.Send,
		Detector: s.Cfg.Detector,
		OnDecide: func(d consensus.Decision) { s.onDecide(k, d) },
	})
	s.cons[k] = inst
	return inst
}

func (s *Server) handleConsensus(from proto.NodeID, kind proto.Kind, body []byte) {
	k, err := consensus.InstanceOf(body)
	if err != nil || k < s.Epoch {
		return
	}
	inst := s.instance(k)
	_ = inst.OnMessage(from, kind, body) // malformed messages are dropped
}

// onDecide runs when consensus for epoch k decides. If we are inside that
// epoch's phase 2, apply immediately; otherwise remember the decision until
// we get there.
func (s *Server) onDecide(k uint64, d consensus.Decision) {
	if k == s.Epoch && s.inPhase2 {
		s.applyDecision(k, d)
		return
	}
	s.decisions[k] = d
}

// applyDecision finishes Task 2: Cnsv-order, Opt-undeliver Bad (reverse
// order), A-deliver New, advance to epoch k+1.
func (s *Server) applyDecision(k uint64, d consensus.Decision) {
	res, err := cnsvorder.Compute(s.ownInput, d)
	if err != nil {
		// A malformed decision would mean a broken consensus/sequencer
		// implementation; halting this replica is the only safe response.
		panic(fmt.Sprintf("oar server %v epoch %d: %v", s.Cfg.ID, k, err))
	}

	// Lines 25–26: Opt-undeliver Bad, last delivered first (footnote 2).
	// Undo legality guarantees Bad is a suffix of O_delivered.
	for i := len(res.Bad) - 1; i >= 0; i-- {
		top := len(s.oDelivered) - 1
		if top < 0 || s.live[s.oDelivered[top]].req.ID != res.Bad[i] {
			panic(fmt.Sprintf("oar server %v epoch %d: Bad %v is not a suffix of O_delivered %v",
				s.Cfg.ID, k, res.Bad, s.ownInput.Dlv))
		}
		s.undoStack[top]()
		s.undoStack = s.undoStack[:top]
		s.live[s.oDelivered[top]].done = false
		s.oDelivered = s.oDelivered[:top]
		s.Pos--
		s.Count.OptUndelivered.Add(1)
		s.Cfg.Tracer.OptUndeliver(s.Cfg.ID, k, res.Bad[i])
	}

	// Lines 27–29: A-deliver New, replying with the conservative weight Π.
	// (Replies share the round's per-destination batch frames.)
	full := proto.FullWeight(s.n)
	for _, req := range res.New {
		// A payload only consensus brought us has no slot and needs none.
		if i, ok := s.at[req.ID]; ok {
			s.live[i].done = true
		}
		result, _ := s.Cfg.Machine.Apply(req.Cmd)
		s.Pos++
		s.Count.ADelivered.Add(1)
		s.Cfg.Tracer.ADeliver(s.Cfg.ID, k, req.ID, s.Pos, result)
		s.SendReply(req.ID.Client, proto.Reply{
			Req:    req.ID,
			From:   s.Cfg.ID,
			Epoch:  k,
			Weight: full,
			Pos:    s.Pos,
			Result: result,
		})
	}

	// Lines 30–32: commit the epoch — the kept optimistic prefix
	// (O_delivered ⊖ Bad, Bad already removed) followed by New — to the
	// at-most-once filter, the catch-up tail and the WAL, while the payloads
	// of the kept prefix are still in the table (closing it drops them).
	for _, i := range s.oDelivered {
		s.Commit(s.live[i].req)
	}
	for _, req := range res.New {
		s.Commit(req)
	}
	s.Cfg.Tracer.EpochClose(s.Cfg.ID, k, s.ownInput, res)

	// Close the epoch table. Every done slot was just A-delivered — the kept
	// prefix or New — and is never needed again: re-arrivals are rejected by
	// the Delivered guard in bufferRequest. The survivors, the undone and the
	// unordered requests, are compacted in place in arrival order and start
	// the next epoch unordered; the closed epoch's index is dropped whole.
	n := 0
	for _, sl := range s.live {
		if !sl.done {
			s.live[n] = sl
			n++
		}
	}
	clear(s.live[n:]) // release the dropped payloads
	s.live = s.live[:n]
	s.at = make(map[proto.RequestID]int, n)
	for i, sl := range s.live {
		s.at[sl.req.ID] = i
	}
	s.ordered = 0
	clear(s.undoStack)
	s.oDelivered, s.undoStack = s.oDelivered[:0], s.undoStack[:0]
	s.ownInput = cnsvorder.Input{}
	s.inPhase2 = false
	s.phase2Sent = false
	s.Epoch = k + 1
	s.Count.Epochs.Add(1)
	if s.observing && s.Epoch > s.observeEpoch {
		s.observing = false // the join epoch closed; back in full standing
	}
	// The undo-set is empty, so the machine is exactly the A-delivered prefix
	// of length Pos: journal the epoch marker, sync — still inside this
	// round, so before any full-weight reply ships — and maybe snapshot.
	s.Boundary()

	// Drop per-epoch bookkeeping we no longer need.
	delete(s.cons, k)
	delete(s.decisions, k)
	delete(s.pendingPhase2, k)
	delete(s.seqOrderBuf, k)

	// Catch up with the new epoch: buffered orderings, a pending PhaseII,
	// or — if we are the new sequencer — leftover unordered requests.
	if orders, ok := s.seqOrderBuf[s.Epoch]; ok {
		delete(s.seqOrderBuf, s.Epoch)
		for _, o := range orders {
			s.handleSeqOrder(o)
		}
	}
	if _, ok := s.pendingPhase2[s.Epoch]; ok {
		delete(s.pendingPhase2, s.Epoch)
		s.handlePhaseII(s.Epoch)
		return
	}
	s.maybeOrder()
}

// Tick implements backend.Protocol: Task 1a catch-up, Task 1c suspicion, and
// consensus timeouts.
func (s *Server) Tick(now time.Time) {
	if !s.inPhase2 {
		// Task 1a catch-up (requests that arrived during phase 2).
		s.EndRound()
		// Task 1c: when p suspects the sequencer, R-broadcast (k, PhaseII).
		seq := s.sequencer()
		if seq != s.Cfg.ID && s.Cfg.Detector.Suspected(seq, now) {
			s.broadcastPhaseII()
		}
	}

	// Drive the active consensus instance (coordinator suspicion).
	if s.inPhase2 {
		if inst, ok := s.cons[s.Epoch]; ok {
			inst.Tick(now)
		}
	}
}

// CanServe implements backend.Protocol. Only a replica between epochs answers
// a catch-up probe with state: its committed prefix is exactly the definitive
// boundary, and — crucially — every closing broadcast of its current epoch is
// still in the future, so the prober cannot adopt an epoch whose PhaseII or
// Decide it has already missed. (Mid-phase-2 those may predate the prober's
// restart, and adopting the epoch could strand it waiting for them.)
func (s *Server) CanServe() bool { return !s.inPhase2 }

// Accept implements backend.Protocol: any peer's boundary state will do —
// consensus agreed on it.
func (s *Server) Accept(proto.NodeID, uint64) bool { return true }

// Resume implements backend.Protocol: join the adopted epoch in observe
// mode, replay the deferred frames — stale epochs drop out, the join epoch's
// traffic lands in observe mode, and a deferred Decide for the join epoch is
// stashed until phase 2 starts — then force an epoch boundary: observe mode
// ends when the join epoch closes, and this guarantees it closes even on an
// otherwise idle group.
func (s *Server) Resume(deferred []backend.Deferred) {
	s.observing = true
	s.observeEpoch = s.Epoch
	for _, f := range deferred {
		s.Handle(f.From, f.Kind, f.Body)
	}
	s.broadcastPhaseII()
}

// Footprint reports the sizes of the replica's per-request bookkeeping. Live
// and Pending cover only live requests and stay bounded by the in-flight
// window when epoch GC is on (EpochRequestLimit > 0); ADelivered is the
// at-most-once filter and grows with the number of distinct requests ever
// completed.
type Footprint struct {
	Live       int // epoch-table slots: R_delivered ⊖ A_delivered, with payloads
	Pending    int // live requests not delivered yet
	ODelivered int // current epoch's optimistic deliveries
	ADelivered int // definitive-delivery filter (grows with history)
}

// Footprint returns the bookkeeping sizes. It reads the event loop's state
// unsynchronized: call it only once Run has returned.
func (s *Server) Footprint() Footprint {
	return Footprint{
		Live:       len(s.live),
		Pending:    len(s.notDelivered()),
		ODelivered: len(s.oDelivered),
		ADelivered: len(s.Delivered),
	}
}
