// Package fixedseq implements the Isis/Amoeba-style sequencer-based Atomic
// Broadcast of Section 2.4 of the paper [BSS91, KT91], with the naive
// fail-over that makes it efficient but UNSAFE: on suspicion of the
// sequencer, the next replica takes over and re-orders every message it has
// not delivered yet, with no agreement on what the old sequencer already
// delivered.
//
// This is the baseline whose Figure 1(b) run produces an external
// inconsistency: the crashed sequencer's reply reaches the client (which,
// per classic active replication, adopts the first reply) while its ordering
// message is lost, and the new sequencer picks a different order. The OAR
// protocol (internal/core) exists to close exactly this hole; experiment E1
// measures it.
//
// The package holds only that ordering rule. The replica runs on the shared
// runtime of internal/backend — the same event loop, send batching, read
// fast path and crash recovery as OAR — so cross-protocol experiments
// compare ordering protocols rather than transport disciplines. It registers
// itself as the "fixedseq" backend.
package fixedseq

import (
	"time"

	"repro/internal/backend"
	"repro/internal/baseline"
	"repro/internal/mseq"
	"repro/internal/proto"
)

// BackendName is the registry name of the fixed-sequencer baseline.
const BackendName = "fixedseq"

func init() { backend.Register(fsBackend{}) }

type fsBackend struct{}

func (fsBackend) Name() string { return BackendName }

func (fsBackend) NewReplica(cfg backend.ReplicaConfig) (backend.Replica, error) {
	return NewServer(cfg)
}

// NewInvoker returns the classic first-reply client — the adoption rule
// whose unsafety under the Figure 1(b) fault is the point of this baseline.
func (fsBackend) NewInvoker(cfg backend.InvokerConfig) (backend.Invoker, error) {
	return baseline.NewInvoker(cfg)
}

// Server is one fixed-sequencer replica. Epoch (in the embedded Runtime) is
// the view: the current sequencer is Group[view mod n]. Undo is never used:
// this protocol has no rollback — that is its flaw — so every delivery is
// definitive at once.
type Server struct {
	backend.Runtime
	n int

	buffered mseq.Seq[proto.RequestID]
	payloads map[proto.RequestID]proto.Request

	// orderScratch is the reusable decode target for inbound SeqOrder
	// bodies (request commands alias the inbound frame; buffer() clones
	// what it retains).
	orderScratch proto.SeqOrder
}

var _ backend.Protocol = (*Server)(nil)

// NewServer validates cfg and creates a replica. The baseline keeps no WAL:
// restart recovery is the in-memory peer catch-up alone, and exists so
// restart-under-load scenarios compare all backends on the same schedule.
func NewServer(cfg backend.ReplicaConfig) (*Server, error) {
	s := &Server{n: len(cfg.Group), payloads: make(map[proto.RequestID]proto.Request)}
	// A recovering replica defers the sequencer's orders and drops raw
	// requests — they re-arrive inside the orders.
	err := s.Init(cfg, s, backend.Spec{
		SnapshotDeliveries: baseline.SnapshotDeliveries,
		Defer:              []proto.Kind{proto.KindSeqOrder},
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}

func (s *Server) sequencer() proto.NodeID {
	return s.Cfg.Group[int(s.Epoch%uint64(s.n))] //nolint:gosec // n ≤ 64
}

// Handle implements backend.Protocol.
func (s *Server) Handle(_ proto.NodeID, kind proto.Kind, body []byte) {
	switch kind {
	case proto.KindRequest:
		req, err := proto.UnmarshalRequest(body)
		if err != nil {
			return
		}
		s.Submit(req)
	case proto.KindSeqOrder:
		// Zero-allocation decode into the scratch order; the commands alias
		// the inbound frame and are cloned at retention (buffer).
		if err := s.orderScratch.UnmarshalBody(body); err != nil {
			return
		}
		s.handleOrder(s.orderScratch)
	}
}

// Submit implements backend.Protocol: buffer, and order at once if we are
// the sequencer.
func (s *Server) Submit(req proto.Request) {
	s.buffer(req)
	s.maybeOrder()
}

// EndRound implements backend.Protocol; the sequencer orders on arrival.
func (s *Server) EndRound() {}

// buffer retains req past the inbound frame's handling, so the command is
// cloned here (copy-on-retain); duplicates return before the clone.
func (s *Server) buffer(req proto.Request) {
	if _, known := s.payloads[req.ID]; known {
		return
	}
	s.payloads[req.ID] = req.Clone()
	s.buffered = append(s.buffered, req.ID)
}

// maybeOrder: the sequencer assigns the order to all undelivered buffered
// messages, ships it, and delivers immediately.
func (s *Server) maybeOrder() {
	if s.sequencer() != s.Cfg.ID {
		return
	}
	var pending []proto.Request
	for _, id := range s.buffered {
		if _, done := s.Delivered[id]; !done {
			pending = append(pending, s.payloads[id])
		}
	}
	if len(pending) == 0 {
		return
	}
	s.SendOrder(proto.SeqOrder{Epoch: s.Epoch, Reqs: pending})
	s.deliverBatch(pending)
}

// handleOrder delivers a sequencer's batch. Orders from newer views move
// this replica into that view (it may have missed the suspicion); orders
// from older views are stale and dropped — the root of the protocol's
// unsafety, faithfully reproduced.
func (s *Server) handleOrder(order proto.SeqOrder) {
	if order.Epoch < s.Epoch {
		return
	}
	s.Epoch = order.Epoch
	s.deliverBatch(order.Reqs)
}

func (s *Server) deliverBatch(reqs []proto.Request) {
	for _, req := range reqs {
		if _, done := s.Delivered[req.ID]; done {
			continue
		}
		s.buffer(req)
		result, _ := s.Cfg.Machine.Apply(req.Cmd)
		s.Pos++
		s.Commit(req)
		s.Count.ADelivered.Add(1)
		s.Cfg.Tracer.ADeliver(s.Cfg.ID, s.Epoch, req.ID, s.Pos, result)
		s.SendReply(req.ID.Client, proto.Reply{
			Req:    req.ID,
			From:   s.Cfg.ID,
			Epoch:  s.Epoch,
			Weight: proto.WeightOf(s.Cfg.ID),
			Pos:    s.Pos,
			Result: result,
		})
	}
	s.Boundary()
}

// Tick implements backend.Protocol: the naive fail-over. Bump the view past
// every suspected sequencer; if that makes us the sequencer, re-order
// everything we have not delivered. No agreement, no recovery of the old
// sequencer's deliveries.
func (s *Server) Tick(now time.Time) {
	bumped := false
	for s.sequencer() != s.Cfg.ID && s.Cfg.Detector.Suspected(s.sequencer(), now) {
		s.Epoch++
		bumped = true
		s.Count.Views.Add(1)
	}
	if bumped {
		s.maybeOrder()
	}
}

// CanServe implements backend.Protocol: only the current sequencer serves
// catch-up state. It is the single origin of ordering messages, and its link
// to the prober's new endpoint incarnation is FIFO: every order it ships
// after answering the probe arrives after the answer, so the adopted prefix
// plus the deferred order stream is gapless. A non-sequencer's prefix
// carries no such guarantee (orders it has seen may have been addressed to
// the prober's previous, dead incarnation).
func (s *Server) CanServe() bool { return s.sequencer() == s.Cfg.ID }

// Accept implements backend.Protocol: the answer must come from the
// sequencer of the view it reports; see CanServe.
func (s *Server) Accept(from proto.NodeID, view uint64) bool {
	return s.Cfg.Group[int(view%uint64(s.n))] == from //nolint:gosec // n ≤ 64
}

// Resume implements backend.Protocol: replay the deferred order stream on
// top of the adopted prefix.
func (s *Server) Resume(deferred []backend.Deferred) {
	for _, f := range deferred {
		s.Handle(f.From, f.Kind, f.Body)
	}
	s.maybeOrder()
}
