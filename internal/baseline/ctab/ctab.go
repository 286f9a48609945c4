// Package ctab implements a conservative, consensus-based Atomic Broadcast
// in the style of Chandra–Toueg [CT96]: every batch of client requests is
// ordered by a full consensus instance before any replica processes it.
//
// This is the "always safe, never optimistic" end of the paper's
// latency/consistency trade-off (Section 2.2): no reply ever needs to be
// invalidated, so the first-reply client rule is sound — but every request
// pays consensus latency (several message delays) instead of the OAR
// optimistic phase's single sequencer hop. Experiment E2 measures the gap.
//
// The package holds only that ordering rule. The replica runs on the shared
// runtime of internal/backend — the same event loop, send batching, read
// fast path and crash recovery as OAR. It registers itself as the "ctab"
// backend.
package ctab

import (
	"fmt"
	"time"

	"repro/internal/backend"
	"repro/internal/baseline"
	"repro/internal/consensus"
	"repro/internal/mseq"
	"repro/internal/proto"
	"repro/internal/wire"
)

// BackendName is the registry name of the conservative baseline.
const BackendName = "ctab"

func init() { backend.Register(ctBackend{}) }

type ctBackend struct{}

func (ctBackend) Name() string { return BackendName }

func (ctBackend) NewReplica(cfg backend.ReplicaConfig) (backend.Replica, error) {
	return NewServer(cfg)
}

// NewInvoker returns the classic first-reply client — sound here, because
// every delivery is consensus-ordered before any replica replies.
func (ctBackend) NewInvoker(cfg backend.InvokerConfig) (backend.Invoker, error) {
	return baseline.NewInvoker(cfg)
}

// Server is one conservative-atomic-broadcast replica. Epoch (in the
// embedded Runtime) is the current consensus instance.
type Server struct {
	backend.Runtime
	n int

	buffered mseq.Seq[proto.RequestID]
	payloads map[proto.RequestID]proto.Request

	running   bool // the current instance has been started here
	instances map[uint64]*consensus.Instance
	decisions map[uint64]consensus.Decision
}

var _ backend.Protocol = (*Server)(nil)

// NewServer validates cfg and creates a replica. The baseline keeps no WAL:
// restart recovery is the in-memory peer catch-up alone.
func NewServer(cfg backend.ReplicaConfig) (*Server, error) {
	s := &Server{
		n:         len(cfg.Group),
		payloads:  make(map[proto.RequestID]proto.Request),
		instances: make(map[uint64]*consensus.Instance),
		decisions: make(map[uint64]consensus.Decision),
	}
	// A recovering replica defers consensus traffic and drops raw requests —
	// they re-arrive inside decided batches (decisions carry full payloads).
	// Positions are consensus-agreed, identical at every replica whatever
	// the instance, so reads are tagged with one constant epoch (FlatReads)
	// and the majority rule buys freshness: a lagging replica alone cannot
	// serve a stale read.
	err := s.Init(cfg, s, backend.Spec{
		SnapshotDeliveries: baseline.SnapshotDeliveries,
		Defer:              []proto.Kind{proto.KindEstimate, proto.KindPropose, proto.KindAck, proto.KindDecide},
		FlatReads:          true,
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}

// Handle implements backend.Protocol.
func (s *Server) Handle(from proto.NodeID, kind proto.Kind, body []byte) {
	switch kind {
	case proto.KindRequest:
		req, err := proto.UnmarshalRequest(body)
		if err != nil {
			return
		}
		s.Submit(req)
	case proto.KindEstimate, proto.KindPropose, proto.KindAck, proto.KindDecide:
		k, err := consensus.InstanceOf(body)
		if err != nil || k < s.Epoch {
			return
		}
		_ = s.instance(k).OnMessage(from, kind, body)
		// Seeing traffic for the current instance means the group is
		// batching; join with whatever we have (possibly nothing).
		if k == s.Epoch && !s.running {
			s.startBatch()
		}
	}
}

// Submit implements backend.Protocol: buffer, and start a consensus instance
// if none is running.
func (s *Server) Submit(req proto.Request) {
	if _, known := s.payloads[req.ID]; known {
		return
	}
	// The payloads map outlives the inbound frame: clone the command
	// (copy-on-retain); duplicates returned above without allocating.
	s.payloads[req.ID] = req.Clone()
	s.buffered = append(s.buffered, req.ID)
	s.maybeStartBatch()
}

// EndRound implements backend.Protocol; batches start on arrival.
func (s *Server) EndRound() {}

func (s *Server) pending() []proto.Request {
	var out []proto.Request
	for _, id := range s.buffered {
		if _, done := s.Delivered[id]; !done {
			out = append(out, s.payloads[id])
		}
	}
	return out
}

func (s *Server) maybeStartBatch() {
	if !s.running && len(s.pending()) > 0 {
		s.startBatch()
	}
}

func (s *Server) startBatch() {
	s.running = true
	inst := s.instance(s.Epoch)
	inst.Start(encodeBatch(s.pending()))
	if d, ok := s.decisions[s.Epoch]; ok {
		s.applyDecision(s.Epoch, d)
	}
}

func (s *Server) instance(k uint64) *consensus.Instance {
	if inst, ok := s.instances[k]; ok {
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
	s.instances[k] = inst
	return inst
}

func (s *Server) onDecide(k uint64, d consensus.Decision) {
	if k == s.Epoch && s.running {
		s.applyDecision(k, d)
		return
	}
	s.decisions[k] = d
}

// applyDecision delivers the decided batch: the union of all proposed
// request sequences, merged in decision order (identical everywhere by
// consensus agreement), minus what is already delivered.
func (s *Server) applyDecision(k uint64, d consensus.Decision) {
	seqs := make([]mseq.Seq[proto.RequestID], 0, len(d))
	for _, pv := range d {
		reqs, err := decodeBatch(pv.Val)
		if err != nil {
			panic(fmt.Sprintf("ctab server %v: corrupt decision from %v: %v", s.Cfg.ID, pv.From, err))
		}
		ids := make(mseq.Seq[proto.RequestID], 0, len(reqs))
		for _, r := range reqs {
			// Copy-on-retain, first writer wins: the decoded command aliases
			// the decision value pv.Val, and the payloads map outlives it.
			if _, known := s.payloads[r.ID]; !known {
				s.payloads[r.ID] = r.Clone()
			}
			if !s.buffered.Contains(r.ID) {
				s.buffered = append(s.buffered, r.ID)
			}
			ids = append(ids, r.ID)
		}
		seqs = append(seqs, ids)
	}
	full := proto.FullWeight(s.n)
	for _, id := range mseq.Merge(seqs...) {
		if _, done := s.Delivered[id]; done {
			continue
		}
		req := s.payloads[id]
		result, _ := s.Cfg.Machine.Apply(req.Cmd)
		s.Pos++
		s.Commit(req)
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

	s.Count.Batches.Add(1)
	delete(s.instances, k)
	delete(s.decisions, k)
	s.running = false
	s.Epoch = k + 1
	s.Boundary()
	// A decision for the next instance may already be waiting.
	if _, ok := s.decisions[s.Epoch]; ok {
		s.startBatch()
		return
	}
	s.maybeStartBatch()
}

// Tick implements backend.Protocol: consensus coordinator suspicion.
func (s *Server) Tick(now time.Time) {
	if s.running {
		if inst, ok := s.instances[s.Epoch]; ok {
			inst.Tick(now)
		}
	}
}

// CanServe implements backend.Protocol: only between batches. A peer
// mid-instance may have received that instance's deciding broadcasts before
// the prober's new endpoint came up, and decided instances are
// garbage-collected — nobody would retransmit. A peer that has not started
// its next instance has not decided it either, and every replica relays a
// Decision once on first receipt (reliable-broadcast style), so the
// responder's own relay of any instance >= its reported one is in the
// prober's future.
func (s *Server) CanServe() bool { return !s.running }

// Accept implements backend.Protocol: any peer's boundary state will do —
// consensus agreed on it.
func (s *Server) Accept(proto.NodeID, uint64) bool { return true }

// Resume implements backend.Protocol: route the deferred consensus frames —
// instances below the adopted one are stale and drop out.
func (s *Server) Resume(deferred []backend.Deferred) {
	for _, f := range deferred {
		s.Handle(f.From, f.Kind, f.Body)
	}
	s.maybeStartBatch()
}

// encodeBatch/decodeBatch serialize a request sequence as a consensus value.
func encodeBatch(reqs []proto.Request) []byte {
	w := wire.NewWriter(32)
	w.Uint64(uint64(len(reqs)))
	for _, r := range reqs {
		r.Encode(w)
	}
	return w.Bytes()
}

func decodeBatch(b []byte) ([]proto.Request, error) {
	r := wire.NewReader(b)
	n := r.Uint64()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if n > uint64(r.Remaining()) {
		return nil, wire.ErrOverflow
	}
	reqs := make([]proto.Request, 0, n)
	for i := uint64(0); i < n; i++ {
		reqs = append(reqs, proto.DecodeRequest(r))
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	return reqs, nil
}
