// Package rmcast implements the Reliable Multicast primitive of Section 3 of
// the paper, R-multicast(m, Π), with the three properties:
//
//	Validity:  if a correct process R-multicasts m, every correct process in
//	           Π eventually R-delivers m.
//	Agreement: if a correct process R-delivers m, all correct processes in Π
//	           eventually R-deliver m.
//	Integrity: every process R-delivers m at most once, and only if m was
//	           previously R-multicast.
//
// Every group member forwards each message to the whole group on first
// delivery, so Agreement holds unconditionally at the cost of O(n²) messages
// per multicast.
//
// An RMcast instance is owned by a single goroutine (the process event loop)
// and is not safe for concurrent use, in line with the paper's
// tasks-in-mutual-exclusion execution model.
package rmcast

import (
	"fmt"

	"repro/internal/proto"
)

// Key uniquely identifies a reliable-multicast message.
type Key struct {
	Origin proto.NodeID
	Seq    uint64
}

// Config configures an RMcast endpoint.
type Config struct {
	// Self is the owning process.
	Self proto.NodeID
	// Group is Π, the set of relay participants (the servers). Self may or
	// may not be a member: clients multicast into a group they do not belong
	// to.
	Group []proto.NodeID
	// GroupID tags every multicast and relay with the ordering group this
	// endpoint belongs to (0 in a single-group system).
	GroupID proto.GroupID
	// Send is the reliable FIFO unicast primitive of the transport layer.
	Send func(to proto.NodeID, payload []byte)
	// SendCopies declares that Send copies the payload before returning
	// (e.g. it appends into a transport.Batcher's envelope buffer). It lets
	// the relay hot path encode into a reusable scratch buffer instead of
	// allocating a fresh payload per delivered message. Leave false when
	// Send queues the slice it is given (a raw transport.Node.Send, a
	// channel to a sender goroutine).
	SendCopies bool
	// FirstSeq is the first multicast sequence number this endpoint uses.
	// Receivers deduplicate by (Origin, Seq) forever, so a process that
	// restarts must not reuse its previous incarnation's sequence numbers —
	// a recovered replica passes a disjoint per-incarnation range here
	// (incarnation << 32) and its multicasts stay deliverable.
	FirstSeq uint64
}

// RMcast is one process's reliable-multicast endpoint.
type RMcast struct {
	cfg       Config
	inGroup   bool
	nextSeq   uint64
	delivered map[Key]struct{}
	scratch   []byte // reusable relay-payload encode buffer (SendCopies mode)
}

// New creates an endpoint.
func New(cfg Config) *RMcast {
	r := &RMcast{
		cfg:       cfg,
		nextSeq:   cfg.FirstSeq,
		delivered: make(map[Key]struct{}),
	}
	for _, p := range cfg.Group {
		if p == cfg.Self {
			r.inGroup = true
			break
		}
	}
	return r
}

// Multicast R-multicasts inner (a kind-tagged payload) to the group. If the
// caller itself belongs to the group, the message is locally R-delivered
// immediately and Multicast returns (inner, true); otherwise it returns
// (nil, false).
func (r *RMcast) Multicast(inner []byte) (local []byte, deliverLocal bool) {
	key := Key{Origin: r.cfg.Self, Seq: r.nextSeq}
	r.nextSeq++
	payload := proto.MarshalRMcast(r.cfg.GroupID, proto.RMcastMsg{Origin: key.Origin, Seq: key.Seq, Inner: inner})
	for _, p := range r.cfg.Group {
		if p == r.cfg.Self {
			continue
		}
		r.cfg.Send(p, payload)
	}
	if !r.inGroup {
		return nil, false
	}
	r.delivered[key] = struct{}{}
	return inner, true
}

// OnMessage processes the body of a received KindRMcast payload. It returns
// the inner payload exactly once per message (Integrity); duplicates return
// (nil, false, nil).
func (r *RMcast) OnMessage(body []byte) (inner []byte, deliver bool, err error) {
	m, err := proto.UnmarshalRMcast(body)
	if err != nil {
		return nil, false, fmt.Errorf("rmcast: %w", err)
	}
	key := Key{Origin: m.Origin, Seq: m.Seq}
	if _, dup := r.delivered[key]; dup {
		return nil, false, nil
	}
	// Rebuild the relayable payload by re-tagging the received body instead
	// of re-encoding the message — the body already is the canonical
	// encoding. The caller verified the envelope group before handing us the
	// body, so re-tagging with our own group is faithful. When Send copies
	// (SendCopies), the payload is assembled in the reusable scratch buffer,
	// so the once-per-delivered-message hot path allocates nothing; the
	// buffer is reused after relay returns.
	var payload []byte
	if r.cfg.SendCopies {
		r.scratch = proto.AppendHeader(r.scratch[:0], proto.KindRMcast, r.cfg.GroupID)
		r.scratch = append(r.scratch, body...)
		payload = r.scratch
	} else {
		payload = proto.AppendHeader(make([]byte, 0, 6+len(body)), proto.KindRMcast, r.cfg.GroupID)
		payload = append(payload, body...)
	}
	r.delivered[key] = struct{}{}
	r.relay(key, payload)
	return m.Inner, true, nil
}

// DeliveredCount returns the number of distinct messages R-delivered so far.
func (r *RMcast) DeliveredCount() int { return len(r.delivered) }

func (r *RMcast) relay(key Key, payload []byte) {
	for _, p := range r.cfg.Group {
		if p == r.cfg.Self || p == key.Origin {
			continue
		}
		r.cfg.Send(p, payload)
	}
}
