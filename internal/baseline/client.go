// Package baseline holds what the two baseline protocols share (the
// Isis-style fixed-sequencer Atomic Broadcast of Section 2.4 and the
// conservative consensus-based Atomic Broadcast): above all the classic
// active-replication client rule. The client sends its request to all
// replicas and adopts the FIRST reply (Section 2.1: "The client waits only
// for the first reply").
//
// This first-reply rule is precisely what makes the fixed-sequencer protocol
// externally inconsistent in the Figure 1(b) scenario — and what the OAR
// weight-quorum rule (Figure 5) fixes. Everything else the client does is
// internal/backend's shared client, so the baselines are measured under the
// transport the optimistic hot path actually uses.
package baseline

import (
	"repro/internal/backend"
	"repro/internal/proto"
)

// SnapshotDeliveries is how often a baseline replica's catch-up tail is
// compacted into a machine snapshot (backend.Spec.SnapshotDeliveries).
// Neither baseline ever rolls a delivery back, so every delivery boundary is
// a valid snapshot point — far too many to count.
const SnapshotDeliveries = 256

// NewInvoker creates a started first-reply client.
func NewInvoker(cfg backend.InvokerConfig) (backend.Invoker, error) {
	return backend.NewClient(cfg, firstReply, func(send backend.SendFunc) backend.SubmitFunc {
		return func(id proto.RequestID, cmd []byte) {
			// One owned frame shared across every destination: sent payloads
			// are immutable.
			payload := proto.MarshalRequest(proto.Request{ID: id, Cmd: cmd})
			for _, p := range cfg.Group {
				send(p, payload)
			}
		}
	})
}

// firstReply adopts whatever arrives first; the rest are dropped. The
// adopted reply outlives the inbound frame it was decoded from, so it is
// cloned.
func firstReply(_ *backend.Replies, reply proto.Reply) (proto.Reply, bool) {
	return reply.Clone(), true
}
