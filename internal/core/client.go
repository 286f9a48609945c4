package core

import (
	"repro/internal/backend"
	"repro/internal/proto"
	"repro/internal/rmcast"
)

// BackendName is the registry name of the OAR protocol.
const BackendName = "oar"

func init() { backend.Register(oarBackend{}) }

// oarBackend plugs the two halves of OAR into the shared replica runtime and
// the shared client.
type oarBackend struct{}

func (oarBackend) Name() string { return BackendName }

func (oarBackend) NewReplica(cfg backend.ReplicaConfig) (backend.Replica, error) {
	return NewServer(cfg)
}

// NewInvoker creates the client side of the OAR algorithm (Figure 5):
// OAR-multicast the request, wait for a set of same-epoch replies whose
// combined weight reaches ⌈(|Π|+1)/2⌉, then adopt a reply of maximal
// individual weight.
func (oarBackend) NewInvoker(cfg backend.InvokerConfig) (backend.Invoker, error) {
	return backend.NewClient(cfg, majorityWeight(len(cfg.Group)), func(send backend.SendFunc) backend.SubmitFunc {
		// The rmcast endpoint is guarded by the client lock (the client calls
		// submit under it) and numbers multicasts from the client's range.
		rm := rmcast.New(rmcast.Config{Self: cfg.ID, Group: cfg.Group, GroupID: cfg.GroupID, Send: send, FirstSeq: cfg.FirstSeq})
		return func(id proto.RequestID, cmd []byte) {
			// Line 2: R-multicast (m, Π). The inner request is encoded via a
			// pooled writer: Multicast copies it into the (owned) wrapper
			// payload before returning.
			w := proto.GetWriter()
			proto.EncodeHeader(w, proto.KindRequest, id.Group)
			proto.Request{ID: id, Cmd: cmd}.Encode(w)
			rm.Multicast(w.Bytes())
			proto.PutWriter(w)
		}
	})
}

// majorityWeight is lines 3–5 of Figure 5 for a group of n. The per-epoch
// accumulator retains the reply across frames (the quorum builds up from
// several servers' frames), so the reply is cloned at retention.
func majorityWeight(n int) backend.WriteRule {
	return func(seen *backend.Replies, reply proto.Reply) (proto.Reply, bool) {
		// Line 3: wait until, for some k, the union weight reaches ⌈(|Π|+1)/2⌉.
		replies, union := seen.Add(reply.Clone())
		if !union.IsMajority(n) {
			return proto.Reply{}, false
		}
		// Lines 4–5: adopt a reply with the largest individual weight.
		best := replies[0]
		for _, r := range replies[1:] {
			if r.Weight.Count() > best.Weight.Count() {
				best = r
			}
		}
		return best, true
	}
}
