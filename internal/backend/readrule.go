package backend

import (
	"sort"

	"repro/internal/proto"
)

// ReadQuorum is the client half of the read fast path, shared by every
// backend's client: it accumulates the replies of one read-only request and
// decides adoption under the majority-validated prefix rule.
//
// A fast-path read reply is a snapshot of one replica's prefix, tagged
// (epoch, pos, weight). A candidate reply is adoptable once the union weight
// of same-epoch replies answering at the candidate's position *or later*
// reaches a majority of the group: each such replica's epoch proposal
// extends the candidate prefix, the epoch-closing agreement adopts a
// proposal endorsed by a majority, and two majorities intersect — so the
// definitive order extends the candidate prefix. Among adoptable candidates
// the freshest (largest position) wins. A prefix that is later rolled back
// was, by the same intersection argument, never adoptable.
//
// The accumulator is not safe for concurrent use; callers hold their client
// lock across Offer (matching the write path's reply handling).
type ReadQuorum struct {
	n    int
	seen Replies

	// Answered unions the weight of every reply seen — including replies the
	// caller filtered out of adoption (stale prefixes) and fed through
	// Answer only — so the client can give up and fall back to the ordered
	// path once the whole group has answered without an adoptable majority.
	Answered proto.Weight
}

// Replies accumulates the replies to one outstanding request by epoch — the
// "for some k" of Figure 5 line 3: weights only add up within one epoch —
// for the adoption rules that need more than one reply. The zero value is
// empty.
type Replies struct {
	byEpoch map[uint64]*epochReplies
}

type epochReplies struct {
	replies []proto.Reply
	union   proto.Weight
}

// Add records reply under its epoch and returns that epoch's replies so far
// (aliasing the accumulator) and their union weight. The reply is retained:
// pass an owned one (Clone when it aliases an inbound frame).
func (rs *Replies) Add(reply proto.Reply) ([]proto.Reply, proto.Weight) {
	acc, ok := rs.byEpoch[reply.Epoch]
	if !ok {
		if rs.byEpoch == nil {
			rs.byEpoch = make(map[uint64]*epochReplies)
		}
		acc = &epochReplies{}
		rs.byEpoch[reply.Epoch] = acc
	}
	acc.replies = append(acc.replies, reply)
	acc.union = acc.union.Union(reply.Weight)
	return acc.replies, acc.union
}

// NewReadQuorum creates an accumulator for one read against a group of n.
func NewReadQuorum(n int) *ReadQuorum { return &ReadQuorum{n: n} }

// Answer counts a reply toward the answered weight without entering it into
// the adoption rule — for replies the caller must discard (e.g. below its
// monotonic-read high-water mark).
func (q *ReadQuorum) Answer(reply proto.Reply) {
	q.Answered = q.Answered.Union(reply.Weight)
}

// AllAnswered reports whether every group member has answered.
func (q *ReadQuorum) AllAnswered() bool { return q.Answered == proto.FullWeight(q.n) }

// Offer records reply and returns the adoptable reply with the largest
// position at or above floor, if the rule is now satisfied. The reply is
// retained across Offers (the quorum builds up over several frames): callers
// pass an owned reply (Clone when it aliases an inbound frame).
//
// floor is the client's monotonic-read high-water mark at this instant — it
// must be re-passed on every Offer, not just enforced at reply arrival,
// because the mark can rise between two replies of the same read (a write on
// the same client adopting in between): a reply accepted under the old mark
// may head a majority that only forms below the new one, and adopting it
// would serve the client a prefix older than an operation it has already
// observed.
func (q *ReadQuorum) Offer(reply proto.Reply, floor uint64) (proto.Reply, bool) {
	q.Answer(reply)
	replies, union := q.seen.Add(reply)
	if !union.IsMajority(q.n) {
		return proto.Reply{}, false
	}
	// Scan positions from freshest to oldest, accumulating the union weight
	// of every reply at or beyond the current one; the first position where
	// the union reaches a majority is the largest adoptable candidate. A
	// reply below the floor cannot head an adoptable candidate (and replies
	// never endorse positions above their own), so the scan stops there.
	sort.Slice(replies, func(i, j int) bool { return replies[i].Pos > replies[j].Pos })
	var endorse proto.Weight
	for i, r := range replies {
		if r.Pos < floor {
			break
		}
		endorse = endorse.Union(r.Weight)
		if i+1 < len(replies) && replies[i+1].Pos == r.Pos {
			continue // fold in every reply at this position first
		}
		if endorse.IsMajority(q.n) {
			return r, true
		}
	}
	return proto.Reply{}, false
}
