// Package retained is the analysistest fixture for the retained analyzer.
// Each function exercises the clone-on-retain rule documented on
// proto.Request, proto.Reply and proto.SeqOrder: a value decoded zero-copy
// from an inbound frame aliases the frame's pooled buffer, so retaining it
// past the frame's lifetime requires Clone() (or a byte copy) first.
//
// Negative cases ("ok...") are the documented-safe shapes — cloning before
// the store, copying the bytes out, keeping only value-typed identity
// fields, or using the value strictly while the frame is live.
package retained

import "repro/internal/proto"

type server struct {
	reqs      map[proto.RequestID]proto.Request
	last      proto.Request
	lastOrder proto.SeqOrder
	lastMsg   []byte
	cmds      [][]byte
	scratch   []byte
	buffered  []proto.RequestID
}

// --- stores of tainted values must be preceded by Clone ---

func (s *server) mapBad(body []byte) {
	req, err := proto.UnmarshalRequest(body)
	if err != nil {
		return
	}
	s.reqs[req.ID] = req // want `stored in a map or slice element`
}

func (s *server) fieldBad(body []byte) {
	req, err := proto.UnmarshalRequest(body)
	if err != nil {
		return
	}
	s.last = req // want `stored in a struct field`
}

func (s *server) appendBad(body []byte) {
	req, err := proto.UnmarshalRequest(body)
	if err != nil {
		return
	}
	s.cmds = append(s.cmds, req.Cmd) // want `stored in a struct field`
}

// rangeBad: elements of a tainted collection are tainted (SeqOrder.Reqs
// aliases the order's input frame).
func (s *server) rangeBad(body []byte) {
	order, err := proto.UnmarshalSeqOrder(body)
	if err != nil {
		return
	}
	for _, req := range order.Reqs {
		s.last = req // want `stored in a struct field`
	}
}

// walkBad: a proto.WalkBatch callback's msg parameter aliases the envelope
// ("msg is valid only for the duration of the callback").
func (s *server) walkBad(body []byte) {
	_ = proto.WalkBatch(body, func(msg []byte) {
		s.lastMsg = msg // want `stored in a struct field`
	})
}

// scratchBad: SeqOrder.UnmarshalBody leaves the receiver aliasing the input
// (the decode-into-scratch pattern).
func (s *server) scratchBad(body []byte) {
	var order proto.SeqOrder
	if err := order.UnmarshalBody(body); err != nil {
		return
	}
	s.lastOrder = order // want `stored in a struct field`
}

// --- documented-safe shapes ---

// okClone: Clone() is the copy-on-retain step — its result owns its memory
// (proto.Request.Clone contract).
func (s *server) okClone(body []byte) {
	req, err := proto.UnmarshalRequest(body)
	if err != nil {
		return
	}
	s.reqs[req.ID] = req.Clone()
}

// okValueOnlyField: RequestID is integers all the way down — selecting it
// out of a tainted request yields an owned copy by value semantics.
func (s *server) okValueOnlyField(body []byte) {
	req, err := proto.UnmarshalRequest(body)
	if err != nil {
		return
	}
	s.buffered = append(s.buffered, req.ID)
}

// okByteCopy: append(dst, b...) with a byte slice copies the bytes out of
// the frame; the destination owns them.
func (s *server) okByteCopy(body []byte) {
	req, err := proto.UnmarshalRequest(body)
	if err != nil {
		return
	}
	s.scratch = append(s.scratch[:0], req.Cmd...)
}

// okTransientUse: reading a zero-copy value while its frame is live is the
// whole point of the zero-copy decode path.
func okTransientUse(body []byte) int {
	req, err := proto.UnmarshalRequest(body)
	if err != nil {
		return 0
	}
	local := req.Cmd
	return len(local)
}

// --- the read fast path: read requests and read replies ---
//
// proto.UnmarshalRead decodes the KindRead envelope's request; its Cmd
// aliases the frame like any ordered request. On the client side, a read
// reply's Result aliases the reply frame — a ReadQuorum (or any cache)
// keeping replies across frames must Clone them (the OAR write rule does).

type readServer struct {
	pending map[proto.RequestID]proto.Request
	results map[proto.RequestID][]byte
	last    proto.Reply
	scratch []byte
}

// readRequestBad: parking a decoded read request for a deferred Query — the
// machine-without-Reader fallback shape — retains frame memory.
func (s *readServer) readRequestBad(body []byte) {
	req, err := proto.UnmarshalRead(body)
	if err != nil {
		return
	}
	s.pending[req.ID] = req // want `stored in a map or slice element`
}

// readReplyResultBad: caching a read reply's Result beyond its frame (a
// client-side read cache) retains frame memory through the Result slice.
func (s *readServer) readReplyResultBad(body []byte) {
	r, err := proto.UnmarshalReply(body)
	if err != nil {
		return
	}
	s.results[r.Req] = r.Result // want `stored in a map or slice element`
}

// readReplyAccumulateBad: the read-adoption accumulator shape — holding the
// whole reply across frames (what backend.ReadQuorum receives) must be fed
// clones, never the decoded value itself.
func (s *readServer) readReplyAccumulateBad(body []byte) {
	r, err := proto.UnmarshalReply(body)
	if err != nil {
		return
	}
	s.last = r // want `stored in a struct field`
}

// okReadClone: the documented fix — Clone owns Cmd/Result.
func (s *readServer) okReadClone(body []byte) {
	req, err := proto.UnmarshalRead(body)
	if err != nil {
		return
	}
	s.pending[req.ID] = req.Clone()
	r, rerr := proto.UnmarshalReply(body)
	if rerr != nil {
		return
	}
	s.last = r.Clone()
}

// okReadInlineAnswer: the fast path proper — Query and reply while the frame
// is live, copying the result bytes into owned scratch.
func (s *readServer) okReadInlineAnswer(body []byte) int {
	req, err := proto.UnmarshalRead(body)
	if err != nil {
		return 0
	}
	s.scratch = append(s.scratch[:0], req.Cmd...)
	return len(s.scratch)
}
