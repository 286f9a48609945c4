// Package check is the run-time trace checker: it records every protocol
// event through the backend.Tracer interface and mechanically verifies the
// correctness propositions of the paper (Appendix A) plus the Cnsv-order
// specification of Section 5.4 on the actual trace of a run.
//
// Because the checker validates safety on whatever schedule really happened,
// tests do not depend on reproducing one exact interleaving: any run that
// violates Total order, At-most-once, External consistency or the Cnsv-order
// spec fails loudly.
//
// Checked properties:
//
//	Prop 1  Validity of request handling  (deliveries only for issued requests)
//	Prop 2/3 At-most-once request handling (no duplicate definitive delivery;
//	        undo must match the last optimistic delivery)
//	Prop 4  At-least-once request handling (quiescent runs: every issued
//	        request definitively delivered at every correct server)
//	Prop 5  Total order (definitive logs of correct servers are
//	        prefix-consistent, with identical positions and results)
//	Prop 7  External consistency (every adopted reply matches the definitive
//	        delivery position/result at every correct server)
//	§5.4    Cnsv-order spec per closed epoch (via cnsvorder.CheckSpec)
//	§4      Majority guarantee (follows from Prop 5 + §5.4; checked via both)
//	Reads   Read consistency: every adopted fast-path read was served from a
//	        prefix of the definitive order (no adopted read observed an
//	        optimistic entry that was later Opt-undelivered), and per-client
//	        read positions are monotonic over the client's prior adoptions
//	        (monotonic reads + read-your-writes).
//	Recovery A restarted replica delivers nothing between Restarted and
//	        Recovered, and the prefix it reports recovering to is a prefix of
//	        the group's observed definitive history — crash-recovery may
//	        never invent, reorder, or run ahead of the canonical order.
package check

import (
	"bytes"
	"fmt"
	"sync"

	"repro/internal/backend"
	"repro/internal/cnsvorder"
	"repro/internal/proto"
)

// Violation is one detected property violation.
type Violation struct {
	Property string
	Detail   string
}

// Error implements error.
func (v *Violation) Error() string { return v.Property + ": " + v.Detail }

// entry is one definitive-log slot at a server.
type entry struct {
	req    proto.RequestID
	pos    uint64
	result []byte
	epoch  uint64
	opt    bool // delivered optimistically (still tentative until epoch close)
}

type serverLog struct {
	log        []entry                 // current sequence: committed prefix + tentative suffix
	tentative  int                     // number of tentative (opt, current-epoch) entries at the tail
	delivered  map[proto.RequestID]int // definitive deliveries per request (for at-most-once)
	optPending map[proto.RequestID]struct{}
}

type epochData struct {
	inputs  map[proto.NodeID]cnsvorder.Input
	results map[proto.NodeID]cnsvorder.Result
}

// Checker records events and verifies properties. It implements
// backend.Tracer and is safe for concurrent use.
type Checker struct {
	n int

	mu         sync.Mutex
	issued     map[proto.RequestID][]byte // req -> cmd
	servers    map[proto.NodeID]*serverLog
	epochs     map[uint64]*epochData
	adoptions  map[proto.RequestID]proto.Reply
	crashed    map[proto.NodeID]bool
	recovering map[proto.NodeID]bool
	recoveries int
	violations []*Violation

	// Read fast path state: adopted reads (kept apart from adoptions — a
	// fast-path read never appears in any server's definitive log), the
	// per-client adoption high-water position mirroring the client's
	// monotonic-prefix guard, and the (epoch, pos) of every Opt-undelivered
	// entry (an adopted read must never have observed one).
	readAdoptions map[proto.RequestID]proto.Reply
	clientHW      map[proto.NodeID]uint64
	undone        []undoneAt

	undeliveries int
	optCount     int
	aCount       int
}

// undoneAt records where one Opt-undelivered entry sat when it was undone.
type undoneAt struct {
	server proto.NodeID
	epoch  uint64
	pos    uint64
}

var _ backend.Tracer = (*Checker)(nil)
var _ backend.RecoveryTracer = (*Checker)(nil)

// New creates a checker for a group of n servers.
func New(n int) *Checker {
	return &Checker{
		n:             n,
		issued:        make(map[proto.RequestID][]byte),
		servers:       make(map[proto.NodeID]*serverLog),
		epochs:        make(map[uint64]*epochData),
		adoptions:     make(map[proto.RequestID]proto.Reply),
		crashed:       make(map[proto.NodeID]bool),
		recovering:    make(map[proto.NodeID]bool),
		readAdoptions: make(map[proto.RequestID]proto.Reply),
		clientHW:      make(map[proto.NodeID]uint64),
	}
}

func (c *Checker) report(prop, format string, args ...any) {
	c.violations = append(c.violations, &Violation{Property: prop, Detail: fmt.Sprintf(format, args...)})
}

func (c *Checker) server(id proto.NodeID) *serverLog {
	sl, ok := c.servers[id]
	if !ok {
		sl = &serverLog{
			delivered:  make(map[proto.RequestID]int),
			optPending: make(map[proto.RequestID]struct{}),
		}
		c.servers[id] = sl
	}
	return sl
}

// MarkCrashed tells the checker that a server was crashed on purpose; its
// log is excluded from liveness and cross-server checks from that point on.
func (c *Checker) MarkCrashed(id proto.NodeID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.crashed[id] = true
}

// Restarted implements backend.RecoveryTracer: the replica is booting after a
// crash and must stay silent — no deliveries, no epoch closes — until the
// matching Recovered. Its pre-crash log is retained as a canonical-history
// source (a replica recovering from its own WAL with no live peers rebuilds
// exactly that prefix), but the replica stays excluded from liveness and
// cross-server checks until it recovers.
func (c *Checker) Restarted(server proto.NodeID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.crashed[server] = true
	c.recovering[server] = true
}

// Recovered implements backend.RecoveryTracer: the replica rejoined with a
// definitive prefix of length pos. That prefix must be a prefix of the
// group's observed history — recovery may replay and catch up, never invent.
// The checker rebuilds the replica's log as the canonical prefix[:pos] (from
// the longest committed log it has observed, the replica's own pre-crash log
// included); every later delivery is then checked against the group exactly
// as if the replica had never crashed.
func (c *Checker) Recovered(server proto.NodeID, epoch uint64, pos uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	_ = epoch
	if !c.recovering[server] {
		c.report("recovery", "%v Recovered without a preceding Restarted", server)
	}
	delete(c.recovering, server)
	delete(c.crashed, server)
	c.recoveries++

	// The canonical history: the longest committed (non-tentative) prefix any
	// server has shown. The responder that served the catch-up had committed
	// through pos before it answered, and its trace events precede the
	// prober's Recovered, so a valid recovery always finds pos covered here.
	var canonical []entry
	for _, sl := range c.servers {
		if committed := len(sl.log) - sl.tentative; committed > len(canonical) {
			canonical = sl.log[:committed]
		}
	}
	if uint64(len(canonical)) < pos {
		c.report("recovery", "%v recovered to pos %d beyond the observed definitive history (%d)",
			server, pos, len(canonical))
		pos = uint64(len(canonical))
	}
	sl := c.server(server)
	sl.log = append([]entry(nil), canonical[:pos]...)
	sl.tentative = 0
	sl.delivered = make(map[proto.RequestID]int, pos)
	sl.optPending = make(map[proto.RequestID]struct{})
	for i := range sl.log {
		sl.log[i].opt = false
		sl.delivered[sl.log[i].req]++
	}
}

// Recoveries returns how many Recovered events were recorded.
func (c *Checker) Recoveries() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.recoveries
}

// Issue implements backend.Tracer.
func (c *Checker) Issue(_ proto.NodeID, req proto.RequestID, cmd []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.issued[req] = append([]byte(nil), cmd...)
}

// OptDeliver implements backend.Tracer.
func (c *Checker) OptDeliver(server proto.NodeID, epoch uint64, req proto.RequestID, pos uint64, result []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.optCount++
	sl := c.server(server)
	if c.recovering[server] {
		c.report("recovery", "%v Opt-delivered %v while recovering (before Recovered)", server, req)
	}
	if _, ok := c.issued[req]; !ok {
		c.report("prop1 validity", "%v Opt-delivered %v which was never issued", server, req)
	}
	if n := sl.delivered[req]; n > 0 {
		c.report("prop3 at-most-once", "%v Opt-delivered %v already definitively delivered", server, req)
	}
	if _, pending := sl.optPending[req]; pending {
		c.report("prop2 at-most-once", "%v Opt-delivered %v twice without undo", server, req)
	}
	if want := uint64(len(sl.log)) + 1; pos != want {
		c.report("position", "%v Opt-delivered %v at pos %d, expected %d", server, req, pos, want)
	}
	sl.log = append(sl.log, entry{req: req, pos: pos, result: append([]byte(nil), result...), epoch: epoch, opt: true})
	sl.tentative++
	sl.optPending[req] = struct{}{}
}

// OptUndeliver implements backend.Tracer.
func (c *Checker) OptUndeliver(server proto.NodeID, epoch uint64, req proto.RequestID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.undeliveries++
	sl := c.server(server)
	if sl.tentative == 0 || len(sl.log) == 0 {
		c.report("undo", "%v Opt-undelivered %v with no tentative deliveries", server, req)
		return
	}
	top := sl.log[len(sl.log)-1]
	if top.req != req {
		c.report("undo order", "%v Opt-undelivered %v but last delivery was %v (must undo in reverse order)", server, req, top.req)
	}
	c.undone = append(c.undone, undoneAt{server: server, epoch: epoch, pos: top.pos})
	sl.log = sl.log[:len(sl.log)-1]
	sl.tentative--
	delete(sl.optPending, req)
}

// ADeliver implements backend.Tracer.
func (c *Checker) ADeliver(server proto.NodeID, epoch uint64, req proto.RequestID, pos uint64, result []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.aCount++
	sl := c.server(server)
	if c.recovering[server] {
		c.report("recovery", "%v A-delivered %v while recovering (before Recovered)", server, req)
	}
	if _, ok := c.issued[req]; !ok {
		c.report("prop1 validity", "%v A-delivered %v which was never issued", server, req)
	}
	if n := sl.delivered[req]; n > 0 {
		c.report("prop3 at-most-once", "%v A-delivered %v already definitively delivered", server, req)
	}
	if _, pending := sl.optPending[req]; pending {
		c.report("prop2 at-most-once", "%v A-delivered %v while its optimistic delivery stands (must Opt-undeliver first)", server, req)
	}
	if want := uint64(len(sl.log)) + 1; pos != want {
		c.report("position", "%v A-delivered %v at pos %d, expected %d", server, req, pos, want)
	}
	sl.log = append(sl.log, entry{req: req, pos: pos, result: append([]byte(nil), result...), epoch: epoch})
	sl.delivered[req]++
}

// EpochClose implements backend.Tracer.
func (c *Checker) EpochClose(server proto.NodeID, epoch uint64, input cnsvorder.Input, result cnsvorder.Result) {
	c.mu.Lock()
	defer c.mu.Unlock()
	sl := c.server(server)
	// Every surviving optimistic delivery of the epoch becomes definitive.
	for i := len(sl.log) - sl.tentative; i < len(sl.log); i++ {
		e := &sl.log[i]
		e.opt = false
		sl.delivered[e.req]++
		delete(sl.optPending, e.req)
	}
	sl.tentative = 0

	ed, ok := c.epochs[epoch]
	if !ok {
		ed = &epochData{
			inputs:  make(map[proto.NodeID]cnsvorder.Input),
			results: make(map[proto.NodeID]cnsvorder.Result),
		}
		c.epochs[epoch] = ed
	}
	ed.inputs[server] = input
	ed.results[server] = result
}

// Adopt implements backend.Tracer.
func (c *Checker) Adopt(client proto.NodeID, req proto.RequestID, reply proto.Reply) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if prev, dup := c.adoptions[req]; dup {
		c.report("client", "request %v adopted twice (%v then %v)", req, prev, reply)
		return
	}
	c.adoptions[req] = reply
	if reply.Pos > c.clientHW[client] {
		c.clientHW[client] = reply.Pos
	}
}

// ReadAdopt implements backend.Tracer. The monotonicity check mirrors the
// client's guard exactly: per-client adoption events arrive in the order the
// client performed them (they are emitted under the client's lock), so an
// adopted read below the client's running high-water position is a broken
// monotonic-reads / read-your-writes guarantee.
func (c *Checker) ReadAdopt(client proto.NodeID, req proto.RequestID, reply proto.Reply) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if prev, dup := c.readAdoptions[req]; dup {
		c.report("client", "read %v adopted twice (%v then %v)", req, prev, reply)
		return
	}
	if _, dup := c.adoptions[req]; dup {
		c.report("client", "read %v also adopted via the ordered path", req)
		return
	}
	if hw := c.clientHW[client]; reply.Pos < hw {
		c.report("read monotonicity",
			"client %v adopted read %v at pos %d below its adoption high-water %d", client, req, reply.Pos, hw)
	}
	c.readAdoptions[req] = reply
	if reply.Pos > c.clientHW[client] {
		c.clientHW[client] = reply.Pos
	}
}

// Undeliveries returns how many Opt-undeliver events were recorded.
func (c *Checker) Undeliveries() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.undeliveries
}

// UndeliveriesIn returns how many Opt-undeliver events revoked a delivery of
// the given epoch.
func (c *Checker) UndeliveriesIn(epoch uint64) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, u := range c.undone {
		if u.epoch == epoch {
			n++
		}
	}
	return n
}

// Deliveries returns the (optimistic, conservative) delivery counts.
func (c *Checker) Deliveries() (opt, cons int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.optCount, c.aCount
}

// Adoptions returns the number of adopted replies (ordered path only).
func (c *Checker) Adoptions() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.adoptions)
}

// ReadAdoptions returns the number of adopted fast-path reads.
func (c *Checker) ReadAdoptions() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.readAdoptions)
}

// Counts is a snapshot of the checker's trace counters, comparable with ==.
// The nemesis determinism regression compares two same-seed runs by it.
type Counts struct {
	Issued        int
	Adoptions     int
	ReadAdoptions int
	Opt           int
	Cons          int
	Undeliveries  int
	Recoveries    int
}

// Counts returns a snapshot of the trace counters.
func (c *Checker) Counts() Counts {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Counts{
		Issued:        len(c.issued),
		Adoptions:     len(c.adoptions),
		ReadAdoptions: len(c.readAdoptions),
		Opt:           c.optCount,
		Cons:          c.aCount,
		Undeliveries:  c.undeliveries,
		Recoveries:    c.recoveries,
	}
}

// LivenessSettled reports whether the trace currently satisfies Prop 4's
// precondition-free reading: every issued request has reached every correct
// server (definitively delivered, or optimistically delivered and still
// standing). Unlike VerifyLiveness it reports a boolean instead of
// violations, so schedule executors can poll it to find the quiescent point
// between fault windows — liveness is checked when the system has settled,
// not only at the end of the run.
func (c *Checker) LivenessSettled() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for id, sl := range c.servers {
		if c.crashed[id] {
			continue
		}
		for req := range c.issued {
			if sl.delivered[req] == 0 {
				if _, pending := sl.optPending[req]; !pending {
					return false
				}
			}
		}
	}
	// A server that never appeared in the trace at all also blocks settling:
	// with requests issued, n correct servers must each hold them.
	if len(c.issued) > 0 {
		correct := 0
		for id := range c.servers {
			if !c.crashed[id] {
				correct++
			}
		}
		crashedKnown := len(c.crashed)
		if correct+crashedKnown < c.n {
			return false
		}
	}
	return true
}

// Verify checks all safety properties over the trace recorded so far and
// returns the violations (streaming violations recorded during the run
// included). Call it when the cluster is quiescent.
func (c *Checker) Verify() []*Violation {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := append([]*Violation(nil), c.violations...)
	out = append(out, c.verifyTotalOrderLocked()...)
	out = append(out, c.verifyExternalConsistencyLocked()...)
	out = append(out, c.verifyEpochSpecsLocked()...)
	out = append(out, c.verifyReadConsistencyLocked()...)
	return out
}

// VerifyLiveness additionally checks Prop 4 (at-least-once): every issued
// request is definitively delivered at every correct server. Only meaningful
// once the run is quiescent and all issued requests were given time to
// complete.
func (c *Checker) VerifyLiveness() []*Violation {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []*Violation
	for id, sl := range c.servers {
		if c.crashed[id] {
			continue
		}
		for req := range c.issued {
			definitive := sl.delivered[req] > 0
			if _, pending := sl.optPending[req]; !definitive && !pending {
				out = append(out, &Violation{
					Property: "prop4 at-least-once",
					Detail:   fmt.Sprintf("%v never delivered issued request %v", id, req),
				})
			}
		}
	}
	return out
}

// verifyTotalOrderLocked checks Prop 5: the definitive logs (committed
// prefix + still-standing optimistic suffix) of correct servers must be
// prefix-consistent with identical (request, position, result) triples.
func (c *Checker) verifyTotalOrderLocked() []*Violation {
	var out []*Violation
	var ref []entry
	var refID proto.NodeID
	have := false
	for id, sl := range c.servers {
		if c.crashed[id] {
			continue
		}
		if !have {
			ref, refID, have = sl.log, id, true
			continue
		}
		a, b := ref, sl.log
		n := min(len(a), len(b))
		for i := 0; i < n; i++ {
			if a[i].req != b[i].req || a[i].pos != b[i].pos || !bytes.Equal(a[i].result, b[i].result) {
				out = append(out, &Violation{
					Property: "prop5 total order",
					Detail: fmt.Sprintf("position %d: %v has (%v,%d,%q) but %v has (%v,%d,%q)",
						i+1, refID, a[i].req, a[i].pos, a[i].result, id, b[i].req, b[i].pos, b[i].result),
				})
				break
			}
		}
		if len(b) > len(a) {
			ref, refID = b, id
		}
	}
	return out
}

// verifyExternalConsistencyLocked checks Prop 7: an adopted reply must
// agree with every correct server's definitive record of that request.
func (c *Checker) verifyExternalConsistencyLocked() []*Violation {
	var out []*Violation
	for req, adopted := range c.adoptions {
		for id, sl := range c.servers {
			if c.crashed[id] {
				continue
			}
			for _, e := range sl.log {
				if e.req != req {
					continue
				}
				if e.pos != adopted.Pos || !bytes.Equal(e.result, adopted.Result) {
					out = append(out, &Violation{
						Property: "prop7 external consistency",
						Detail: fmt.Sprintf("client adopted (%d,%q) for %v but %v delivered it as (%d,%q)",
							adopted.Pos, adopted.Result, req, id, e.pos, e.result),
					})
				}
			}
		}
	}
	return out
}

// verifyReadConsistencyLocked checks the read-consistency proposition: every
// adopted fast-path read equals the state after some prefix of the final
// definitive order. A read adopted at (epoch k, pos x) observed exactly the
// definitive prefix through epoch k-1 plus epoch k's optimistic prefix of
// length x - base; that state is a definitive prefix if and only if no
// epoch-k optimistic entry at position ≤ x was later Opt-undelivered. The
// client's majority rule guarantees this (a majority of servers held prefix
// ≥ x in epoch k when they answered, their Cnsv-order proposals only grow
// within the epoch, and any Maj-validity decision intersects that majority,
// so dlvmax extends the prefix); a read observed only pre-rollback can thus
// never gather an adopting majority — which is exactly what this check
// enforces on the actual trace.
func (c *Checker) verifyReadConsistencyLocked() []*Violation {
	var out []*Violation
	for req, adopted := range c.readAdoptions {
		for _, u := range c.undone {
			if u.epoch == adopted.Epoch && u.pos <= adopted.Pos {
				out = append(out, &Violation{
					Property: "read consistency",
					Detail: fmt.Sprintf(
						"read %v adopted at epoch %d pos %d observed entry at pos %d that %v later Opt-undelivered",
						req, adopted.Epoch, adopted.Pos, u.pos, u.server),
				})
				break
			}
		}
	}
	return out
}

// verifyEpochSpecsLocked re-checks the Cnsv-order specification for every
// epoch that at least two servers closed.
func (c *Checker) verifyEpochSpecsLocked() []*Violation {
	var out []*Violation
	for epoch, ed := range c.epochs {
		if len(ed.results) == 0 {
			continue
		}
		for _, v := range cnsvorder.CheckSpec(c.n, ed.inputs, ed.results) {
			out = append(out, &Violation{
				Property: "cnsvorder " + v.Property,
				Detail:   fmt.Sprintf("epoch %d: %s", epoch, v.Detail),
			})
		}
	}
	return out
}
