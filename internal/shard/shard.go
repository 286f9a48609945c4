// Package shard partitions the keyspace of a replicated service across
// several independent OAR ordering groups and routes each command to the
// group that owns its key.
//
// The design follows the scaling rule of every production ordered-replication
// system: a single group's throughput is capped by one sequencer's event
// loop, so N groups run side by side — each a complete OAR instance
// satisfying Propositions 1–7 on its own key subspace — and a stateless
// router decides which group serves a command. Cross-group operations are
// deliberately out of scope: the total order is per group, which is exactly
// the consistency contract a key-partitioned service offers.
//
// The three pieces:
//
//   - KeyFunc extracts the routing key from an opaque command. The default,
//     FirstToken, takes the first whitespace-separated token; MachineKey
//     returns a key extractor matched to a built-in state machine's command
//     syntax (e.g. the <k> of the kv machine's "set <k> <v>").
//   - Router maps a key to a proto.GroupID by FNV-1a hash, giving a
//     deterministic, uniform assignment that every client computes
//     independently — no directory service.
//   - Client owns one per-group backend (a backend.Client in production) and
//     fans each Invoke out to the owning group.
package shard

import (
	"context"
	"fmt"
	"sync/atomic"

	"repro/internal/proto"
)

// KeyFunc extracts the routing key of a command. Commands with equal keys
// are ordered by the same group; commands with different keys may be served
// by different groups and carry no mutual ordering guarantee.
type KeyFunc func(cmd []byte) []byte

// FirstToken is the default KeyFunc: the first whitespace-separated token of
// the command (the whole command when it has no whitespace).
func FirstToken(cmd []byte) []byte { return nthToken(0)(cmd) }

func isSpace(b byte) bool { return b == ' ' || b == '\t' }

// nthToken returns a KeyFunc extracting the n-th (0-based) whitespace-
// separated token. A command with fewer tokens keys on its last one (so
// "get" routes with "get <k>" traffic only when no key exists to do better);
// an empty command yields an empty key.
func nthToken(n int) KeyFunc {
	return func(cmd []byte) []byte {
		var tok []byte
		rest := cmd
		for i := 0; ; i++ {
			for len(rest) > 0 && isSpace(rest[0]) {
				rest = rest[1:]
			}
			if len(rest) == 0 {
				return tok
			}
			end := 0
			for end < len(rest) && !isSpace(rest[end]) {
				end++
			}
			tok = rest[:end]
			if i == n {
				return tok
			}
			rest = rest[end:]
		}
	}
}

// MachineKey returns the conventional KeyFunc for a built-in state machine.
// Verb-first machines (kv, bank) route on the command's second token — the
// key or account the verb operates on — so all operations on one datum land
// in one group. Machines whose whole state is one object (stack, counter,
// queue, recorder) route on the first token; sharding them splits load but
// not semantics, which is the honest best a hash router can do for an
// unpartitionable structure.
func MachineKey(machine string) KeyFunc {
	switch machine {
	case "kv", "bank":
		return nthToken(1)
	default:
		return FirstToken
	}
}

// Router deterministically maps commands to ordering groups.
type Router struct {
	shards uint32
	key    KeyFunc
}

// NewRouter creates a router over the given number of groups. A nil key uses
// FirstToken.
func NewRouter(shards int, key KeyFunc) (*Router, error) {
	if shards <= 0 {
		return nil, fmt.Errorf("shard: shard count %d must be positive", shards)
	}
	if key == nil {
		key = FirstToken
	}
	return &Router{shards: uint32(shards), key: key}, nil
}

// Shards returns the number of groups routed over.
func (r *Router) Shards() int { return int(r.shards) }

// FNV-1a constants (hash/fnv's 32-bit variant, inlined so the per-Invoke
// routing decision is allocation-free).
const (
	fnvOffset32 = 2166136261
	fnvPrime32  = 16777619
)

// Route returns the ordering group that owns cmd's key: FNV-1a of the key,
// modulo the group count.
func (r *Router) Route(cmd []byte) proto.GroupID {
	h := uint32(fnvOffset32)
	for _, b := range r.key(cmd) {
		h ^= uint32(b)
		h *= fnvPrime32
	}
	return proto.GroupID(h % r.shards)
}

// Invoker is the per-group client surface the shard client fans out to
// (satisfied by *backend.Client and by the cluster package's measured clients).
type Invoker interface {
	Invoke(ctx context.Context, cmd []byte) (proto.Reply, error)
	Stop()
}

// Client is a sharded client: one backend per ordering group, each Invoke
// routed to the group owning the command's key. It is safe for concurrent
// use iff its backends are (backend.Client is).
type Client struct {
	router *Router
	groups []Invoker
	routed []atomic.Uint64
}

// NewClient builds a sharded client. groups[g] serves proto.GroupID(g); the
// slice length must match the router's shard count.
func NewClient(router *Router, groups []Invoker) (*Client, error) {
	if router == nil {
		return nil, fmt.Errorf("shard: router is required")
	}
	if len(groups) != router.Shards() {
		return nil, fmt.Errorf("shard: %d group clients for %d shards", len(groups), router.Shards())
	}
	for g, cli := range groups {
		if cli == nil {
			return nil, fmt.Errorf("shard: group %d client is nil", g)
		}
	}
	return &Client{router: router, groups: groups, routed: make([]atomic.Uint64, len(groups))}, nil
}

// Route exposes the routing decision (for tests and load generators).
func (c *Client) Route(cmd []byte) proto.GroupID { return c.router.Route(cmd) }

// Invoke submits cmd to the group owning its key and blocks until that
// group's client adopts a reply.
func (c *Client) Invoke(ctx context.Context, cmd []byte) (proto.Reply, error) {
	g := c.router.Route(cmd)
	c.routed[g].Add(1)
	return c.groups[g].Invoke(ctx, cmd)
}

// readInvoker mirrors backend.ReadInvoker (redeclared here to keep this
// package below the backend seam, like Invoker above).
type readInvoker interface {
	InvokeRead(ctx context.Context, cmd []byte) (proto.Reply, error)
}

// InvokeRead submits a read-only cmd to the group owning its key on that
// group's read fast path. Groups whose client has no fast path serve the
// read as an ordinary Invoke — per-key consistency is identical either way,
// only the ordering cost differs.
func (c *Client) InvokeRead(ctx context.Context, cmd []byte) (proto.Reply, error) {
	g := c.router.Route(cmd)
	c.routed[g].Add(1)
	if ri, ok := c.groups[g].(readInvoker); ok {
		return ri.InvokeRead(ctx, cmd)
	}
	return c.groups[g].Invoke(ctx, cmd)
}

// Routed returns how many Invokes were routed to each group — the observed
// load split. Under a uniform key distribution the counts are near-equal;
// under a skewed one (e.g. a zipfian workload) the imbalance quantifies how
// much of the keyspace's heat one group absorbs. Counts include failed
// invocations: routing happened either way.
func (c *Client) Routed() []uint64 {
	out := make([]uint64, len(c.routed))
	for i := range c.routed {
		out[i] = c.routed[i].Load()
	}
	return out
}

// Stop shuts every per-group backend down.
func (c *Client) Stop() {
	for _, cli := range c.groups {
		cli.Stop()
	}
}
