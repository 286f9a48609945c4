// Package backend is the replica runtime and the client every ordering
// protocol runs on, and the seam between the protocols (OAR in internal/core,
// the two baselines in internal/baseline) and everything above them (the
// cluster, the shard router, the facade, the experiment suite).
//
// The paper defines a replication protocol by two rules: how replicas order,
// and which reply a client adopts. Those are what a protocol supplies — a
// Protocol for the Runtime, a WriteRule and a SubmitFunc for the Client.
// Everything else is written once, here: the replica event loop and its
// batched sends, the read fast path, durability and crash recovery, the
// counters (runtime.go, recovery.go); the client's sender and reply loops and
// its read rule (client.go, readrule.go).
//
// A protocol registers a Backend — a factory for Replicas and Invokers —
// under a name. Everything above this package speaks only these interfaces:
// the cluster boots N Replicas per ordering group over any transport, hands
// out Invokers (fanned out per group by internal/shard when the keyspace is
// sharded), and reads the one shared Stats counter set. The built-in
// protocols register themselves from their own packages ("oar", "fixedseq",
// "ctab"); tests register stubs; nothing above enumerates protocols.
package backend

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/app"
	"repro/internal/fd"
	"repro/internal/metrics"
	"repro/internal/proto"
	"repro/internal/transport"
)

// Defaults for replica event loops, shared by every backend.
const (
	// DefaultTickInterval drives batching flushes, suspicion sampling,
	// heartbeats and consensus timeouts.
	DefaultTickInterval = time.Millisecond
	// DefaultHeartbeatInterval is the gap between heartbeats to peers.
	DefaultHeartbeatInterval = 5 * time.Millisecond
)

// ReplicaConfig is the boot configuration of one replica, whatever the
// protocol: the one place a replica option is declared. Runtime.Init
// validates it and applies the defaults; protocols ignore the knobs they
// have no use for (the baselines have no epoch limit).
type ReplicaConfig struct {
	// ID is this replica's rank; Group is Π (must contain ID; |Π| ≤ 64).
	ID    proto.NodeID
	Group []proto.NodeID
	// GroupID is the ordering group (shard) this replica serves. All outgoing
	// traffic is tagged with it; inbound traffic tagged with a foreign group
	// is dropped before the body is decoded.
	GroupID proto.GroupID
	// Node is the transport endpoint.
	Node transport.Node
	// Machine is the deterministic replicated state machine.
	Machine app.Machine
	// Detector drives failure suspicion (sequencer fail-over, consensus
	// coordinator rotation).
	Detector fd.Detector
	// TickInterval drives suspicion sampling, heartbeats and consensus
	// timeouts (default DefaultTickInterval). HeartbeatInterval is the gap
	// between heartbeats to peers (default DefaultHeartbeatInterval;
	// negative disables them, e.g. with an Oracle detector).
	TickInterval      time.Duration
	HeartbeatInterval time.Duration
	// EpochRequestLimit, when positive, makes the OAR sequencer R-broadcast a
	// PhaseII after that many optimistic deliveries in one epoch — the
	// garbage collection of the Remark in Section 5.3 (OAR only).
	EpochRequestLimit int
	// Unbatched disables the batching layer entirely in every protocol —
	// per-message sends, one message per round, one ordering round per
	// request — which is the control in experiment E8. The default is
	// adaptive batching with no added latency: each event-loop round first
	// drains the inbox backlog, then orders everything that arrived in one
	// SeqOrder and ships the round's sends as one envelope per destination,
	// so batches form exactly when there is load.
	Unbatched bool
	// WALDir enables the write-ahead log of a protocol that journals (OAR):
	// definitive deliveries and epoch markers are persisted there and
	// replayed on the next boot. Empty disables durability (the replica
	// still serves peer catch-up from its in-memory history). The log is
	// synced once per protocol boundary (OAR: per closed epoch), before the
	// conservative replies ship, so every fully-acked command is on disk.
	WALDir string
	// SnapshotEvery takes a state snapshot every that many closed epochs
	// (0 = DefaultSnapshotEvery, negative = never). Snapshots are taken at
	// protocol boundaries — nothing optimistic is applied there, so the
	// image is a pure definitive prefix — and bound both the WAL on disk and
	// the in-memory catch-up tail.
	SnapshotEvery int
	// Recovering marks a replica booting after a crash: after replaying its
	// local snapshot+WAL it defers protocol traffic, refuses fast-path reads
	// and probes its peers until it has adopted a peer's boundary state,
	// instead of joining the protocol at epoch 0.
	Recovering bool
	// Incarnation counts this replica's boots (0 for the first). Restarted
	// replicas need it to claim a fresh reliable-multicast sequence range:
	// peers deduplicate multicasts by (origin, seq) forever, so reusing the
	// previous incarnation's numbers would get the new ones dropped.
	Incarnation uint64
	// Tracer observes protocol events (nil disables tracing).
	Tracer Tracer
}

// InvokerConfig is the protocol-independent boot configuration of one
// client endpoint attached to a single ordering group.
type InvokerConfig struct {
	// ID is the client's node ID (proto.ClientID(i)); Group is Π.
	ID    proto.NodeID
	Group []proto.NodeID
	// GroupID is the ordering group this invoker talks to.
	GroupID proto.GroupID
	// Node is the client's transport endpoint.
	Node transport.Node
	// Tracer observes Issue/Adopt events (nil disables tracing).
	Tracer Tracer
	// Unbatched disables the client-side send-coalescing layer.
	Unbatched bool
	// FirstSeq numbers the invoker's first request. Replicas filter request
	// ids at most once for ever, so a client that reuses an earlier
	// instance's ID must start from a range that instance did not use.
	FirstSeq uint64
}

// Replica is one running replica of an ordering protocol: an event loop the
// cluster owns a goroutine for, plus the shared observation surface. A
// protocol that embeds Runtime is one.
type Replica interface {
	// Run executes the replica event loop until ctx ends or the transport
	// closes (crash injection).
	Run(ctx context.Context) error
	// Stats returns a snapshot of the replica's protocol counters.
	Stats() Stats
	// Position returns where the replica stood at the end of its last
	// event-loop round. Safe to call concurrently with Run.
	Position() Position
}

// Invoker is the client surface of every protocol (and of the sharded
// fan-out client): submit a command, block until the protocol's adoption
// rule accepts a reply. Implementations must be safe for concurrent Invokes.
type Invoker interface {
	Invoke(ctx context.Context, cmd []byte) (proto.Reply, error)
	Stop()
}

// ReadInvoker is the optional read fast path of an Invoker: submit a
// read-only command and block until the protocol's read adoption rule
// accepts a reply served without a position in the definitive order.
// Implementations must fall back to the ordered path themselves when the
// fast path cannot answer, so InvokeRead is always safe to call for a
// read-only command; callers that find the interface absent route reads
// through Invoke unchanged.
type ReadInvoker interface {
	InvokeRead(ctx context.Context, cmd []byte) (proto.Reply, error)
}

// Backend builds the two halves of one replication protocol. NewInvoker
// returns a started Invoker (ready for Invoke; released with Stop).
type Backend interface {
	// Name is the registry key ("oar", "fixedseq", ...).
	Name() string
	// NewReplica validates cfg and creates one replica (not yet running).
	NewReplica(cfg ReplicaConfig) (Replica, error)
	// NewInvoker validates cfg and creates a started client endpoint.
	NewInvoker(cfg InvokerConfig) (Invoker, error)
}

// Stats is the replica counter set of every protocol, produced by
// Runtime.Stats; counters a protocol has no use for stay zero.
type Stats struct {
	// Delivered counts standing command deliveries: optimistic plus
	// irrevocable deliveries, rollbacks deducted.
	Delivered uint64
	// OptDelivered / OptUndelivered / ADelivered / Epochs are the OAR phase
	// counters (Figure 6 lines 17, 26, 28; completed phase-2 rounds). The
	// baselines' deliveries are all irrevocable: they count as ADelivered.
	OptDelivered   uint64
	OptUndelivered uint64
	ADelivered     uint64
	Epochs         uint64
	// SeqOrdersSent counts sequencer ordering messages (OAR and fixedseq).
	SeqOrdersSent uint64
	// ForeignDropped counts inbound messages dropped for a foreign GroupID.
	ForeignDropped uint64
	// ReadsServed counts read-only requests answered on the read fast path —
	// inline from a replica's optimistic prefix, with zero ordering messages.
	// ReadFallbacks counts reads a replica pushed onto the ordered path
	// instead (the machine's Query refused the command: the machine has no
	// read-only subset, or the command was not a well-formed read).
	ReadsServed   uint64
	ReadFallbacks uint64
	// ReadReissues counts fast-path reads a client gave up on — every replica
	// had answered and no majority endorsed one prefix, or the fallback timer
	// fired — and re-issued as an ordered request under a fresh id. Counted by
	// the clients and attached at aggregation time like Latency: each costs
	// one ordering round that no replica can tell from a write.
	ReadReissues uint64
	// Views counts fixedseq sequencer fail-overs.
	Views uint64
	// Recoveries counts completed crash-recoveries (local replay + peer
	// catch-up, ending with the replica back in full standing).
	// CatchupServed counts catch-up probes this replica answered with state;
	// RecoveryRefusedReads counts fast-path reads refused (dropped) because
	// the replica had not caught up yet.
	Recoveries           uint64
	CatchupServed        uint64
	RecoveryRefusedReads uint64
	// Batches counts ctab's completed consensus instances.
	Batches uint64
	// BatchFrames counts frames the replica's send batcher shipped and
	// BatchedSends the protocol messages those frames carried, so
	// coalescing (messages per frame) is observable per replica.
	BatchFrames  uint64
	BatchedSends uint64
	// Latency is the client-observed end-to-end invocation latency of the
	// backend's clients, attached at aggregation time: replicas return it
	// nil (a replica never sees a client's response time), and the cluster
	// runtime fills it from the measured invokers it wraps around every
	// client (see Measure). Accumulate merges histograms exactly, so
	// per-shard latencies aggregate into system-wide percentiles.
	Latency *metrics.Histogram
	// ReadLatency is the client-observed latency of fast-path reads
	// (InvokeRead calls), split out from Latency so the read/write latency
	// gap is observable; attached at aggregation time like Latency.
	ReadLatency *metrics.Histogram
}

// Accumulate adds other's counters to s (used to aggregate replicas and
// shards). A non-nil other.Latency is merged into an accumulator-owned
// histogram — other's is never aliased or mutated.
func (s *Stats) Accumulate(other Stats) {
	s.Delivered += other.Delivered
	s.OptDelivered += other.OptDelivered
	s.OptUndelivered += other.OptUndelivered
	s.ADelivered += other.ADelivered
	s.Epochs += other.Epochs
	s.SeqOrdersSent += other.SeqOrdersSent
	s.ForeignDropped += other.ForeignDropped
	s.ReadsServed += other.ReadsServed
	s.ReadFallbacks += other.ReadFallbacks
	s.ReadReissues += other.ReadReissues
	s.Views += other.Views
	s.Recoveries += other.Recoveries
	s.CatchupServed += other.CatchupServed
	s.RecoveryRefusedReads += other.RecoveryRefusedReads
	s.Batches += other.Batches
	s.BatchFrames += other.BatchFrames
	s.BatchedSends += other.BatchedSends
	if other.Latency != nil {
		if s.Latency == nil {
			s.Latency = metrics.NewHistogram()
		}
		s.Latency.Merge(other.Latency)
	}
	if other.ReadLatency != nil {
		if s.ReadLatency == nil {
			s.ReadLatency = metrics.NewHistogram()
		}
		s.ReadLatency.Merge(other.ReadLatency)
	}
}

var (
	regMu    sync.RWMutex
	registry = make(map[string]Backend)
)

// Register makes a backend available under b.Name(). It panics on an empty
// name or a duplicate registration — both are programming errors, caught at
// init time like database/sql driver registration.
func Register(b Backend) {
	if b == nil || b.Name() == "" {
		panic("backend: Register with nil backend or empty name")
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[b.Name()]; dup {
		panic(fmt.Sprintf("backend: duplicate registration of %q", b.Name()))
	}
	registry[b.Name()] = b
}

// Lookup resolves a registered backend by name.
func Lookup(name string) (Backend, error) {
	regMu.RLock()
	defer regMu.RUnlock()
	b, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("backend: unknown backend %q (registered: %v)", name, namesLocked())
	}
	return b, nil
}

// Names lists the registered backends, sorted.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	return namesLocked()
}

func namesLocked() []string {
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
