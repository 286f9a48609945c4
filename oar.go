package oar

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/app"
	"repro/internal/backend"
	"repro/internal/cluster"
	"repro/internal/fd"
	"repro/internal/memnet"
	"repro/internal/metrics"
	"repro/internal/proto"
	"repro/internal/tcpnet"
)

// Reply is the outcome of a replicated invocation, as adopted by the client
// under the weight-quorum rule of the paper (Figure 5).
type Reply struct {
	// Result is the state machine's output for the command.
	Result []byte
	// Pos is the position at which the command was processed in the total
	// order — identical at every correct replica.
	Pos uint64
	// Epoch is the protocol epoch that served the request.
	Epoch uint64
	// Endorsers is the number of replicas known to endorse this reply at
	// adoption time (|W| of the paper; n for conservatively delivered
	// requests).
	Endorsers int
}

func toReply(r proto.Reply) Reply {
	return Reply{
		Result:    r.Result,
		Pos:       r.Pos,
		Epoch:     r.Epoch,
		Endorsers: r.Weight.Count(),
	}
}

// Client invokes commands on a replicated service.
type Client struct {
	inner cluster.Invoker
}

// Invoke submits a command and blocks until a consistent reply is adopted
// or ctx ends.
func (c *Client) Invoke(ctx context.Context, cmd []byte) (Reply, error) {
	r, err := c.inner.Invoke(ctx, cmd)
	if err != nil {
		return Reply{}, err
	}
	return toReply(r), nil
}

// InvokeRead submits a read-only command on the read fast path: replicas
// answer inline from their optimistic prefix (zero ordering messages) and
// the reply is adopted only once a majority of the group has answered at a
// compatible prefix, so the read is consistent with the definitive order,
// monotonic, and read-your-writes for this client. Commands that are not
// well-formed reads of the selected machine — and machines without a
// read-only surface — transparently fall back to the ordered path.
func (c *Client) InvokeRead(ctx context.Context, cmd []byte) (Reply, error) {
	ri, ok := c.inner.(backend.ReadInvoker)
	if !ok {
		return c.Invoke(ctx, cmd)
	}
	r, err := ri.InvokeRead(ctx, cmd)
	if err != nil {
		return Reply{}, err
	}
	return toReply(r), nil
}

// Close shuts the client down.
func (c *Client) Close() { c.inner.Stop() }

// Machines lists the built-in replicated state machines.
func Machines() []string { return app.Names() }

// ClusterOptions configures an in-process cluster.
type ClusterOptions struct {
	// Replicas is the group size n (1..64). At most ⌊(n-1)/2⌋ crash
	// failures are tolerated — per ordering group.
	Replicas int
	// Protocol names the ordering backend the cluster runs (default "oar",
	// the paper's optimistic active replication). The baselines ("fixedseq",
	// "ctab") and any backend registered with internal/backend are valid;
	// every option below that the protocol understands applies unchanged,
	// including Shards.
	Protocol string
	// Shards is the number of independent ordering groups the keyspace is
	// partitioned over (default 1). Each shard is a complete Replicas-sized
	// OAR group; clients returned by NewClient route every command to the
	// group owning its key (hash of the command's key token), so total
	// ordering — and therefore throughput — scales out per key subspace
	// while each subspace keeps the paper's full guarantees.
	Shards int
	// Machine names the replicated state machine (see Machines); default
	// "kv".
	Machine string
	// SuspicionTimeout is the ◊S heartbeat timeout (default 25ms). Lower
	// values give faster fail-over and more false suspicions — the paper's
	// central trade-off; false suspicions cost performance, never
	// consistency.
	SuspicionTimeout time.Duration
	// NetworkDelay adds a simulated one-way latency to every message
	// (default 0: in-memory speed).
	NetworkDelay time.Duration
	// EpochRequestLimit bounds the optimistic epoch length (Section 5.3
	// Remark); 0 disables periodic garbage collection.
	EpochRequestLimit int
	// WALRoot, when non-empty, gives every replica a write-ahead log under
	// that directory (one subdirectory per shard and replica): definitive
	// deliveries and epoch boundaries are fsynced per closed epoch and
	// replayed — snapshot first, then the log tail — when a crashed replica
	// is restarted, before it catches up from peers and re-enters ordering.
	// Empty disables durability (crashed replicas stay down).
	WALRoot string
	// SnapshotEvery takes a state-machine snapshot every that many closed
	// epochs (0 = a protocol default, negative = never). Snapshots bound
	// both the on-disk log and the catch-up tail.
	SnapshotEvery int
}

// Cluster is an in-process replica group, for embedding a replicated
// service in one binary or for testing.
type Cluster struct {
	inner *cluster.Cluster
}

// NewCluster boots an in-process OAR cluster.
func NewCluster(opts ClusterOptions) (*Cluster, error) {
	if opts.Replicas <= 0 {
		return nil, fmt.Errorf("oar: Replicas must be positive")
	}
	if opts.Machine == "" {
		opts.Machine = "kv"
	}
	inner, err := cluster.New(cluster.Options{
		Protocol:          cluster.Protocol(opts.Protocol),
		N:                 opts.Replicas,
		Shards:            opts.Shards,
		Machine:           opts.Machine,
		FDTimeout:         opts.SuspicionTimeout,
		EpochRequestLimit: opts.EpochRequestLimit,
		WALRoot:           opts.WALRoot,
		SnapshotEvery:     opts.SnapshotEvery,
		Net: memnet.Options{
			MinDelay: opts.NetworkDelay,
			MaxDelay: opts.NetworkDelay,
		},
	})
	if err != nil {
		return nil, err
	}
	return &Cluster{inner: inner}, nil
}

// NewClient attaches a new client to the cluster. With Shards > 1 the
// client routes each command to the ordering group owning its key.
func (c *Cluster) NewClient() (*Client, error) {
	cli, err := c.inner.NewClient()
	if err != nil {
		return nil, err
	}
	return &Client{inner: cli}, nil
}

// Shards returns the number of independent ordering groups.
func (c *Cluster) Shards() int { return c.inner.Shards() }

// CrashReplica fault-injects a crash of shard 0's replica i (for testing
// fail-over). With Shards > 1 use CrashShardReplica to target any group.
func (c *Cluster) CrashReplica(i int) { c.inner.Crash(0, i) }

// CrashShardReplica fault-injects a crash of shard s's replica i. The other
// ordering groups neither see the crash nor depend on the crashed replica.
func (c *Cluster) CrashShardReplica(s, i int) { c.inner.Crash(s, i) }

// LatencyStats summarizes client-observed end-to-end response times —
// submit to adopted reply, the quantity the paper's optimistic delivery
// exists to cut. Quantiles carry the underlying histogram's ~4% log-bucket
// resolution; Count is the number of successful invocations measured.
type LatencyStats struct {
	// Count is the number of measured (successful) invocations.
	Count uint64
	// Mean is the average response time.
	Mean time.Duration
	// P50, P90 and P99 are response-time percentiles.
	P50 time.Duration
	P90 time.Duration
	P99 time.Duration
	// Min and Max are the observed extremes.
	Min time.Duration
	Max time.Duration
}

func toLatencyStats(s metrics.Snapshot) LatencyStats {
	return LatencyStats{
		Count: s.Count,
		Mean:  s.Mean,
		P50:   s.P50,
		P90:   s.P90,
		P99:   s.P99,
		Min:   s.Min,
		Max:   s.Max,
	}
}

// Stats summarizes protocol activity across all replicas of all shards.
type Stats struct {
	// Delivered counts definitive command deliveries, whatever the
	// protocol (for OAR, rollbacks are already deducted).
	Delivered uint64
	// OptDelivered counts optimistic deliveries (the fast path; OAR only).
	OptDelivered uint64
	// OptUndelivered counts rolled-back deliveries.
	OptUndelivered uint64
	// ADelivered counts conservative (consensus-ordered) deliveries.
	ADelivered uint64
	// Epochs counts completed conservative phases.
	Epochs uint64
	// SeqOrdersSent counts sequencer ordering messages; under batching one
	// ordering message carries many requests.
	SeqOrdersSent uint64
	// FramesSent counts transport frames on the in-memory networks; the
	// batching layer's whole point is keeping this below the logical
	// message count.
	FramesSent uint64
	// BatchedMessages counts the kind-tagged messages carried inside
	// proto.Batch envelopes (the coalesced share of the traffic).
	BatchedMessages uint64
	// BatchFrames counts the frames the replicas' send batchers shipped and
	// BatchedSends the protocol messages those frames carried — their ratio
	// is the server-side coalescing factor (messages per frame).
	BatchFrames  uint64
	BatchedSends uint64
	// ReadsServed counts read-only requests answered on the read fast path
	// (inline from a replica's prefix, zero ordering messages);
	// ReadFallbacks counts reads the replicas pushed onto the ordered path.
	ReadsServed   uint64
	ReadFallbacks uint64
	// Latency summarizes the response times of every invocation made through
	// the cluster's clients, aggregated over all shards. Every client the
	// cluster hands out is measured unconditionally (recording is one
	// lock-free histogram increment), so p50/p99 are always available — no
	// instrumentation opt-in.
	Latency LatencyStats
	// ReadLatency summarizes the response times of fast-path reads
	// (InvokeRead calls), split out from Latency so the read/write gap is
	// directly observable.
	ReadLatency LatencyStats
}

// Stats returns cluster-wide protocol counters, aggregated over all shards.
func (c *Cluster) Stats() Stats {
	s := c.inner.TotalStats()
	n := c.inner.NetTotal()
	return Stats{
		Delivered:       s.Delivered,
		OptDelivered:    s.OptDelivered,
		OptUndelivered:  s.OptUndelivered,
		ADelivered:      s.ADelivered,
		Epochs:          s.Epochs,
		SeqOrdersSent:   s.SeqOrdersSent,
		FramesSent:      n.MessagesSent,
		BatchedMessages: n.BatchedMessages,
		BatchFrames:     s.BatchFrames,
		BatchedSends:    s.BatchedSends,
		ReadsServed:     s.ReadsServed,
		ReadFallbacks:   s.ReadFallbacks,
		Latency:         toLatencyStats(c.inner.Latency()),
		ReadLatency:     toLatencyStats(c.inner.ReadLatency()),
	}
}

// ShardLatency summarizes the response times of requests served by ordering
// group s — the per-group view of Stats.Latency, useful for spotting load
// skew under non-uniform key distributions.
func (c *Cluster) ShardLatency(s int) LatencyStats {
	return toLatencyStats(c.inner.ShardLatency(s))
}

// Close stops all replicas and clients.
func (c *Cluster) Close() { c.inner.Stop() }

// ServerOptions configures one TCP replica process.
type ServerOptions struct {
	// Rank is this replica's index in Peers (0-based).
	Rank int
	// Peers lists the listen addresses of ALL replicas, in rank order.
	Peers []string
	// Listen is the local bind address; defaults to Peers[Rank].
	Listen string
	// Machine names the replicated state machine (default "kv").
	Machine string
	// GroupID is the ordering group this replica serves (default 0). Several
	// groups can be deployed side by side — each group's replicas list only
	// their own group's Peers — and clients of one group are ignored by the
	// others even if misconfigured to reach them.
	GroupID int
	// SuspicionTimeout is the ◊S heartbeat timeout (default 100ms — WAN-ish
	// safety margin; tune down on a LAN).
	SuspicionTimeout time.Duration
	// EpochRequestLimit as in ClusterOptions.
	EpochRequestLimit int
	// WALDir, when non-empty, makes the replica durable: definitive
	// deliveries and epoch boundaries are written to a segmented,
	// CRC-checked write-ahead log there, fsynced once per closed epoch. A
	// boot counter persisted in the same directory detects restarts: a
	// rebooted replica replays its latest snapshot plus the log tail,
	// catches the remainder up from its peers, and only then re-enters
	// ordering. Empty disables durability.
	WALDir string
	// SnapshotEvery as in ClusterOptions (only meaningful with WALDir).
	SnapshotEvery int
	// StatsAddr, when non-empty, serves this replica's counters as JSON
	// over HTTP at GET /stats on that address (see ServerReport) — the hook
	// load generators use to report server-observed coalescing.
	StatsAddr string
}

// ServerReport is the JSON document a replica's stats endpoint serves:
// protocol counters, the send batcher's coalescing counters, and the wire
// traffic the TCP endpoint moved.
type ServerReport struct {
	// Delivered counts definitive command deliveries (rollbacks deducted).
	Delivered uint64 `json:"delivered"`
	// OptDelivered / OptUndelivered / ADelivered / Epochs are the OAR phase
	// counters.
	OptDelivered   uint64 `json:"opt_delivered"`
	OptUndelivered uint64 `json:"opt_undelivered"`
	ADelivered     uint64 `json:"a_delivered"`
	Epochs         uint64 `json:"epochs"`
	// SeqOrdersSent counts sequencer ordering messages.
	SeqOrdersSent uint64 `json:"seq_orders_sent"`
	// BatchFrames counts frames the send batcher shipped; BatchedSends the
	// protocol messages they carried (their ratio is messages per frame).
	BatchFrames  uint64 `json:"batch_frames"`
	BatchedSends uint64 `json:"batched_sends"`
	// ReadsServed counts reads answered on the fast path (zero ordering
	// messages); ReadFallbacks counts reads pushed onto the ordered path.
	ReadsServed   uint64 `json:"reads_served"`
	ReadFallbacks uint64 `json:"read_fallbacks"`
	// FramesSent/FramesReceived/BytesSent/BytesReceived are the TCP
	// endpoint's wire counters.
	FramesSent     uint64 `json:"frames_sent"`
	FramesReceived uint64 `json:"frames_received"`
	BytesSent      uint64 `json:"bytes_sent"`
	BytesReceived  uint64 `json:"bytes_received"`
}

// ListenAndServe runs one OAR replica over TCP until ctx is cancelled.
func ListenAndServe(ctx context.Context, opts ServerOptions) error {
	n := len(opts.Peers)
	if n == 0 || opts.Rank < 0 || opts.Rank >= n {
		return fmt.Errorf("oar: rank %d out of range for %d peers", opts.Rank, n)
	}
	if opts.Machine == "" {
		opts.Machine = "kv"
	}
	if opts.SuspicionTimeout <= 0 {
		opts.SuspicionTimeout = 100 * time.Millisecond
	}
	listen := opts.Listen
	if listen == "" {
		listen = opts.Peers[opts.Rank]
	}
	group := proto.Group(n)
	peers := make(map[proto.NodeID]string, n)
	for i, addr := range opts.Peers {
		if i != opts.Rank {
			peers[group[i]] = addr
		}
	}
	node, err := tcpnet.New(tcpnet.Config{
		ID:        group[opts.Rank],
		Listen:    listen,
		Peers:     peers,
		Advertise: opts.Peers[opts.Rank],
	})
	if err != nil {
		return err
	}
	defer node.Close()

	machine, err := app.New(opts.Machine)
	if err != nil {
		return err
	}
	var incarnation uint64
	if opts.WALDir != "" {
		if incarnation, err = nextIncarnation(opts.WALDir); err != nil {
			return fmt.Errorf("oar: wal dir: %w", err)
		}
	}
	be, err := backend.Lookup(cluster.OAR.String())
	if err != nil {
		return err
	}
	srv, err := be.NewReplica(backend.ReplicaConfig{
		ID:                group[opts.Rank],
		Group:             group,
		GroupID:           proto.GroupID(opts.GroupID), //nolint:gosec // operator-supplied small int
		Node:              node,
		Machine:           machine,
		Detector:          fd.NewTimeout(opts.SuspicionTimeout, group, time.Now()),
		HeartbeatInterval: opts.SuspicionTimeout / 4,
		EpochRequestLimit: opts.EpochRequestLimit,
		WALDir:            opts.WALDir,
		SnapshotEvery:     opts.SnapshotEvery,
		Incarnation:       incarnation,
		Recovering:        incarnation > 0,
	})
	if err != nil {
		return err
	}
	if opts.StatsAddr != "" {
		ln, err := net.Listen("tcp", opts.StatsAddr)
		if err != nil {
			return fmt.Errorf("oar: stats listener: %w", err)
		}
		mux := http.NewServeMux()
		mux.HandleFunc("/stats", func(w http.ResponseWriter, _ *http.Request) {
			s := srv.Stats()
			ns := node.Stats()
			w.Header().Set("Content-Type", "application/json")
			_ = json.NewEncoder(w).Encode(ServerReport{
				Delivered:      s.Delivered,
				OptDelivered:   s.OptDelivered,
				OptUndelivered: s.OptUndelivered,
				ADelivered:     s.ADelivered,
				Epochs:         s.Epochs,
				SeqOrdersSent:  s.SeqOrdersSent,
				BatchFrames:    s.BatchFrames,
				BatchedSends:   s.BatchedSends,
				ReadsServed:    s.ReadsServed,
				ReadFallbacks:  s.ReadFallbacks,
				FramesSent:     ns.FramesSent,
				FramesReceived: ns.FramesReceived,
				BytesSent:      ns.BytesSent,
				BytesReceived:  ns.BytesReceived,
			})
		})
		statsSrv := &http.Server{Handler: mux}
		go func() { _ = statsSrv.Serve(ln) }()
		defer statsSrv.Close()
	}
	err = srv.Run(ctx)
	if err == context.Canceled {
		return nil
	}
	return err
}

// nextIncarnation reads, bumps and persists the boot counter of a WAL
// directory (the BOOT file). The first boot of a fresh directory is
// incarnation 0 — a normal cold start; every later boot is a restart, which
// makes the server recover (local replay, then peer catch-up) before it
// re-enters ordering. The write is atomic and durable (tmp + fsync + rename +
// directory fsync, as wal.SaveSnapshot does), so neither a crash nor a power
// loss during boot can leave a torn counter or undo the bump: a repeated
// incarnation would reuse the previous boot's reliable-multicast sequence
// range, which peers deduplicate for ever.
func nextIncarnation(dir string) (uint64, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	path := filepath.Join(dir, "BOOT")
	var inc uint64
	switch b, err := os.ReadFile(path); {
	case err == nil:
		prev, perr := strconv.ParseUint(strings.TrimSpace(string(b)), 10, 64)
		if perr != nil {
			return 0, fmt.Errorf("corrupt boot counter %q: %w", path, perr)
		}
		inc = prev + 1
	case errors.Is(err, os.ErrNotExist):
		inc = 0
	default:
		return 0, err
	}
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return 0, err
	}
	_, err = f.WriteString(strconv.FormatUint(inc, 10) + "\n")
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return 0, err
	}
	if err := os.Rename(tmp, path); err != nil {
		return 0, err
	}
	d, err := os.Open(dir)
	if err != nil {
		return 0, err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return 0, err
	}
	return inc, nil
}

// ClientOptions configures a TCP client.
type ClientOptions struct {
	// Servers lists the replicas' addresses in rank order.
	Servers []string
	// Listen is the local address for receiving replies (default
	// "127.0.0.1:0"; servers learn it from the connection handshake).
	Listen string
	// ClientIndex distinguishes concurrent client processes (default 0).
	// Two live clients must not share an index.
	ClientIndex int
	// GroupID is the ordering group the listed Servers belong to (default
	// 0). It must match the servers' GroupID.
	GroupID int
}

// TCPClient is a client talking to a TCP-deployed cluster. It is safe for
// concurrent use; every successful Invoke's response time is recorded (see
// Stats).
type TCPClient struct {
	node     *tcpnet.Node
	inner    Client // measured: records into hist and readHist
	hist     *metrics.Histogram
	readHist *metrics.Histogram
}

// NewTCPClient connects a client to a TCP cluster.
func NewTCPClient(opts ClientOptions) (*TCPClient, error) {
	if len(opts.Servers) == 0 {
		return nil, fmt.Errorf("oar: no servers given")
	}
	if opts.Listen == "" {
		opts.Listen = "127.0.0.1:0"
	}
	group := proto.Group(len(opts.Servers))
	id := proto.ClientID(opts.ClientIndex)
	peers := make(map[proto.NodeID]string, len(opts.Servers))
	for i, addr := range opts.Servers {
		peers[group[i]] = addr
	}
	be, err := backend.Lookup(cluster.OAR.String())
	if err != nil {
		return nil, err
	}
	node, err := tcpnet.New(tcpnet.Config{ID: id, Listen: opts.Listen, Peers: peers})
	if err != nil {
		return nil, err
	}
	inv, err := be.NewInvoker(backend.InvokerConfig{
		ID:      id,
		Group:   group,
		GroupID: proto.GroupID(opts.GroupID), //nolint:gosec // operator-supplied small int
		Node:    node,
		// A later client with the same index — a new process, or a new
		// client in this one — must not reuse this one's request ids: the
		// servers would drop them as already delivered. A fresh nonce in the
		// high 32 bits gives each instance its own range.
		FirstSeq: uint64(rand.Uint32()) << 32,
	})
	if err != nil {
		node.Close()
		return nil, err
	}
	c := &TCPClient{node: node, hist: metrics.NewHistogram(), readHist: metrics.NewHistogram()}
	c.inner = Client{inner: backend.Measure(inv, c.hist, c.readHist)}
	return c, nil
}

// Invoke submits a command and blocks until a consistent reply is adopted.
// Successful invocations record their end-to-end response time (submit to
// adopted reply) into the client's latency histogram.
func (c *TCPClient) Invoke(ctx context.Context, cmd []byte) (Reply, error) {
	return c.inner.Invoke(ctx, cmd)
}

// InvokeRead submits a read-only command on the read fast path (see
// Client.InvokeRead). Successful reads record into the client's read-latency
// histogram, split out from writes.
func (c *TCPClient) InvokeRead(ctx context.Context, cmd []byte) (Reply, error) {
	return c.inner.InvokeRead(ctx, cmd)
}

// TCPStats is the observability surface of one TCP client: response-time
// percentiles plus the wire traffic its connection endpoints actually moved.
type TCPStats struct {
	// Latency summarizes this client's successful invocations (writes and
	// ordered-path reads); ReadLatency its successful fast-path reads.
	Latency     LatencyStats
	ReadLatency LatencyStats
	// FramesSent/FramesReceived count whole transport frames (a frame may be
	// a batch envelope carrying several protocol messages); BytesSent/
	// BytesReceived count their payload bytes.
	FramesSent     uint64
	FramesReceived uint64
	BytesSent      uint64
	BytesReceived  uint64
}

// Stats returns the client's latency and wire-traffic counters. Useful for
// cross-checking a load generator's percentiles against what this client
// observed (cmd/oar-loadgen prints both).
func (c *TCPClient) Stats() TCPStats {
	n := c.node.Stats()
	return TCPStats{
		Latency:        toLatencyStats(c.hist.Snapshot()),
		ReadLatency:    toLatencyStats(c.readHist.Snapshot()),
		FramesSent:     n.FramesSent,
		FramesReceived: n.FramesReceived,
		BytesSent:      n.BytesSent,
		BytesReceived:  n.BytesReceived,
	}
}

// Close shuts the client down.
func (c *TCPClient) Close() {
	c.inner.Close()
	c.node.Close()
}
