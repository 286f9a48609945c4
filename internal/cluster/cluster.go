// Package cluster boots one or more replica groups of any registered
// ordering backend plus clients over in-memory networks and provides the
// fault-injection and observation hooks used by the integration tests,
// examples, the scenario runner (cmd/oar-sim) and the benchmark harness:
// crash a server, block links between groups, script oracle suspicions, poll
// protocol counters, and verify traces.
//
// The cluster is protocol-agnostic: Options.Protocol names a backend in the
// internal/backend registry ("oar", "fixedseq", "ctab", or anything a test
// registers) and every replica and client is built through that one
// interface — there is no protocol-specific code path here. It is also
// group-parameterized: Options.Shards runs that many independent ordering
// groups side by side (each with its own network, failure detectors and
// tracer) — for any backend — and NewClient returns a key-hash-routing
// client spanning all of them. Shards=1 — the default — is the paper's
// single-group system.
//
// Every accessor is group-qualified: Net(s), Machine(s, i), Oracle(s, i),
// Crash(s, i), Suspect(s, id) target ordering group s, so fault injection
// and observation reach any shard. Single-group callers pass 0.
package cluster

import (
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/app"
	"repro/internal/backend"
	"repro/internal/fd"
	"repro/internal/memnet"
	"repro/internal/metrics"
	"repro/internal/proto"
	"repro/internal/shard"

	// The built-in backends register themselves at init time.
	_ "repro/internal/baseline/ctab"
	_ "repro/internal/baseline/fixedseq"
	_ "repro/internal/core"
)

// Protocol names an ordering backend in the internal/backend registry.
type Protocol string

// The built-in protocols.
const (
	// OAR is the paper's optimistic active replication (internal/core).
	OAR Protocol = "oar"
	// FixedSeq is the Isis-style sequencer baseline (unsafe fail-over).
	FixedSeq Protocol = "fixedseq"
	// CTab is the conservative consensus-per-batch baseline.
	CTab Protocol = "ctab"
)

// String implements fmt.Stringer.
func (p Protocol) String() string { return string(p) }

// Invoker is the common client surface of every backend (and of the sharded
// fan-out client).
type Invoker = backend.Invoker

// FDMode selects how replicas detect failures.
type FDMode int

// Failure-detector modes.
const (
	// FDHeartbeat uses the heartbeat-timeout ◊S detector.
	FDHeartbeat FDMode = iota + 1
	// FDOracle gives every replica a scriptable oracle (tests drive
	// suspicions explicitly; heartbeats are disabled).
	FDOracle
	// FDNever never suspects anyone (pure failure-free benchmarking).
	FDNever
)

// Options configures a cluster.
type Options struct {
	// Protocol names the ordering backend (default OAR). Any backend in the
	// internal/backend registry is valid, including test-registered ones.
	Protocol Protocol
	// N is the number of replicas per ordering group (1..64).
	N int
	// Shards is the number of independent ordering groups (default 1). Each
	// shard is a complete N-replica group of the selected backend on its own
	// in-memory network; clients route commands by key hash.
	Shards int
	// Machine names the replicated state machine (see app.Names). Default
	// "recorder". Clients route a command by its key, as shard.MachineKey
	// extracts it for Machine.
	Machine string
	// Net configures each shard's in-memory network.
	Net memnet.Options
	// FD selects the failure detector (default FDHeartbeat).
	FD FDMode
	// FDTimeout is the heartbeat suspicion timeout (default 25ms).
	FDTimeout time.Duration
	// EpochRequestLimit forces a PhaseII after that many optimistic
	// deliveries per epoch (0 = off; OAR only); see the Section 5.3 Remark.
	EpochRequestLimit int
	// Unbatched disables the batching layer in every replica and client of
	// every backend (the E8 control); see backend.ReplicaConfig.
	Unbatched bool
	// HeartbeatInterval is the replicas' heartbeat gap (default from
	// backend).
	HeartbeatInterval time.Duration
	// Tracer observes all protocol events (e.g. a *check.Checker). With
	// Shards > 1 prefer TracerFor: each group has its own independent total
	// order, so one checker must never observe two groups.
	Tracer backend.Tracer
	// TracerFor, when non-nil, supplies the tracer for each shard and
	// overrides Tracer.
	TracerFor func(s int) backend.Tracer
	// WALRoot, when non-empty, gives every replica a write-ahead log under
	// <WALRoot>/s<shard>/r<i>; a replica restarted via Restart then replays
	// its own log before catching up from peers. Empty (the default) keeps
	// replicas in-memory — Restart still works, recovering purely over the
	// catch-up protocol.
	WALRoot string
	// SnapshotEvery is the replica snapshot cadence in closed epochs
	// (0 = backend default, negative disables).
	SnapshotEvery int
}

// lockedMachine makes an app.Machine safe for the cluster's cross-goroutine
// observation (the server loop applies; tests poll Fingerprint).
type lockedMachine struct {
	mu    sync.Mutex
	inner app.Machine
}

var _ app.Machine = (*lockedMachine)(nil)

func (m *lockedMachine) Apply(cmd []byte) ([]byte, func()) {
	m.mu.Lock()
	defer m.mu.Unlock()
	result, undo := m.inner.Apply(cmd)
	return result, func() {
		m.mu.Lock()
		defer m.mu.Unlock()
		undo()
	}
}

func (m *lockedMachine) Fingerprint() string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.inner.Fingerprint()
}

func (m *lockedMachine) Query(cmd []byte) ([]byte, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.inner.Query(cmd)
}

func (m *lockedMachine) Snapshot() ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.inner.Snapshot()
}

func (m *lockedMachine) Restore(data []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.inner.Restore(data)
}

// shardGroup is the runtime of one ordering group: its network, replicas,
// machines and scripted detectors. Replicas are backend.Replicas — the
// cluster neither knows nor cares which protocol is behind them.
type shardGroup struct {
	id     proto.GroupID
	net    *memnet.Network
	tracer backend.Tracer
	// mu guards the per-replica slots below: Restart replaces a slot's
	// replica, machine and oracle while observers (stats pollers, fault
	// injectors) read them concurrently.
	mu       sync.RWMutex
	replicas []backend.Replica
	oracles  []*fd.Oracle // non-nil in FDOracle mode
	mach     []app.Machine
	// done[i] closes when replica i's event loop has exited. Restart waits
	// on it: the old loop may still drain queued frames (and append to the
	// WAL) after the crash, and the new incarnation must not share the WAL
	// directory with it.
	done []chan struct{}
	// latency collects client-observed response times for this group: every
	// invoker NewClient hands out is wrapped in backend.Measure recording
	// here, so per-group and cluster-wide percentiles are always available.
	// readLatency splits out fast-path reads (InvokeRead) so the read/write
	// latency gap is observable.
	latency     *metrics.Histogram
	readLatency *metrics.Histogram
	// reissues are the group's client endpoints that count the fast-path
	// reads they re-issued as ordered requests (guarded by mu).
	reissues []reissueCounter
}

// reissueCounter is the part of backend.Client the group's stats need.
type reissueCounter interface{ ReadReissues() uint64 }

// Cluster is a running set of replica groups of one ordering backend.
type Cluster struct {
	opts   Options
	be     backend.Backend
	group  []proto.NodeID
	shards []*shardGroup
	router *shard.Router

	ctx     context.Context // run context; Restart boots new replicas into it
	cancel  context.CancelFunc
	wg      sync.WaitGroup
	clients []Invoker
	nextCli int
	mu      sync.Mutex
}

// New builds and starts a cluster.
func New(opts Options) (*Cluster, error) {
	if opts.N <= 0 || opts.N > proto.MaxGroupSize {
		return nil, fmt.Errorf("cluster: N=%d out of range", opts.N)
	}
	if opts.Shards == 0 {
		opts.Shards = 1
	}
	if opts.Shards < 0 {
		return nil, fmt.Errorf("cluster: Shards=%d out of range", opts.Shards)
	}
	if opts.Machine == "" {
		opts.Machine = "recorder"
	}
	if opts.Protocol == "" {
		opts.Protocol = OAR
	}
	be, err := backend.Lookup(string(opts.Protocol))
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	if opts.FD == 0 {
		opts.FD = FDHeartbeat
	}
	if opts.FDTimeout == 0 {
		opts.FDTimeout = 25 * time.Millisecond
	}
	router, err := shard.NewRouter(opts.Shards, shard.MachineKey(opts.Machine))
	if err != nil {
		return nil, err
	}

	c := &Cluster{
		opts:   opts,
		be:     be,
		group:  proto.Group(opts.N),
		router: router,
	}
	ctx, cancel := context.WithCancel(context.Background())
	c.ctx = ctx
	c.cancel = cancel

	for s := 0; s < opts.Shards; s++ {
		sg, err := c.bootShard(ctx, s)
		if err != nil {
			cancel()
			for _, prev := range c.shards {
				prev.net.Close()
			}
			return nil, err
		}
		c.shards = append(c.shards, sg)
	}
	return c, nil
}

// tracerFor resolves the tracer of shard s from the options.
func (c *Cluster) tracerFor(s int) backend.Tracer {
	if c.opts.TracerFor != nil {
		return c.opts.TracerFor(s)
	}
	return c.opts.Tracer
}

// bootShard builds and starts ordering group s.
func (c *Cluster) bootShard(ctx context.Context, s int) (*shardGroup, error) {
	opts := c.opts
	sg := &shardGroup{
		id:          proto.GroupID(s), //nolint:gosec // bounded by Options validation
		net:         memnet.New(opts.Net),
		tracer:      c.tracerFor(s),
		latency:     metrics.NewHistogram(),
		readLatency: metrics.NewHistogram(),
	}
	start := time.Now()
	for i := 0; i < opts.N; i++ {
		inner, err := app.New(opts.Machine)
		if err != nil {
			return nil, err
		}
		machine := &lockedMachine{inner: inner}
		sg.mach = append(sg.mach, machine)

		rep, oracle, done, err := c.buildReplica(ctx, sg, i, machine, false, 0, start)
		if err != nil {
			return nil, err
		}
		if opts.FD == FDOracle {
			sg.oracles = append(sg.oracles, oracle)
		}
		sg.replicas = append(sg.replicas, rep)
		sg.done = append(sg.done, done)
	}
	return sg, nil
}

// buildReplica constructs and starts one replica of shard sg on the current
// incarnation of its network endpoint. Shared between the initial boot and
// Restart (which passes recovering=true and the new incarnation number).
func (c *Cluster) buildReplica(ctx context.Context, sg *shardGroup, i int, machine app.Machine, recovering bool, incarnation uint64, start time.Time) (backend.Replica, *fd.Oracle, chan struct{}, error) {
	opts := c.opts
	var detector fd.Detector
	var oracle *fd.Oracle
	hbInterval := opts.HeartbeatInterval
	switch opts.FD {
	case FDHeartbeat:
		detector = fd.NewTimeout(opts.FDTimeout, c.group, start)
	case FDOracle:
		oracle = fd.NewOracle()
		detector = oracle
		hbInterval = -1 // oracles ignore heartbeats; skip the traffic
	case FDNever:
		detector = fd.Never{}
		hbInterval = -1
	default:
		return nil, nil, nil, fmt.Errorf("cluster: unknown FD mode %d", opts.FD)
	}

	walDir := ""
	if opts.WALRoot != "" {
		walDir = filepath.Join(opts.WALRoot, fmt.Sprintf("s%d", int(sg.id)), fmt.Sprintf("r%d", i))
	}

	rep, err := c.be.NewReplica(backend.ReplicaConfig{
		ID:                c.group[i],
		Group:             c.group,
		GroupID:           sg.id,
		Node:              sg.net.Node(c.group[i]),
		Machine:           machine,
		Detector:          detector,
		HeartbeatInterval: hbInterval,
		EpochRequestLimit: opts.EpochRequestLimit,
		Unbatched:         opts.Unbatched,
		Tracer:            sg.tracer,
		WALDir:            walDir,
		SnapshotEvery:     opts.SnapshotEvery,
		Recovering:        recovering,
		Incarnation:       incarnation,
	})
	if err != nil {
		return nil, nil, nil, err
	}

	done := make(chan struct{})
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		defer close(done)
		_ = rep.Run(ctx)
	}()
	return rep, oracle, done, nil
}

// Protocol returns the name of the ordering backend the cluster runs.
func (c *Cluster) Protocol() Protocol { return Protocol(c.be.Name()) }

// Shards returns the number of ordering groups.
func (c *Cluster) Shards() int { return len(c.shards) }

// Router returns the key→group router clients use.
func (c *Cluster) Router() *shard.Router { return c.router }

// Net exposes shard s's network for fault injection and stats.
func (c *Cluster) Net(s int) *memnet.Network { return c.shards[s].net }

// NetTotal aggregates the network counters of every shard.
func (c *Cluster) NetTotal() memnet.Stats {
	var total memnet.Stats
	for _, sg := range c.shards {
		total.Add(sg.net.Stats())
	}
	return total
}

// ResetNetStats zeroes every shard's network counters.
func (c *Cluster) ResetNetStats() {
	for _, sg := range c.shards {
		sg.net.ResetStats()
	}
}

// Group returns Π (identical in every shard).
func (c *Cluster) Group() []proto.NodeID { return c.group }

// Replica returns shard s's replica i (the current incarnation, if it has
// been restarted). Protocol-specific surfaces (e.g. the OAR server's
// Footprint) are reachable by asserting the returned value to the interface
// that declares them.
func (c *Cluster) Replica(s, i int) backend.Replica {
	sg := c.shards[s]
	sg.mu.RLock()
	defer sg.mu.RUnlock()
	return sg.replicas[i]
}

// ReplicaStats returns the protocol counters of shard s's replica i.
func (c *Cluster) ReplicaStats(s, i int) backend.Stats { return c.Replica(s, i).Stats() }

// Machine returns shard s's replica-i state machine (the current
// incarnation's). Only read it (Fingerprint) when the group is quiescent.
func (c *Cluster) Machine(s, i int) app.Machine {
	sg := c.shards[s]
	sg.mu.RLock()
	defer sg.mu.RUnlock()
	return sg.mach[i]
}

// Oracle returns shard s's replica-i scriptable failure detector (FDOracle
// mode).
func (c *Cluster) Oracle(s, i int) *fd.Oracle {
	sg := c.shards[s]
	sg.mu.RLock()
	defer sg.mu.RUnlock()
	return sg.oracles[i]
}

// SuspectEverywhere makes every live replica's oracle (in every shard)
// suspect id.
func (c *Cluster) SuspectEverywhere(id proto.NodeID) {
	for _, sg := range c.shards {
		sg.mu.RLock()
		for _, o := range sg.oracles {
			o.Suspect(id)
		}
		sg.mu.RUnlock()
	}
}

// TrustEverywhere clears suspicion of id at every replica's oracle.
func (c *Cluster) TrustEverywhere(id proto.NodeID) {
	for _, sg := range c.shards {
		sg.mu.RLock()
		for _, o := range sg.oracles {
			o.Trust(id)
		}
		sg.mu.RUnlock()
	}
}

// Suspect makes shard s's oracles suspect id, leaving other shards'
// detectors untouched (per-shard fault scripting).
func (c *Cluster) Suspect(s int, id proto.NodeID) {
	sg := c.shards[s]
	sg.mu.RLock()
	defer sg.mu.RUnlock()
	for _, o := range sg.oracles {
		o.Suspect(id)
	}
}

// Trust clears suspicion of id at shard s's oracles.
func (c *Cluster) Trust(s int, id proto.NodeID) {
	sg := c.shards[s]
	sg.mu.RLock()
	defer sg.mu.RUnlock()
	for _, o := range sg.oracles {
		o.Trust(id)
	}
}

// Crash kills shard s's replica i: its endpoint closes and its event loop
// exits. Other shards are untouched — their groups neither see the crash nor
// depend on the crashed replica.
func (c *Cluster) Crash(s, i int) {
	c.shards[s].net.Crash(c.group[i])
}

// Restart re-boots shard s's crashed replica i as a fresh process: a new
// incarnation of its endpoint on the shard's network, a fresh state machine,
// and a new replica instance. The replica recovers — replaying its WAL when
// the cluster has one (Options.WALRoot), then running the backend's peer
// catch-up protocol — before it re-enters ordering; until then it defers
// protocol traffic and refuses fast-path reads. It is an error to restart a
// replica that is not crashed.
func (c *Cluster) Restart(s, i int) error {
	sg := c.shards[s]
	id := c.group[i]
	if !sg.net.Crashed(id) {
		return fmt.Errorf("cluster: restart s%d/r%d: replica is not crashed", s, i)
	}
	// The crashed loop may still be draining frames that were queued before
	// the crash — and appending them to the WAL. Wait for it to exit before
	// the new incarnation opens the same WAL directory.
	sg.mu.RLock()
	oldDone := sg.done[i]
	sg.mu.RUnlock()
	<-oldDone
	incarnation := sg.net.Revive(id)
	inner, err := app.New(c.opts.Machine)
	if err != nil {
		return err
	}
	machine := &lockedMachine{inner: inner}
	rep, oracle, done, err := c.buildReplica(c.ctx, sg, i, machine, true, incarnation, time.Now())
	if err != nil {
		return fmt.Errorf("cluster: restart s%d/r%d: %w", s, i, err)
	}
	sg.mu.Lock()
	sg.mach[i] = machine
	sg.replicas[i] = rep
	sg.done[i] = done
	if c.opts.FD == FDOracle {
		sg.oracles[i] = oracle
	}
	sg.mu.Unlock()
	return nil
}

// NewClient creates and starts a client. With one shard it is the backend's
// native client (the weight-quorum client of Figure 5 for OAR, the classic
// first-reply client for the baselines); with several it is a shard.Client
// that owns one per-group invoker and routes every Invoke by key hash —
// whatever the backend.
func (c *Cluster) NewClient() (Invoker, error) {
	c.mu.Lock()
	idx := c.nextCli
	c.nextCli++
	c.mu.Unlock()

	cli, err := c.newClientAt(idx)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.clients = append(c.clients, cli)
	c.mu.Unlock()
	return cli, nil
}

func (c *Cluster) newClientAt(idx int) (Invoker, error) {
	id := proto.ClientID(idx)
	perGroup := make([]shard.Invoker, len(c.shards))
	started := make([]backend.Invoker, 0, len(c.shards))
	for s, sg := range c.shards {
		inv, err := c.be.NewInvoker(backend.InvokerConfig{
			ID:        id,
			Group:     c.group,
			GroupID:   sg.id,
			Node:      sg.net.Node(id),
			Tracer:    sg.tracer,
			Unbatched: c.opts.Unbatched,
		})
		if err != nil {
			for _, prev := range started {
				prev.Stop()
			}
			return nil, err
		}
		if rc, ok := inv.(reissueCounter); ok {
			sg.mu.Lock()
			sg.reissues = append(sg.reissues, rc)
			sg.mu.Unlock()
		}
		// Every client endpoint records its response times into the group's
		// histogram (successful invokes only); with several groups the
		// sharded client below then attributes each request to the group
		// that actually served it.
		inv = backend.Measure(inv, sg.latency, sg.readLatency)
		started = append(started, inv)
		perGroup[s] = inv
	}
	if len(started) == 1 {
		return started[0], nil
	}
	sc, err := shard.NewClient(c.router, perGroup)
	if err != nil {
		for _, prev := range started {
			prev.Stop()
		}
		return nil, err
	}
	return sc, nil
}

// ClientIDs returns the node IDs of every client the cluster has handed out
// so far, in creation order. Fault injectors need the full roster: a
// partition described over replicas must still place every client endpoint
// on a deliberate side (memnet's SetPartitions isolates any node it is not
// told about).
func (c *Cluster) ClientIDs() []proto.NodeID {
	c.mu.Lock()
	defer c.mu.Unlock()
	ids := make([]proto.NodeID, c.nextCli)
	for i := range ids {
		ids[i] = proto.ClientID(i)
	}
	return ids
}

// DeliveredTotal sums definitive deliveries across all shards' replicas,
// regardless of backend (OAR counts optimistic + conservative deliveries,
// rollbacks deducted).
func (c *Cluster) DeliveredTotal() uint64 {
	var total uint64
	for _, sg := range c.shards {
		sg.mu.RLock()
		for _, rep := range sg.replicas {
			total += rep.Stats().Delivered
		}
		sg.mu.RUnlock()
	}
	return total
}

// TotalStats sums the protocol counters of all replicas in all shards.
func (c *Cluster) TotalStats() backend.Stats {
	var total backend.Stats
	for s := range c.shards {
		total.Accumulate(c.ShardStats(s))
	}
	return total
}

// ShardStats sums the protocol counters of shard s's replicas and attaches
// what only the group's clients can see: their re-issued reads and their
// latency histograms (owned copies — callers may merge them freely).
func (c *Cluster) ShardStats(s int) backend.Stats {
	var total backend.Stats
	c.shards[s].mu.RLock()
	for _, rep := range c.shards[s].replicas {
		total.Accumulate(rep.Stats())
	}
	for _, rc := range c.shards[s].reissues {
		total.ReadReissues += rc.ReadReissues()
	}
	c.shards[s].mu.RUnlock()
	total.Latency = metrics.NewHistogram()
	total.Latency.Merge(c.shards[s].latency)
	total.ReadLatency = metrics.NewHistogram()
	total.ReadLatency.Merge(c.shards[s].readLatency)
	return total
}

// Latency summarizes the client-observed end-to-end response times of every
// invoker the cluster handed out, across all shards. Response time — not
// just throughput — is what the paper's optimistic delivery is about, so
// every invoker is measured unconditionally; recording is one lock-free
// histogram increment.
func (c *Cluster) Latency() metrics.Snapshot {
	merged := metrics.NewHistogram()
	for _, sg := range c.shards {
		merged.Merge(sg.latency)
	}
	return merged.Snapshot()
}

// ShardLatency summarizes the response times of requests served by ordering
// group s (useful for spotting skew under non-uniform key distributions).
func (c *Cluster) ShardLatency(s int) metrics.Snapshot {
	return c.shards[s].latency.Snapshot()
}

// ReadLatency summarizes the response times of fast-path reads (InvokeRead)
// across all shards, split out from Latency so the read/write gap — the
// point of the zero-ordering read path — is directly observable.
func (c *Cluster) ReadLatency() metrics.Snapshot {
	merged := metrics.NewHistogram()
	for _, sg := range c.shards {
		merged.Merge(sg.readLatency)
	}
	return merged.Snapshot()
}

// Quiesce waits until the cluster has nothing left to do: every live replica
// of a shard stands at the same position — and, where optimistic deliveries
// still stand beyond the definitive prefix, in the same epoch, because only
// there do equal positions mean equal prefixes — and nothing moved between
// two consecutive polls. Crashed replicas are skipped; a restarted one counts
// from the moment its endpoint is revived, so Quiesce also waits out its
// catch-up. It reports whether that happened within the timeout.
//
// This is the one settle wait for assertions on what the slowest replica has
// delivered (counters, fingerprints, checker verdicts): a client's reply only
// proves a majority got there. Where a trace checker is attached, AND it with
// the checker's LivenessSettled.
func (c *Cluster) Quiesce(timeout time.Duration) bool {
	var prev []backend.Position
	return WaitUntil(timeout, func() bool {
		cur, level := c.positions()
		same := level && len(cur) == len(prev)
		for i := 0; same && i < len(cur); i++ {
			same = cur[i] == prev[i]
		}
		prev = cur
		return same
	})
}

// positions snapshots every live replica's position, shard by shard, and
// reports whether each shard's replicas stand level.
func (c *Cluster) positions() (all []backend.Position, level bool) {
	level = true
	for _, sg := range c.shards {
		first := len(all)
		sameEpoch, optimistic := true, false
		sg.mu.RLock()
		for i, rep := range sg.replicas {
			if sg.net.Crashed(c.group[i]) {
				continue
			}
			p := rep.Position()
			all = append(all, p)
			level = level && p.Pos == all[first].Pos
			sameEpoch = sameEpoch && p.Epoch == all[first].Epoch
			optimistic = optimistic || p.Pos != p.Definitive
		}
		sg.mu.RUnlock()
		level = level && (sameEpoch || !optimistic)
	}
	return all, level
}

// WaitUntil polls cond every millisecond until it is true or the timeout
// elapses; it reports whether the condition was met.
func WaitUntil(timeout time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return true
		}
		time.Sleep(time.Millisecond)
	}
	return cond()
}

// Stop shuts everything down: clients first, then servers, then the
// networks.
func (c *Cluster) Stop() {
	c.mu.Lock()
	clients := append([]Invoker(nil), c.clients...)
	c.mu.Unlock()
	for _, cli := range clients {
		cli.Stop()
	}
	c.cancel()
	for _, sg := range c.shards {
		sg.net.Close() // closes inboxes, unblocking any server loop still reading
	}
	c.wg.Wait()
}
