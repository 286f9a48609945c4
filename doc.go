// Package oar is a production-oriented Go implementation of Optimistic
// Active Replication (Felber & Schiper, ICDCS 2001): active replication over
// an optimistic, sequencer-based atomic broadcast that falls back to a
// consensus-based conservative phase when the sequencer is suspected — and,
// unlike classic sequencer protocols, guarantees that clients never adopt a
// reply that is later invalidated (external consistency), even though
// individual replicas may temporarily diverge and roll back.
//
// # Quick start
//
// Run a replicated service in-process:
//
//	cluster, err := oar.NewCluster(oar.ClusterOptions{Replicas: 3, Machine: "kv"})
//	if err != nil { ... }
//	defer cluster.Close()
//
//	client, err := cluster.NewClient()
//	if err != nil { ... }
//	reply, err := client.Invoke(ctx, []byte("set greeting hello"))
//	fmt.Printf("%s at position %d, endorsed by %d replicas\n",
//		reply.Result, reply.Pos, reply.Endorsers)
//
// Or deploy replicas as separate processes over TCP with ListenAndServe and
// NewTCPClient (see cmd/oar-server and cmd/oar-client).
//
// # Message batching
//
// The optimistic hot path is batched end-to-end: each replica coalesces the
// messages of one event-loop round (ordering messages, relays, replies,
// consensus traffic) into one frame per destination, clients coalesce
// concurrent invocations per server, and the TCP transport writes frames
// through a buffered writer that flushes on idle. A round is the batch: the
// sequencer orders whatever one round accumulated as one message, and
// nothing is held back to grow a batch, so batching adds no latency when the
// system is idle and forms batches exactly when there is load. There is no
// option to set; every hold window that was tried lost on the benchmark of
// record (EXPERIMENTS.md, "Hold windows: measured, and deleted").
//
// # Keyspace sharding
//
// One ordering group's throughput is capped by its sequencer, so the
// keyspace can be partitioned over several independent groups
// (ClusterOptions.Shards): each shard is a complete Replicas-sized group
// of the selected protocol, and clients route every command to the group
// owning its key (an FNV hash of the command's key token — the kv/bank
// key, else the first token). Ordering and Propositions 1–7 hold per
// group — exactly the contract of a key-partitioned service — and group
// identity is explicit on the wire, so misrouted traffic is dropped rather
// than misordered. Crash failures stall only the affected group until its
// detector fires.
//
// # Latency observability
//
// Response time — not just throughput — is what optimistic delivery is
// for, so every client in the system measures it unconditionally: each
// successful Invoke records its submit-to-adopted-reply time into a
// lock-free log-bucket histogram (~4% resolution). Cluster-wide
// percentiles are exposed as Stats.Latency (Count, Mean, P50/P90/P99,
// Min/Max), per ordering group as Cluster.ShardLatency, and per TCP client
// as TCPClient.Stats (which adds wire frame/byte counters). Histograms
// merge exactly across workers, shards and processes, so aggregated
// percentiles are true percentiles, not averages of percentiles.
//
// The workload engine behind the numbers (closed and open loop
// disciplines, coordinated-omission-corrected open-loop sampling,
// uniform/zipfian key skew, read/write mix, warmup, deterministic seeds)
// drives both the experiment suite (oar-bench, experiments E13–E15) and
// real TCP deployments (cmd/oar-loadgen); EXPERIMENTS.md documents the
// measurement methodology.
//
// # Replicated state machines
//
// Any deterministic state machine with per-command undo can be replicated
// (the Machine interface). Built-ins: "kv", "stack", "queue", "counter",
// "bank" (transactional, per Section 6 of the paper) and "recorder".
//
// # Guarantees
//
// For up to ⌊(n-1)/2⌋ crash failures among n replicas (plus arbitrary false
// suspicions), the service provides: validity, at-most-once and
// at-least-once request handling, total order of request processing, and
// external consistency of adopted replies — Propositions 1–7 of the paper,
// all of which are re-verified mechanically on every test run by the
// internal trace checker.
//
// # Architecture
//
// The facade wraps the full protocol stack in internal/: the sequence
// algebra (mseq), wire codec (wire, proto), transports (memnet, tcpnet),
// reliable multicast (rmcast), failure detectors (fd), Maj-validity
// consensus (consensus), conservative ordering (cnsvorder), the replica
// runtime and client every protocol runs on (backend), the OAR ordering and
// adoption rules (core), the baselines' (baseline/...), and the experiment
// harness (experiments). A protocol supplies its two rules to the runtime,
// registers under a name (internal/backend) and is selected by it
// (ClusterOptions.Protocol); the paper's protocol, "oar", is the default.
// See DESIGN.md for the full inventory and EXPERIMENTS.md for the
// reproduction results.
package oar
