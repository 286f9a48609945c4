package nemesis

import (
	"context"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/backend"
	"repro/internal/check"
	"repro/internal/cluster"
	"repro/internal/memnet"
	"repro/internal/proto"
	"repro/internal/workload"
)

// Config shapes one nemesis run: the cluster under test and the workload
// that drives it while the schedule plays.
type Config struct {
	// Protocol is the ordering backend (default "oar").
	Protocol cluster.Protocol
	// N is replicas per group (default 3); Shards the number of groups
	// (default 1).
	N, Shards int
	// Machine is the replicated state machine (default "kv" — its Query
	// answers "get", so the read fast path is exercised).
	Machine string
	// Requests is the total operation count across all workers (default 64).
	Requests int
	// Workers is the closed-loop concurrency (default 4).
	Workers int
	// Clients is how many client endpoints the workers share (default 1:
	// workers interleaving writes and reads on one client is exactly the
	// monotonic-reads race window the read checks guard).
	Clients int
	// ReadRatio is the fraction of reads (0 = the workload default 0.5;
	// negative = all writes).
	ReadRatio float64
	// Seed derives every workload stream (default 1).
	Seed int64
	// Net configures each shard's network (zero = instant links).
	Net memnet.Options
	// WALRoot, when non-empty, gives every replica a write-ahead log there
	// (see cluster.Options.WALRoot): restarted replicas then recover from
	// disk before catching up from peers. Backends without WAL support
	// ignore it and recover from peers alone.
	WALRoot string
	// WAL gives every replica a write-ahead log in a fresh temporary
	// directory, removed when the run ends. This is the right knob for
	// Search, which replays many schedules with one Config: a shared
	// WALRoot would leak one schedule's durable state into the next run.
	// Ignored when WALRoot is set.
	WAL bool
	// OpTimeout bounds one operation (default 30s — it must comfortably
	// exceed any fault window, since invokes stall under partitions).
	OpTimeout time.Duration
	// SettleTimeout bounds how long a quiescence wait (checkpoint or final)
	// may take before it becomes a liveness violation (default 10s).
	SettleTimeout time.Duration
}

func (c Config) withDefaults() Config {
	if c.Protocol == "" {
		c.Protocol = cluster.OAR
	}
	if c.N == 0 {
		c.N = 3
	}
	if c.Shards == 0 {
		c.Shards = 1
	}
	if c.Machine == "" {
		c.Machine = "kv"
	}
	if c.Requests == 0 {
		c.Requests = 64
	}
	if c.Workers == 0 {
		c.Workers = 4
	}
	if c.Clients == 0 {
		c.Clients = 1
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.OpTimeout == 0 {
		c.OpTimeout = 30 * time.Second
	}
	if c.SettleTimeout == 0 {
		c.SettleTimeout = 10 * time.Second
	}
	return c
}

// Violation is one checked-property violation, attributed to its shard.
type Violation struct {
	Shard    int
	Property string
	Detail   string
}

func (v Violation) String() string {
	return fmt.Sprintf("s%d %s: %s", v.Shard, v.Property, v.Detail)
}

// Result is the outcome of one nemesis run.
type Result struct {
	// Violations are all distinct property violations, streaming checks,
	// checkpoint windows and the final verification combined.
	Violations []Violation
	// Counts is the per-shard checker counter snapshot.
	Counts []check.Counts
	// Ops and Reads count completed operations (reads included in Ops).
	Ops, Reads int
	// Elapsed is the wall time of the run.
	Elapsed time.Duration
}

// Failed reports whether any check tripped.
func (r *Result) Failed() bool { return len(r.Violations) > 0 }

// rule is one armed message-filter action (drop/dup/reorder), consumed
// count-limited at send time. Drops of ordering messages are special: a
// SeqOrder stream carries positions implicitly (arrival order IS the
// order), so losing an interior message would violate the Lemma 2 prefix
// property no real crash can produce. A seqorder drop therefore severs
// whole destinations — the first Count destinations to match lose that one
// AND every later ordering message from the sender (the validator already
// requires the sender to crash after the rule arms, so this is exactly the
// Figure 1b "ordering messages lost in the crash" suffix loss).
type rule struct {
	kind     proto.Kind // 0 = any
	from, to NodeRef
	count    int
	action   StepKind
	delay    time.Duration
	severed  map[proto.NodeID]bool // seqorder drops: destinations cut so far
}

// ruleSet is one shard's mutable filter program. The filter body runs on
// sender goroutines; the mutex only guards the rule list, and a rule is
// consumed (count decremented) before its side effect runs, so a dup's
// inline re-send — which re-enters the filter — can never match itself.
type ruleSet struct {
	net *memnet.Network
	mu  sync.Mutex
	rs  []*rule
	wg  sync.WaitGroup // in-flight reorder timers
}

func (s *ruleSet) add(r *rule) {
	s.mu.Lock()
	s.rs = append(s.rs, r)
	s.mu.Unlock()
}

func (s *ruleSet) clear() {
	s.mu.Lock()
	s.rs = nil
	s.mu.Unlock()
}

// dropSenderRules disarms every drop rule whose sender is from. A drop of
// ordering traffic is justified by the sender's upcoming crash ("lost in the
// crash"); when that sender restarts, the justification is spent — the new
// incarnation's sends are live traffic and must flow.
func (s *ruleSet) dropSenderRules(from NodeRef) {
	s.mu.Lock()
	kept := s.rs[:0]
	for _, r := range s.rs {
		if r.action == StepDrop && r.from == from {
			continue
		}
		kept = append(kept, r)
	}
	s.rs = kept
	s.mu.Unlock()
}

// filter implements memnet.Filter. memnet expands batch envelopes before
// calling it, so payload is always a single kind-tagged message.
func (s *ruleSet) filter(from, to proto.NodeID, payload []byte) memnet.Verdict {
	kind, _, _, err := proto.Unmarshal(payload)
	if err != nil {
		return memnet.Deliver
	}
	s.mu.Lock()
	var hit *rule
	for _, r := range s.rs {
		if r.kind != 0 && r.kind != kind {
			continue
		}
		if !r.from.Matches(from) || !r.to.Matches(to) {
			continue
		}
		if r.action == StepDrop && r.kind == proto.KindSeqOrder {
			// Sticky per destination: severed links stay severed, and up
			// to Count destinations get severed on first match.
			if r.severed[to] {
				hit = r
				break
			}
			if len(r.severed) < r.count {
				r.severed[to] = true
				hit = r
				break
			}
			continue
		}
		if r.count <= 0 {
			continue
		}
		r.count--
		hit = r
		break
	}
	s.mu.Unlock()
	if hit == nil {
		return memnet.Deliver
	}
	switch hit.action {
	case StepDrop:
		return memnet.Drop
	case StepDup:
		// The payload may alias a pooled frame that dies after this send;
		// the duplicate needs its own copy. The inline re-send re-enters
		// this filter with the rule already consumed.
		clone := append([]byte(nil), payload...)
		_ = s.net.Node(from).Send(to, clone)
		return memnet.Deliver
	case StepReorder:
		clone := append([]byte(nil), payload...)
		s.wg.Add(1)
		time.AfterFunc(hit.delay, func() {
			defer s.wg.Done()
			_ = s.net.Node(from).Send(to, clone)
		})
		return memnet.Drop // the delayed re-send IS the message
	}
	return memnet.Deliver
}

// gate pauses the workload for checkpoint windows: workers enter() before
// each operation and exit() after; pause() blocks new entries and waits for
// the in-flight ones to drain.
type gate struct {
	mu       sync.Mutex
	cond     *sync.Cond
	paused   bool
	inflight int
}

func newGate() *gate {
	g := &gate{}
	g.cond = sync.NewCond(&g.mu)
	return g
}

func (g *gate) enter() {
	g.mu.Lock()
	for g.paused {
		g.cond.Wait()
	}
	g.inflight++
	g.mu.Unlock()
}

func (g *gate) exit() {
	g.mu.Lock()
	g.inflight--
	if g.inflight == 0 {
		g.cond.Broadcast()
	}
	g.mu.Unlock()
}

func (g *gate) pause() {
	g.mu.Lock()
	g.paused = true
	for g.inflight > 0 {
		g.cond.Wait()
	}
	g.mu.Unlock()
}

func (g *gate) resume() {
	g.mu.Lock()
	g.paused = false
	g.cond.Broadcast()
	g.mu.Unlock()
}

// executor is the per-run state.
type executor struct {
	cfg       Config
	cl        *cluster.Cluster
	checkers  []*check.Checker
	rules     []*ruleSet
	gate      *gate
	crashed   []map[int]bool // per shard: replica index -> currently crashed
	restarted []map[int]bool // per shard: replica index -> restarted at least once

	vmu  sync.Mutex
	seen map[string]bool
	out  []Violation
}

func (e *executor) record(shard int, property, detail string) {
	e.vmu.Lock()
	defer e.vmu.Unlock()
	key := fmt.Sprintf("%d\x00%s\x00%s", shard, property, detail)
	if e.seen[key] {
		return
	}
	e.seen[key] = true
	e.out = append(e.out, Violation{Shard: shard, Property: property, Detail: detail})
}

func (e *executor) recordChecker(shard int, vs []*check.Violation) {
	for _, v := range vs {
		e.record(shard, v.Property, v.Detail)
	}
}

// Run drives a cluster through the schedule while the workload runs, then
// verifies every proposition plus liveness and structural convergence. The
// returned error is for harness problems (bad config, boot failure) — a
// protocol violation is a Result with Failed()==true, not an error.
func Run(cfg Config, sched *Schedule) (*Result, error) {
	cfg = cfg.withDefaults()
	if err := sched.Validate(cfg.N, cfg.Shards); err != nil {
		return nil, err
	}
	if cfg.WAL && cfg.WALRoot == "" {
		dir, err := os.MkdirTemp("", "oar-nemesis-wal-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		cfg.WALRoot = dir
	}

	e := &executor{
		cfg:       cfg,
		checkers:  make([]*check.Checker, cfg.Shards),
		rules:     make([]*ruleSet, cfg.Shards),
		gate:      newGate(),
		crashed:   make([]map[int]bool, cfg.Shards),
		restarted: make([]map[int]bool, cfg.Shards),
		seen:      make(map[string]bool),
	}
	for s := range e.checkers {
		e.checkers[s] = check.New(cfg.N)
		e.crashed[s] = make(map[int]bool)
		e.restarted[s] = make(map[int]bool)
	}

	cl, err := cluster.New(cluster.Options{
		Protocol:  cfg.Protocol,
		N:         cfg.N,
		Shards:    cfg.Shards,
		Machine:   cfg.Machine,
		Net:       cfg.Net,
		FD:        cluster.FDOracle,
		WALRoot:   cfg.WALRoot,
		TracerFor: func(s int) backend.Tracer { return e.checkers[s] },
	})
	if err != nil {
		return nil, err
	}
	defer cl.Stop()
	e.cl = cl
	for s := 0; s < cfg.Shards; s++ {
		rs := &ruleSet{net: cl.Net(s)}
		e.rules[s] = rs
		cl.Net(s).SetFilter(rs.filter)
	}

	type rwClient struct {
		inv  cluster.Invoker
		read backend.ReadInvoker // nil when the backend has no fast path
	}
	clients := make([]rwClient, cfg.Clients)
	for i := range clients {
		inv, err := cl.NewClient()
		if err != nil {
			return nil, err
		}
		clients[i].inv = inv
		clients[i].read, _ = inv.(backend.ReadInvoker)
	}

	start := time.Now()
	runCtx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// Workload: workers claim a shared sequence and draw ops from their own
	// deterministic stream (same discipline as workload.RunRW, but pausable
	// at checkpoints and tolerant of mid-run faults via per-op timeouts).
	spec := workload.Spec{
		Workers:   cfg.Workers,
		Requests:  cfg.Requests,
		Warmup:    -1,
		ReadRatio: cfg.ReadRatio,
		Keys:      64,
		ValueSize: 8,
		Seed:      cfg.Seed,
	}
	var (
		next  atomic.Int64
		ops   atomic.Int64
		reads atomic.Int64
		wwg   sync.WaitGroup
	)
	for w := 0; w < cfg.Workers; w++ {
		gen, err := workload.NewGenerator(spec, w)
		if err != nil {
			return nil, err
		}
		cli := clients[w%len(clients)]
		wwg.Add(1)
		go func(w int, gen *workload.Generator, cli rwClient) {
			defer wwg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(cfg.Requests) || runCtx.Err() != nil {
					return
				}
				e.gate.enter()
				op := gen.NextOp()
				opCtx, opCancel := context.WithTimeout(runCtx, cfg.OpTimeout)
				var err error
				if op.Read && cli.read != nil {
					_, err = cli.read.InvokeRead(opCtx, op.Cmd)
				} else {
					_, err = cli.inv.Invoke(opCtx, op.Cmd)
				}
				opCancel()
				e.gate.exit()
				if err != nil {
					if runCtx.Err() == nil {
						e.record(0, "liveness", fmt.Sprintf("worker %d op %d never completed: %v", w, i, err))
						cancel()
					}
					return
				}
				ops.Add(1)
				if op.Read {
					reads.Add(1)
				}
			}
		}(w, gen, cli)
	}

	// Scheduler: fire the (sorted) steps on the wall clock.
	sorted := sched.Clone()
	sorted.Normalize()
	for _, st := range sorted.Steps {
		if d := time.Until(start.Add(st.At)); d > 0 {
			time.Sleep(d)
		}
		if runCtx.Err() != nil {
			break
		}
		if st.Kind == StepCheckpoint {
			e.checkpoint()
			continue
		}
		e.apply(st)
	}

	// End of schedule: restore the world, let the workload finish, then run
	// the full verification.
	e.stabilizeFaults()
	wwg.Wait()
	for s := range e.rules {
		e.rules[s].wg.Wait() // flush reorder re-sends
	}
	e.settleAndVerify(true)

	res := &Result{
		Violations: e.out,
		Counts:     make([]check.Counts, cfg.Shards),
		Ops:        int(ops.Load()),
		Reads:      int(reads.Load()),
		Elapsed:    time.Since(start),
	}
	for s, c := range e.checkers {
		res.Counts[s] = c.Counts()
	}
	return res, nil
}

// apply executes one non-checkpoint step.
func (e *executor) apply(st Step) {
	net := e.cl.Net(st.Shard)
	group := e.cl.Group()
	switch st.Kind {
	case StepCrash:
		id := st.A.ID()
		net.Crash(id)
		e.checkers[st.Shard].MarkCrashed(id)
		e.crashed[st.Shard][st.A.Index] = true
	case StepRestart:
		// The replica re-boots recovering; the checker learns of the rebirth
		// through the replica's own Restarted/Recovered trace events. Drop
		// rules justified by this replica's crash are spent now — the new
		// incarnation's sends must flow.
		e.rules[st.Shard].dropSenderRules(st.A)
		if err := e.cl.Restart(st.Shard, st.A.Index); err != nil {
			e.record(st.Shard, "harness", fmt.Sprintf("restart %s failed: %v", st.A, err))
			return
		}
		e.crashed[st.Shard][st.A.Index] = false
		e.restarted[st.Shard][st.A.Index] = true
	case StepSuspect:
		if st.A.IsAny() {
			e.cl.Suspect(st.Shard, st.B.ID())
		} else {
			e.cl.Oracle(st.Shard, st.A.Index).Suspect(st.B.ID())
		}
	case StepTrust:
		if st.A.IsAny() {
			e.cl.Trust(st.Shard, st.B.ID())
		} else {
			e.cl.Oracle(st.Shard, st.A.Index).Trust(st.B.ID())
		}
	case StepPartition:
		groups := make([][]proto.NodeID, len(st.Groups))
		for gi, g := range st.Groups {
			for _, r := range g {
				groups[gi] = append(groups[gi], group[r])
			}
		}
		// Every client endpoint must be placed deliberately: memnet isolates
		// any node a partition does not mention.
		groups[st.ClientSide] = append(groups[st.ClientSide], e.cl.ClientIDs()...)
		net.SetPartitions(groups...)
	case StepHeal:
		net.Heal()
	case StepBlock:
		net.Block(st.A.ID(), st.B.ID())
	case StepBlockOneWay:
		net.BlockDirected(st.A.ID(), st.B.ID())
	case StepUnblock:
		net.Unblock(st.A.ID(), st.B.ID())
	case StepSlow:
		net.SetLinkDelay(st.A.ID(), st.B.ID(), memnet.DelayRange{Min: st.Min, Max: st.Max})
	case StepFast:
		net.ClearLinkDelays()
	case StepRegions:
		region := make(map[int]int)
		for gi, g := range st.Groups {
			for _, r := range g {
				region[r] = gi
			}
		}
		for _, a := range st.Groups {
			for _, ra := range a {
				for rb, gb := range region {
					if ra == rb {
						continue
					}
					band := memnet.DelayRange{Min: st.Min, Max: st.Max}
					if region[ra] != gb {
						band = memnet.DelayRange{Min: st.Min2, Max: st.Max2}
					}
					net.SetLinkDelay(group[ra], group[rb], band)
				}
			}
		}
	case StepDrop, StepDup, StepReorder:
		r := &rule{
			kind:   st.MsgKind,
			from:   st.A,
			to:     st.B,
			count:  st.Count,
			action: st.Kind,
			delay:  st.Delay,
		}
		if st.Kind == StepDrop && st.MsgKind == proto.KindSeqOrder {
			r.severed = make(map[proto.NodeID]bool)
		}
		e.rules[st.Shard].add(r)
	}
}

// stabilizeFaults restores every shard to a live configuration: filters
// disarmed, partitions/blocks healed, latency overrides cleared, every
// crashed replica suspected by all survivors and every live replica
// trusted. Latency overrides and suspicions are independent axes of
// connectivity, so each is reset explicitly.
func (e *executor) stabilizeFaults() {
	group := e.cl.Group()
	for s := 0; s < e.cfg.Shards; s++ {
		e.rules[s].clear()
		net := e.cl.Net(s)
		net.Heal()
		net.ClearLinkDelays()
		for i, id := range group {
			if e.crashed[s][i] {
				e.cl.Suspect(s, id)
			} else {
				e.cl.Trust(s, id)
			}
		}
	}
}

// settleAndVerify waits for the cluster to quiesce, then runs the safety
// suite; with final it adds the liveness verdict and the structural
// assertion that all live replicas' machines converged.
func (e *executor) settleAndVerify(final bool) {
	// Recovery liveness first: a restarted replica that is still up must
	// complete catch-up. The checker cannot see a stalled recovery — the
	// replica stays in its crashed set until Recovered — so this is checked
	// against the replica's own counters.
	for s := 0; s < e.cfg.Shards; s++ {
		for i, restarted := range e.restarted[s] {
			if !restarted || e.crashed[s][i] {
				continue
			}
			i := i
			if !cluster.WaitUntil(e.cfg.SettleTimeout, func() bool {
				return e.cl.ReplicaStats(s, i).Recoveries >= 1
			}) {
				e.record(s, "recovery liveness",
					fmt.Sprintf("restarted replica %d never finished catch-up within %v", i, e.cfg.SettleTimeout))
			}
		}
	}
	// One quiescence wait for everything below: every live replica level
	// with its group and nothing moving (so no replica still holds an
	// optimistic prefix its peers have already rolled past), and every issued
	// request at every correct server.
	settled := e.cl.Quiesce(e.cfg.SettleTimeout)
	for s := 0; s < e.cfg.Shards; s++ {
		if !settled || !e.checkers[s].LivenessSettled() {
			e.record(s, "liveness", fmt.Sprintf("shard did not settle within %v", e.cfg.SettleTimeout))
		}
	}
	for s := 0; s < e.cfg.Shards; s++ {
		e.recordChecker(s, e.checkers[s].Verify())
		if !final {
			continue
		}
		e.recordChecker(s, e.checkers[s].VerifyLiveness())
		// Structural convergence: the live machines of a settled shard hold
		// prefix-consistent logs with identical request sets, so their
		// fingerprints must meet.
		var prints []string
		for i := 0; i < e.cfg.N; i++ {
			if !e.crashed[s][i] {
				prints = append(prints, e.cl.Machine(s, i).Fingerprint())
			}
		}
		for _, got := range prints {
			if got != prints[0] {
				e.record(s, "structural", "live replicas' machine fingerprints did not converge")
				break
			}
		}
	}
}

// checkpoint is the schedule-aware liveness window: restore connectivity,
// drain the workload, wait for quiescence, run the safety suite mid-run,
// resume. Faults are restored FIRST — in-flight operations may be stalled
// behind a partition, and the drain must not wait on them forever.
func (e *executor) checkpoint() {
	e.stabilizeFaults()
	e.gate.pause()
	for s := range e.rules {
		e.rules[s].wg.Wait()
	}
	e.settleAndVerify(false)
	e.gate.resume()
}
