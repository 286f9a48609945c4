package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/backend"
	"repro/internal/check"
	"repro/internal/cnsvorder"
	"repro/internal/proto"
)

// spanTracer is the benchmark's own backend.Tracer. It turns the protocol's
// event stream into one root span per write, request = Issue→Adopt, and three
// children that partition it exactly:
//
//	core.order   Issue → OptDeliver at the epoch's sequencer
//	             (client encode, batcher hold, hop, sequencer ordering)
//	core.fanout  → OptDeliver at the majority-th replica
//	             (SeqOrder fan-out and follower apply)
//	core.adopt   → Adopt (reply encode, hop, majority-weight adoption)
//
// The product emits the events; the spans are drawn here, outside it. Spans
// are kept in memory and written out when the run ends.
type spanTracer struct {
	group     []proto.NodeID
	origin    time.Time // span times are ns after this
	recording atomic.Bool

	// Open requests, sharded by sequence number so the replicas' and the
	// clients' event loops seldom meet on a lock.
	shards [32]spanShard

	mu      sync.Mutex
	sums    [4]float64 // ns: request, order, fanout, adopt
	split   int        // requests behind sums
	unsplit int        // adopted with no optimistic sequencer or majority delivery in the adopted epoch
	kept    []spanRecord

	// Fail-over: crash → first EpochClose at a survivor → next Adopt.
	failoverPending atomic.Bool
	crashAt         int64
	closeAt         int64
	closes, resumes []float64 // ms per fault cycle
}

// maxKeptSpans bounds the requests whose spans are written out; the means
// cover every request of the window.
const maxKeptSpans = 5000

type spanShard struct {
	mu   sync.Mutex
	open map[proto.RequestID]*openRequest
}

type openRequest struct {
	issue int64
	epoch uint64 // epoch of the deliveries counted below
	opts  int    // optimistic deliveries in that epoch
	seq   int64  // when the epoch's sequencer delivered
	maj   int64  // when the majority-th replica delivered
}

type spanRecord struct {
	req            proto.RequestID
	t0, t1, t2, t3 int64
}

func newSpanTracer(n int) *spanTracer {
	t := &spanTracer{group: proto.Group(n), origin: time.Now()}
	for i := range t.shards {
		t.shards[i].open = make(map[proto.RequestID]*openRequest)
	}
	return t
}

func (t *spanTracer) now() int64 { return int64(time.Since(t.origin)) }

func (t *spanTracer) shard(req proto.RequestID) *spanShard {
	return &t.shards[req.Seq%uint64(len(t.shards))]
}

func (t *spanTracer) Issue(_ proto.NodeID, req proto.RequestID, _ []byte) {
	if !t.recording.Load() {
		return
	}
	now := t.now()
	s := t.shard(req)
	s.mu.Lock()
	s.open[req] = &openRequest{issue: now}
	s.mu.Unlock()
}

func (t *spanTracer) OptDeliver(server proto.NodeID, epoch uint64, req proto.RequestID, _ uint64, _ []byte) {
	now := t.now()
	s := t.shard(req)
	s.mu.Lock()
	defer s.mu.Unlock()
	o := s.open[req]
	if o == nil {
		return
	}
	if epoch > o.epoch {
		*o = openRequest{issue: o.issue, epoch: epoch} // rolled back and ordered again
	}
	if epoch < o.epoch {
		return
	}
	o.opts++
	if server == t.group[epoch%uint64(len(t.group))] && o.seq == 0 {
		o.seq = now
	}
	if o.opts == proto.MajoritySize(len(t.group)) {
		o.maj = now
	}
}

func (t *spanTracer) OptUndeliver(proto.NodeID, uint64, proto.RequestID)             {}
func (t *spanTracer) ADeliver(proto.NodeID, uint64, proto.RequestID, uint64, []byte) {}

func (t *spanTracer) EpochClose(proto.NodeID, uint64, cnsvorder.Input, cnsvorder.Result) {
	if !t.failoverPending.Load() {
		return
	}
	now := t.now()
	t.mu.Lock()
	if t.closeAt == 0 {
		t.closeAt = now
	}
	t.mu.Unlock()
}

func (t *spanTracer) Adopt(_ proto.NodeID, req proto.RequestID, reply proto.Reply) {
	now := t.now()
	if t.failoverPending.Load() {
		t.mu.Lock()
		if t.closeAt != 0 && t.failoverPending.Load() {
			t.closes = append(t.closes, float64(t.closeAt-t.crashAt)/1e6)
			t.resumes = append(t.resumes, float64(now-t.closeAt)/1e6)
			t.failoverPending.Store(false)
		}
		t.mu.Unlock()
	}
	s := t.shard(req)
	s.mu.Lock()
	o := s.open[req]
	delete(s.open, req)
	s.mu.Unlock()
	if o == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if o.seq == 0 || o.maj == 0 || o.epoch != reply.Epoch {
		t.unsplit++
		return
	}
	// The three children partition the root by construction: each boundary
	// is clamped between its neighbours.
	t1 := min(max(o.seq, o.issue), now)
	t2 := min(max(o.maj, t1), now)
	t.sums[0] += float64(now - o.issue)
	t.sums[1] += float64(t1 - o.issue)
	t.sums[2] += float64(t2 - t1)
	t.sums[3] += float64(now - t2)
	t.split++
	if len(t.kept) < maxKeptSpans {
		t.kept = append(t.kept, spanRecord{req: req, t0: o.issue, t1: t1, t2: t2, t3: now})
	}
}

// ReadAdopt: a fast-path read emits no other event, so it has no children
// to draw; core.read_us is timed around the InvokeRead call by the load
// generator.
func (t *spanTracer) ReadAdopt(proto.NodeID, proto.RequestID, proto.Reply) {}

// noteCrash opens a fail-over measurement: the crash happened at at.
func (t *spanTracer) noteCrash(at time.Time) {
	t.mu.Lock()
	t.crashAt = int64(at.Sub(t.origin))
	t.closeAt = 0
	t.mu.Unlock()
	t.failoverPending.Store(true)
}

// spanMeans returns the mean of the root and of its three children in µs,
// and how many requests they cover.
func (t *spanTracer) spanMeans() (means [4]float64, n int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.split == 0 {
		return means, 0
	}
	for i, sum := range t.sums {
		means[i] = sum / float64(t.split) / 1e3
	}
	return means, t.split
}

// write stores the kept spans as JSON: per span its name, start, end, parent
// and request.
func (t *spanTracer) write(path, workload string) error {
	type span struct {
		Name   string `json:"name"`
		Req    string `json:"req"`
		Parent string `json:"parent,omitempty"`
		Start  int64  `json:"start_ns"`
		End    int64  `json:"end_ns"`
	}
	t.mu.Lock()
	spans := make([]span, 0, 4*len(t.kept))
	for _, r := range t.kept {
		id := r.req.String()
		spans = append(spans,
			span{Name: "request", Req: id, Start: r.t0, End: r.t3},
			span{Name: "core.order", Req: id, Parent: "request", Start: r.t0, End: r.t1},
			span{Name: "core.fanout", Req: id, Parent: "request", Start: r.t1, End: r.t2},
			span{Name: "core.adopt", Req: id, Parent: "request", Start: r.t2, End: r.t3},
		)
	}
	doc := struct {
		Workload string `json:"workload"`
		Requests int    `json:"requests_traced"`
		Unsplit  int    `json:"requests_without_optimistic_split"`
		Spans    []span `json:"spans"`
	}{workload, t.split, t.unsplit, spans}
	t.mu.Unlock()

	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(doc); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

// counters is what the layers count, read from outside the program: the
// cluster's stats surface over memnet; each server's /stats document and
// each client's Stats over TCP; the WAL directory's size.
type counters [numCounters]float64

const (
	seqOrders = iota
	epochs
	optUndelivered
	readsServed
	readFallbacks
	batchFrames
	batchedSends
	catchupServed
	memFrames
	clientFrames
	clientBytes
	serverFrames
	serverBytes
	walBytes
	numCounters
)

func (s *system) counters() (counters, error) {
	var c counters
	c[walBytes] = float64(s.walBytes())
	if s.mem != nil {
		st := s.mem.TotalStats()
		st.Accumulate(s.lost)
		c[seqOrders], c[optUndelivered] = float64(st.SeqOrdersSent), float64(st.OptUndelivered)
		c[readsServed], c[readFallbacks] = float64(st.ReadsServed), float64(st.ReadFallbacks)
		c[batchFrames], c[batchedSends] = float64(st.BatchFrames), float64(st.BatchedSends)
		c[catchupServed] = float64(st.CatchupServed)
		for i := range s.mem.Group() {
			c[epochs] = max(c[epochs], float64(s.mem.ReplicaStats(0, i).Epochs))
		}
		c[memFrames] = float64(s.mem.NetTotal().MessagesSent)
		return c, nil
	}
	for rank := 0; rank < replicas; rank++ {
		rep, err := s.tcp.report(rank)
		if err != nil {
			return c, err
		}
		c[seqOrders] += float64(rep.SeqOrdersSent)
		c[optUndelivered] += float64(rep.OptUndelivered)
		c[readsServed] += float64(rep.ReadsServed)
		c[readFallbacks] += float64(rep.ReadFallbacks)
		c[batchFrames] += float64(rep.BatchFrames)
		c[batchedSends] += float64(rep.BatchedSends)
		c[epochs] = max(c[epochs], float64(rep.Epochs))
		c[serverFrames] += float64(rep.FramesSent)
		c[serverBytes] += float64(rep.BytesSent)
	}
	for _, cli := range s.tcp.clients {
		st := cli.Stats()
		c[clientFrames] += float64(st.FramesSent)
		c[clientBytes] += float64(st.BytesSent)
	}
	return c, nil
}

// since returns what was counted between before and c: the difference per
// counter, 0 where a counter reads lower than before.
func (c counters) since(before counters) counters {
	for i := range c {
		c[i] = max(c[i]-before[i], 0)
	}
	return c
}

// procSnap is the process's own cost so far.
type procSnap struct {
	cpu     time.Duration
	mallocs uint64
	gcPause time.Duration
	peakRSS float64 // MB
}

func readProc() procSnap {
	var ru syscall.Rusage
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p := procSnap{mallocs: ms.Mallocs, gcPause: time.Duration(ms.PauseTotalNs)} //nolint:gosec // fits
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		p.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
		p.peakRSS = float64(ru.Maxrss) / 1024 // Linux reports KB
	}
	return p
}

// checkedBurst is how long the trace checker watches a workload that injects
// no faults. check.Checker compares every adopted reply with every delivery
// it has seen, so its verdict on a whole traced window would take hours; it
// judges a burst of a few thousand requests instead, and a whole fault cycle
// on failover-open.
const checkedBurst = 150 * time.Millisecond

// runChecked boots the workload once more with check.Checker beside a span
// tracer (backend.MultiTracer), drives a short burst, and returns the
// evidence of every proposition the checker found violated.
func runChecked(cfg runConfig) ([]string, error) {
	cfg.window, cfg.warmup, cfg.setups = checkedBurst, 0, 1
	if cfg.workload.faults {
		cfg.window = faultLeadIn + faultCycleBudget + 100*time.Millisecond // one whole cycle
	}
	spans, checker := newSpanTracer(replicas), check.New(replicas)
	onCrash := func(id proto.NodeID, at time.Time) {
		checker.MarkCrashed(id)
		spans.noteCrash(at)
	}
	m, err := measure(cfg, backend.MultiTracer(spans, checker), onCrash, nil)
	if m != nil {
		defer m.sys.stop()
	}
	if err != nil {
		return nil, err
	}
	evidence := gate(m.sys, m.workers)
	for _, v := range checker.Verify() {
		evidence = append(evidence, "trace checker: "+v.Error())
	}
	adopted := checker.Adoptions() + checker.ReadAdoptions()
	if adopted == 0 {
		evidence = append(evidence, "trace checker saw no adopted reply")
	}
	fmt.Fprintf(cfg.log, "%-18s trace checker: %d adopted replies checked, %d violations\n", cfg.workload.name, adopted, len(evidence))
	return evidence, nil
}

// runTraced is the separate, shorter run behind the per-layer metrics: a
// traced window of the workload (a third of --seconds) under the span tracer
// with the counter ratios over that window, a burst under the trace checker,
// then the isolated layer probes. End-to-end metrics are never taken here.
func runTraced(cfg runConfig) (result, error) {
	if cfg.probe == 0 {
		cfg.probe = cfg.window / 20
	}
	cfg.window /= 3
	cfg.setups = 1

	var (
		spans   *spanTracer
		tracer  backend.Tracer
		onCrash func(proto.NodeID, time.Time)
	)
	if !cfg.workload.tcp { // the facade's servers take no tracer: counters only
		spans = newSpanTracer(replicas)
		tracer = spans
		onCrash = func(_ proto.NodeID, at time.Time) { spans.noteCrash(at) }
	}

	var (
		before, after counters
		procBefore    procSnap
		procAfter     procSnap
		counterErr    error
	)
	m, err := measure(cfg, tracer, onCrash, func(m *measured, open bool) {
		if spans != nil {
			spans.recording.Store(open)
		}
		if open {
			before, counterErr = m.sys.counters()
			procBefore = readProc()
			return
		}
		procAfter = readProc()
		var err error
		if after, err = m.sys.counters(); err != nil {
			counterErr = err
		}
	})
	if m != nil {
		defer m.sys.stop()
	}
	if err != nil {
		return result{}, err
	}
	if counterErr != nil {
		return result{}, fmt.Errorf("read counters: %w", counterErr)
	}

	evidence := gate(m.sys, m.workers)
	rep := newReport(perLayer)
	win := m.win
	ops := max(float64(len(win.samples)), 1) // all failed: ratios over 1, and the result says so
	writes, reads := win.latencies(false), win.latencies(true)

	if spans != nil {
		means, n := spans.spanMeans()
		for i, name := range []string{"core.request_us", "core.order_us", "core.fanout_us", "core.adopt_us"} {
			rep.set(name, means[i], n)
		}
		if sum := means[1] + means[2] + means[3]; n > 0 && (sum < 0.99*means[0] || sum > 1.01*means[0]) {
			evidence = append(evidence, fmt.Sprintf("spans: children sum to %.3f us, request is %.3f us", sum, means[0]))
		}
		rep.set("core.failover_close_ms", median(spans.closes), len(spans.closes))
		rep.set("core.failover_resume_ms", median(spans.resumes), len(spans.resumes))
		path := filepath.Join(cfg.outDir, "trace-"+cfg.workload.name+".json")
		if err := spans.write(path, cfg.workload.name); err != nil {
			return result{}, fmt.Errorf("write spans: %w", err)
		}
		fmt.Fprintf(cfg.log, "%-18s spans of %d requests written to %s (%d more had no optimistic split)\n",
			cfg.workload.name, len(spans.kept), path, spans.unsplit)
	}
	rep.set("core.read_us", mean(reads), len(reads))
	stalls := win.epochStalls(true)
	rep.set("core.epoch_stall_ms", mean(stalls), len(stalls))
	var recoveries []float64
	for _, cy := range m.cycles {
		recoveries = append(recoveries, float64(cy.recovery)/1e6)
	}
	rep.set("core.recovery_ms", median(recoveries), len(recoveries))
	rep.set("core.catchup_served", after[catchupServed], len(m.cycles))

	// Per adopted operation of the window.
	n := len(win.samples)
	d := after.since(before)
	rep.set("core.seqorders_per_op", d[seqOrders]/max(float64(len(writes)), 1), len(writes))
	rep.set("core.epochs_per_kop", 1000*d[epochs]/ops, n)
	rep.set("core.opt_undelivered", d[optUndelivered], n)
	rep.set("core.reads_served_per_read", d[readsServed]/max(float64(len(reads)), 1), len(reads))
	rep.set("core.read_fallbacks", d[readFallbacks], len(reads))
	rep.set("transport.msgs_per_frame", d[batchedSends]/max(d[batchFrames], 1), n)
	if m.sys.mem != nil {
		rep.set("memnet.frames_per_op", d[memFrames]/ops, n)
	} else {
		rep.set("tcpnet.client_frames_per_op", d[clientFrames]/ops, n)
		rep.set("tcpnet.client_bytes_per_op", d[clientBytes]/ops, n)
		rep.set("tcpnet.server_frames_per_op", d[serverFrames]/ops, n)
		rep.set("tcpnet.server_bytes_per_op", d[serverBytes]/ops, n)
	}
	if cfg.workload.wal {
		rep.set("wal.bytes_per_op", d[walBytes]/ops, n)
	}

	rep.set("workload.read_p50_us", quantile(reads, 0.5), len(reads))
	if cfg.workload.rate == 0 {
		all := append(append([]float64(nil), writes...), reads...)
		rep.set("workload.closed_p99_us", quantile(sorted(all), 0.99), len(all))
	} else {
		rep.set("workload.sched_lag_p99_us", quantile(win.lags, 0.99)/1e3, len(win.lags))
	}
	rep.set("workload.failed_share", float64(win.failed)/float64(win.attempted), win.attempted)
	rep.set("proc.cpu_us_per_op", float64(procAfter.cpu-procBefore.cpu)/1e3/ops, n)
	rep.set("proc.allocs_per_op", float64(procAfter.mallocs-procBefore.mallocs)/ops, n)
	rep.set("proc.gc_pause_ms", float64(procAfter.gcPause-procBefore.gcPause)/1e6, n)
	rep.set("proc.peak_rss_mb", procAfter.peakRSS, 1)

	m.sys.stop() // what follows boots its own systems, one at a time
	if spans != nil {
		checked, err := runChecked(cfg)
		if err != nil {
			return result{}, fmt.Errorf("checked burst: %w", err)
		}
		evidence = append(evidence, checked...)
	}
	if err := runProbes(rep, cfg.seed, cfg.probe); err != nil {
		return result{}, fmt.Errorf("probes: %w", err)
	}
	rep.fillMissing()
	rep.print(cfg.log, cfg.workload.name)
	return finish(cfg, win, evidence, rep), nil
}
