package experiments

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/backend"
	"repro/internal/check"
	"repro/internal/cluster"
	"repro/internal/memnet"
	"repro/internal/workload"
)

// E13ReadFastPath measures the zero-ordering read fast path: read-only
// requests answered inline from the optimistic prefix under the majority-
// validated adoption rule (DESIGN.md "Read fast path"), across read ratio ×
// key distribution × backend × shard count. Every cell drives the RunRW
// engine, so reads and writes are timed separately and each worker's
// read-your-writes oracle is live throughout.
//
// Unlike the other performance experiments, E13's cells are self-asserting —
// the speedup claim rests on invariants the counters can check exactly, so a
// cell that merely "runs" without exercising the fast path fails instead of
// printing a hollow number:
//
//   - zero ordering frames for reads: deliveries == (writes + ReadReissues)
//     × n, exactly — the only reads that entered the ordered path are the
//     ones a client counted re-issuing through Invoke, because every
//     replica had answered and no majority endorsed one prefix (a
//     first-reply write puts the client's floor ahead of the majority,
//     which makes that likelier under the baselines);
//   - every read served fast: ReadsServed == reads × n and ReadFallbacks ==
//     0 — all n replicas answered every read inline;
//   - reads are not slower: read p50 ≤ write p50 (reads skip the ordering
//     hop entirely), wherever both medians rest on at least 20 samples, in
//     the full run only — a quick cell's two wall-clock medians of ~20
//     samples each are too noisy to gate a unit test on — and except under
//     fixedseq, whose first-reply write rule is faster than
//     any majority quorum precisely because it is unsafe (E1); those cells
//     only bound the gap at 2×;
//   - the read-your-writes oracle engaged (RYWChecked > 0) and, for OAR,
//     the per-group trace checkers report zero violations.
func E13ReadFastPath(cfg Config) (Result, error) {
	res := Result{
		ID:     "E13",
		Title:  "zero-ordering read fast path: read ratio × distribution × backend × shards (kv, n=3 per group, instant network)",
		Header: []string{"backend", "dist", "rw", "shards", "req/s", "write p50", "read p50", "read/write", "reads", "fallbacks", "reissues", "violations"},
		Notes: []string{
			"reads are answered inline from the optimistic prefix; adoption needs majority weight at a compatible prefix",
			"every cell asserts: deliveries == (writes + reissues) × n (no other read was ever ordered), ReadFallbacks == 0, and (full run only) read p50 ≤ write p50",
			"reissues counts reads a client re-issued as ordered requests after the whole group answered without a majority at one prefix",
			"fixedseq's write rule is the unsafe first reply (see E1), which a majority read need not beat: its cells only bound the gap at 2×",
			"the read-your-writes oracle (worker-tagged values) runs in every cell; OAR cells add one trace checker per group",
		},
	}
	dists, err := cfg.dists()
	if err != nil {
		return res, err
	}
	ratios := []float64{0.5, 0.9, 0.99}
	if cfg.Quick {
		ratios = []float64{0.9}
	}
	// -rw off its 0.5 default restricts the sweep to that single ratio (0.5
	// itself is in the default sweep, so pinning it adds nothing).
	if cfg.ReadRatio > 0 && cfg.ReadRatio != 0.5 {
		ratios = []float64{cfg.ReadRatio}
	}
	requests := cfg.requests(3000)
	for _, p := range cfg.protocols() {
		for _, dist := range dists {
			for _, ratio := range ratios {
				for _, shards := range []int{1, 2} {
					cell, err := e13Cell(cfg, p, dist, ratio, shards, requests)
					if err != nil {
						return res, fmt.Errorf("E13 %v/%s/rw=%v/shards=%d: %w", p, dist, ratio, shards, err)
					}
					res.Rows = append(res.Rows, cell.row)
					res.Latency = append(res.Latency, cell.samples...)
				}
			}
		}
	}
	return res, nil
}

// dists resolves the -dist selection.
func (c Config) dists() ([]string, error) {
	switch c.Dist {
	case "":
		return workload.Dists(), nil
	case workload.Uniform, workload.Zipfian:
		return []string{c.Dist}, nil
	default:
		return nil, fmt.Errorf("unknown key distribution %q (have: uniform, zipfian)", c.Dist)
	}
}

// e13Result is one cell's outcome.
type e13Result struct {
	row     []string
	samples []LatencySample
}

// e13Cell runs one (backend, distribution, read ratio, shards) cell and
// checks the fast-path invariants listed on E13ReadFastPath.
func e13Cell(cfg Config, p cluster.Protocol, dist string, ratio float64, shards, requests int) (e13Result, error) {
	const n = 3
	checked := p == cluster.OAR
	var cks []*check.Checker
	opts := cluster.Options{
		Protocol: p,
		N:        n,
		Shards:   shards,
		Machine:  "kv",
		FD:       cluster.FDNever,
		Net:      memnet.Options{Seed: 37}, // instant delivery
	}
	if checked {
		cks = make([]*check.Checker, shards)
		for i := range cks {
			cks[i] = check.New(n)
		}
		opts.TracerFor = func(s int) backend.Tracer { return cks[s] }
	}
	c, err := cluster.New(opts)
	if err != nil {
		return e13Result{}, err
	}
	defer c.Stop()

	// The issued-operation counters make the invariants exact: the workload
	// report only counts the measured window, but the deliveries the cluster
	// accumulates include warmup.
	//
	// One client endpoint per worker: the monotonic-read high-water mark is
	// per client session, so sharing an endpoint across concurrent workers
	// lets another worker's write raise the mark while a read is in flight —
	// a legitimate ordered-path fallback, but one that would fail this cell's
	// zero-ordering assertion without measuring anything about the fast path.
	var readsIssued, writesIssued atomic.Uint64
	const endpoints = 8 // == spec.Workers
	invokers := make([]workload.RWInvoke, endpoints)
	for i := range invokers {
		cli, err := c.NewClient()
		if err != nil {
			return e13Result{}, err
		}
		rd, ok := cli.(backend.ReadInvoker)
		if !ok {
			return e13Result{}, fmt.Errorf("%v client has no read fast path", p)
		}
		invokers[i] = func(ctx context.Context, cmd []byte, read bool) ([]byte, error) {
			if read {
				readsIssued.Add(1)
				r, err := rd.InvokeRead(ctx, cmd)
				return r.Result, err
			}
			writesIssued.Add(1)
			r, err := cli.Invoke(ctx, cmd)
			return r.Result, err
		}
	}

	spec := workload.Spec{
		Workers:   8,
		Requests:  requests,
		ReadRatio: ratio,
		Keys:      256,
		Dist:      dist,
		Seed:      23,
		ValueSize: 16,
	}
	ctx, cancel := context.WithTimeout(context.Background(), 4*invokeTimeout)
	defer cancel()
	rep, err := workload.RunRW(ctx, spec, invokers, nil, nil)
	if err != nil {
		return e13Result{}, err
	}
	reads, writes := readsIssued.Load(), writesIssued.Load()

	// Let the trailing replica catch up (adoption only waits for a
	// majority) — on the ordered requests, which move its position, and on
	// the reads, which do not — then hold the counters to exact equality.
	if !c.Quiesce(invokeTimeout) {
		return e13Result{}, fmt.Errorf("cluster did not quiesce")
	}
	cluster.WaitUntil(invokeTimeout, func() bool { return c.TotalStats().ReadsServed >= reads*n })
	ts := c.TotalStats()
	if ts.ReadFallbacks != 0 {
		return e13Result{}, fmt.Errorf("%d reads fell back to the ordered path", ts.ReadFallbacks)
	}
	if ordered := writes + ts.ReadReissues; ts.Delivered != ordered*n {
		return e13Result{}, fmt.Errorf("deliveries %d != (writes %d + reissues %d)×n: an uncounted read entered the ordered path",
			ts.Delivered, writes, ts.ReadReissues)
	}
	if ts.ReadsServed != reads*n {
		return e13Result{}, fmt.Errorf("reads served %d != reads×n %d", ts.ReadsServed, reads*n)
	}
	// The oracle can only engage when a worker re-reads a key it wrote, and
	// which worker draws which operation depends on scheduling. Engagement is
	// therefore only required when zero would be implausible: if operations
	// split evenly over workers and keys (a lower bound under zipfian skew),
	// the expected number of own-key re-reads is reads × writes / (workers ×
	// keys), and at 16 the chance of none is about one in ten million.
	// Scaled-down runs fall below that; the workload package's own tests pin
	// engagement deterministically.
	expected := float64(reads) * float64(writes) / float64(spec.Workers*spec.Keys)
	if expected >= 16 && rep.RYWChecked == 0 {
		return e13Result{}, fmt.Errorf("read-your-writes oracle never engaged")
	}
	// Reads must not lose to the ordered path. For OAR and ctab the write
	// reply itself waits for an ordering step (majority-weight adoption /
	// consensus), so the majority-validated read must be at least as fast.
	// fixedseq is the exception by design: its write rule adopts the
	// sequencer's immediate first reply — the unsafe shortcut E1 exposes —
	// which a majority-quorum read cannot be expected to beat; that cell
	// only bounds the gap.
	writeP50 := rep.Latency.P50
	limit := writeP50
	if p == cluster.FixedSeq {
		limit = 2 * writeP50
	}
	// A median of a handful of samples is noise: compare only where both
	// sides have enough, and not at all in a quick run, whose cells measure
	// some twenty of each.
	const minSamples = 20
	if !cfg.Quick && rep.Latency.Count >= minSamples && rep.ReadLatency.Count >= minSamples && rep.ReadLatency.P50 > limit {
		return e13Result{}, fmt.Errorf("read p50 %v > limit %v (write p50 %v)", rep.ReadLatency.P50, limit, writeP50)
	}
	violations := "-"
	if checked {
		v := 0
		for _, ck := range cks {
			v += len(ck.Verify())
		}
		if v != 0 {
			var first error
			for _, ck := range cks {
				if vs := ck.Verify(); len(vs) > 0 {
					first = vs[0]
					break
				}
			}
			return e13Result{}, fmt.Errorf("%d trace-checker violations (first: %v)", v, first)
		}
		violations = fmt.Sprint(v)
	}

	labels := map[string]string{
		"exp": "E13", "backend": p.String(), "dist": dist,
		"rw": fmt.Sprint(ratio), "shards": fmt.Sprint(shards),
	}
	readLabels := make(map[string]string, len(labels)+1)
	writeLabels := make(map[string]string, len(labels)+1)
	for k, v := range labels {
		readLabels[k], writeLabels[k] = v, v
	}
	readLabels["path"], writeLabels["path"] = "read", "write"
	row := []string{
		p.String(), dist, fmt.Sprint(ratio), fmt.Sprint(shards),
		fmt.Sprintf("%.0f", rep.Throughput),
		rep.Latency.P50.Round(time.Microsecond).String(),
		rep.ReadLatency.P50.Round(time.Microsecond).String(),
		fmt.Sprintf("%.2f", float64(rep.ReadLatency.P50)/float64(max64(1, int64(rep.Latency.P50)))),
		fmt.Sprint(ts.ReadsServed),
		fmt.Sprint(ts.ReadFallbacks),
		fmt.Sprint(ts.ReadReissues),
		violations,
	}
	return e13Result{
		row: row,
		samples: []LatencySample{
			latencySample(readLabels, rep.ReadLatency, 0),
			latencySample(writeLabels, rep.Latency, rep.Throughput),
		},
	}, nil
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
