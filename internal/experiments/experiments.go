// Package experiments implements the reproduction experiment suite of
// DESIGN.md: one function per experiment (E1–E8, E10, E13–E15) and ablation
// (A2), each returning a formatted table. The cmd/oar-bench tool runs them,
// the asserting ones double as tests, and EXPERIMENTS.md records the results.
//
// The paper has no measurement section, so these experiments quantify its
// qualitative claims: one-phase latency in failure-free runs (E2, E5),
// fail-over bounded by detection time (E3), rarity and harmlessness of
// Opt-undeliver (E4), the cost of the client weight quorum (E7), the
// O_delivered garbage-collection remark (E6) — and, centrally, that the
// Isis-style baseline really does produce external inconsistencies that OAR
// eliminates (E1).
package experiments

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/check"
	"repro/internal/cluster"
	"repro/internal/memnet"
	"repro/internal/metrics"
	"repro/internal/proto"
)

// Result is one experiment's output table, plus the machine-readable
// latency samples behind it.
type Result struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
	// Latency carries one structured sample per measured cell — the stable
	// schema BENCH_*.json trend tracking consumes (table Rows are formatted
	// strings; these are not).
	Latency []LatencySample
}

// LatencySample is the machine-readable latency record of one experiment
// cell. Durations are nanoseconds; the json field names are a stable schema
// (CI fails the build when they go missing or zero — see oar-bench
// -require-latency).
type LatencySample struct {
	// Labels identifies the cell, e.g. {"backend": "oar", "dist": "zipfian",
	// "mode": "open"}.
	Labels map[string]string `json:"labels"`
	Count  uint64            `json:"count"`
	MeanNS int64             `json:"mean_ns"`
	P50NS  int64             `json:"p50_ns"`
	P90NS  int64             `json:"p90_ns"`
	P99NS  int64             `json:"p99_ns"`
	MinNS  int64             `json:"min_ns"`
	MaxNS  int64             `json:"max_ns"`
	// ReqPerSec is the cell's measured throughput (0 when the cell measured
	// latency only).
	ReqPerSec float64 `json:"req_per_sec,omitempty"`
}

// latencySample builds the machine-readable record for one cell.
func latencySample(labels map[string]string, s metrics.Snapshot, reqPerSec float64) LatencySample {
	return LatencySample{
		Labels:    labels,
		Count:     s.Count,
		MeanNS:    int64(s.Mean),
		P50NS:     int64(s.P50),
		P90NS:     int64(s.P90),
		P99NS:     int64(s.P99),
		MinNS:     int64(s.Min),
		MaxNS:     int64(s.Max),
		ReqPerSec: reqPerSec,
	}
}

// String renders the result as text.
func (r Result) String() string {
	out := fmt.Sprintf("== %s: %s ==\n%s", r.ID, r.Title, metrics.Table(r.Header, r.Rows))
	for _, n := range r.Notes {
		out += "note: " + n + "\n"
	}
	return out
}

// Config scales the suite.
type Config struct {
	// Quick shrinks request counts and sweep ranges (used by `go test`).
	Quick bool
	// Protocols, when non-empty, restricts the backend sweeps (E2, E5, E10,
	// E13, E15) to the given backends (the -protocol flag of oar-bench).
	// Default: all three built-ins.
	Protocols []cluster.Protocol
	// Dist restricts E13's key-distribution sweep to "uniform" or "zipfian"
	// (the -dist flag); empty sweeps both.
	Dist string
	// ReadRatio pins E13's read-ratio sweep to this one value (the -rw flag)
	// when it is positive and not 0.5, which the default sweep covers.
	ReadRatio float64
}

func (c Config) requests(full int) int {
	if c.Quick {
		return full / 10
	}
	return full
}

func (c Config) sizes() []int {
	if c.Quick {
		return []int{3, 5}
	}
	return []int{3, 5, 7}
}

// netOpts gives most experiments the same campus-network latency model
// (1–2ms one-way), making message hops visible in latencies. Sub-millisecond
// delays are not used because the OS sleep granularity on typical CI
// machines (~1ms) would flatten them; at 1–2ms the hop-count shapes the
// paper argues about are faithfully visible.
func netOpts(seed int64) memnet.Options {
	return memnet.Options{
		MinDelay: time.Millisecond,
		MaxDelay: 2 * time.Millisecond,
		Seed:     seed,
	}
}

const invokeTimeout = 30 * time.Second

// runClosedLoop drives total requests through clients concurrent closed-loop
// clients and records per-request latency. Returns the elapsed wall time.
func runClosedLoop(c *cluster.Cluster, clients, total int, hist *metrics.Histogram) (time.Duration, error) {
	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	per := total / clients
	start := time.Now()
	for i := 0; i < clients; i++ {
		cli, err := c.NewClient()
		if err != nil {
			return 0, err
		}
		wg.Add(1)
		go func(i int, cli cluster.Invoker) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), invokeTimeout)
			defer cancel()
			for j := 0; j < per; j++ {
				t0 := time.Now()
				if _, err := cli.Invoke(ctx, []byte(fmt.Sprintf("req %d %d", i, j))); err != nil {
					errCh <- fmt.Errorf("client %d: %w", i, err)
					return
				}
				if hist != nil {
					hist.Record(time.Since(t0))
				}
			}
			errCh <- nil
		}(i, cli)
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(errCh)
	for err := range errCh {
		if err != nil {
			return 0, err
		}
	}
	return elapsed, nil
}

// protocols under comparison in the latency/throughput experiments.
var protocols = []cluster.Protocol{cluster.OAR, cluster.FixedSeq, cluster.CTab}

// protocols returns the backends a sweep covers: the -protocol selection, or
// all three built-ins.
func (c Config) protocols() []cluster.Protocol {
	if len(c.Protocols) > 0 {
		return c.Protocols
	}
	return protocols
}

// E2FailureFreeLatency reproduces the Figure 2 claim: in failure-free runs
// OAR needs one ordering phase, like the sequencer baseline and unlike the
// consensus-per-batch baseline. Reports client latency and messages per
// request for each protocol and group size.
func E2FailureFreeLatency(cfg Config) (Result, error) {
	res := Result{
		ID:     "E2",
		Title:  "failure-free client latency (Figure 2 / one-phase claim)",
		Header: []string{"protocol", "n", "mean", "p50", "p99", "msgs/req"},
		Notes: []string{
			"expected shape: oar ≈ fixedseq + one reply delay, both well below ctab",
		},
	}
	requests := cfg.requests(400)
	for _, n := range cfg.sizes() {
		for _, p := range cfg.protocols() {
			c, err := cluster.New(cluster.Options{
				Protocol: p, N: n, FD: cluster.FDNever, Net: netOpts(int64(n)),
			})
			if err != nil {
				return res, err
			}
			hist := metrics.NewHistogram()
			c.Net(0).ResetStats()
			_, err = runClosedLoop(c, 1, requests, hist)
			stats := c.Net(0).Stats()
			c.Stop()
			if err != nil {
				return res, fmt.Errorf("E2 %v n=%d: %w", p, n, err)
			}
			s := hist.Snapshot()
			res.Rows = append(res.Rows, []string{
				p.String(), fmt.Sprint(n),
				s.Mean.Round(time.Microsecond).String(),
				s.P50.Round(time.Microsecond).String(),
				s.P99.Round(time.Microsecond).String(),
				fmt.Sprintf("%.1f", float64(stats.MessagesSent)/float64(requests)),
			})
			res.Latency = append(res.Latency, latencySample(
				map[string]string{"protocol": p.String(), "n": fmt.Sprint(n)}, s, 0))
		}
	}
	return res, nil
}

// E5Throughput measures closed-loop throughput at several client counts.
func E5Throughput(cfg Config) (Result, error) {
	res := Result{
		ID:     "E5",
		Title:  "closed-loop throughput under the 1–2ms network, n=3",
		Header: []string{"protocol", "clients", "req/s"},
		Notes: []string{
			"oar tracks fixedseq at a ~1.5x latency handicap (the quorum reply);",
			"ctab is worst per request but batching lets it catch up at high concurrency",
		},
	}
	clientCounts := []int{1, 4, 16}
	if cfg.Quick {
		clientCounts = []int{1, 4}
	}
	requests := cfg.requests(800)
	for _, clients := range clientCounts {
		for _, p := range cfg.protocols() {
			c, err := cluster.New(cluster.Options{
				Protocol: p, N: 3, FD: cluster.FDNever, Net: netOpts(7),
			})
			if err != nil {
				return res, err
			}
			elapsed, err := runClosedLoop(c, clients, requests, nil)
			c.Stop()
			if err != nil {
				return res, fmt.Errorf("E5 %v c=%d: %w", p, clients, err)
			}
			res.Rows = append(res.Rows, []string{
				p.String(), fmt.Sprint(clients),
				fmt.Sprintf("%.0f", float64(requests)/elapsed.Seconds()),
			})
		}
	}
	return res, nil
}

// E3Failover measures the time from sequencer crash to the next adopted
// reply, as a function of the failure-detector timeout — the fail-over cost
// argument of Section 2.2.
func E3Failover(cfg Config) (Result, error) {
	res := Result{
		ID:     "E3",
		Title:  "fail-over time vs ◊S timeout (Figure 3 scenario)",
		Header: []string{"fd timeout", "recovery latency", "healthy latency"},
		Notes: []string{
			"recovery latency = crash of sequencer -> next reply adopted; " +
				"expected to track the detection timeout",
		},
	}
	timeouts := []time.Duration{10 * time.Millisecond, 25 * time.Millisecond, 50 * time.Millisecond, 100 * time.Millisecond}
	if cfg.Quick {
		timeouts = timeouts[:2]
	}
	reps := 5
	if cfg.Quick {
		reps = 2
	}
	for _, fdTimeout := range timeouts {
		var recovery, healthy time.Duration
		for r := 0; r < reps; r++ {
			c, err := cluster.New(cluster.Options{
				N: 3, Net: netOpts(int64(r)),
				FDTimeout:         fdTimeout,
				HeartbeatInterval: fdTimeout / 4,
			})
			if err != nil {
				return res, err
			}
			cli, err := c.NewClient()
			if err != nil {
				c.Stop()
				return res, err
			}
			ctx, cancel := context.WithTimeout(context.Background(), invokeTimeout)
			t0 := time.Now()
			if _, err := cli.Invoke(ctx, []byte("healthy")); err != nil {
				cancel()
				c.Stop()
				return res, fmt.Errorf("E3 healthy: %w", err)
			}
			healthy += time.Since(t0)

			c.Crash(0, 0) // the epoch-0 sequencer
			t0 = time.Now()
			if _, err := cli.Invoke(ctx, []byte("after-crash")); err != nil {
				cancel()
				c.Stop()
				return res, fmt.Errorf("E3 recovery: %w", err)
			}
			recovery += time.Since(t0)
			cancel()
			c.Stop()
		}
		res.Rows = append(res.Rows, []string{
			fdTimeout.String(),
			(recovery / time.Duration(reps)).Round(time.Microsecond).String(),
			(healthy / time.Duration(reps)).Round(time.Microsecond).String(),
		})
	}
	return res, nil
}

// E7QuorumRule isolates the price of the Figure 5 weight quorum: OAR's
// adopted-reply latency vs the first-reply rule of classic active
// replication (fixedseq), at identical network settings.
func E7QuorumRule(cfg Config) (Result, error) {
	res := Result{
		ID:     "E7",
		Title:  "client weight-quorum cost (Figure 5 rule vs first reply)",
		Header: []string{"n", "oar (majority weight)", "fixedseq (first reply)", "overhead"},
		Notes: []string{
			"the overhead buys external consistency: no adopted reply is ever invalidated",
		},
	}
	requests := cfg.requests(300)
	for _, n := range cfg.sizes() {
		var lat [2]time.Duration
		for i, p := range []cluster.Protocol{cluster.OAR, cluster.FixedSeq} {
			c, err := cluster.New(cluster.Options{
				Protocol: p, N: n, FD: cluster.FDNever, Net: netOpts(int64(n) * 3),
			})
			if err != nil {
				return res, err
			}
			hist := metrics.NewHistogram()
			_, err = runClosedLoop(c, 1, requests, hist)
			c.Stop()
			if err != nil {
				return res, fmt.Errorf("E7 %v n=%d: %w", p, n, err)
			}
			lat[i] = hist.Snapshot().P50
		}
		res.Rows = append(res.Rows, []string{
			fmt.Sprint(n),
			lat[0].Round(time.Microsecond).String(),
			lat[1].Round(time.Microsecond).String(),
			fmt.Sprintf("%+.0f%%", 100*(float64(lat[0])-float64(lat[1]))/float64(lat[1])),
		})
	}
	return res, nil
}

// E6EpochGC measures the Section 5.3 Remark: periodically forcing phase 2
// bounds O_delivered at the cost of periodic consensus pauses.
func E6EpochGC(cfg Config) (Result, error) {
	res := Result{
		ID:     "E6",
		Title:  "periodic PhaseII garbage collection (Section 5.3 Remark)",
		Header: []string{"epoch limit", "epochs closed", "mean", "p99", "req/s"},
		Notes: []string{
			"limit 0 = GC off: one endless epoch; small limits pay consensus pauses",
		},
	}
	requests := cfg.requests(1000)
	limits := []int{0, 32, 128, 512}
	if cfg.Quick {
		limits = []int{0, 32}
	}
	for _, limit := range limits {
		c, err := cluster.New(cluster.Options{
			N: 3, FD: cluster.FDNever, Net: netOpts(11), EpochRequestLimit: limit,
		})
		if err != nil {
			return res, err
		}
		hist := metrics.NewHistogram()
		elapsed, err := runClosedLoop(c, 4, requests, hist)
		epochs := c.ReplicaStats(0, 0).Epochs
		c.Stop()
		if err != nil {
			return res, fmt.Errorf("E6 limit=%d: %w", limit, err)
		}
		s := hist.Snapshot()
		res.Rows = append(res.Rows, []string{
			fmt.Sprint(limit), fmt.Sprint(epochs),
			s.Mean.Round(time.Microsecond).String(),
			s.P99.Round(time.Microsecond).String(),
			fmt.Sprintf("%.0f", float64(requests)/elapsed.Seconds()),
		})
	}
	return res, nil
}

// ids used by the scenario experiments below.
var (
	pminIDs = []proto.NodeID{0, 1}
	pmajIDs = []proto.NodeID{2, 3, 4}
)

// countProp7 counts external-consistency violations in a verdict.
func countProp7(vs []*check.Violation) int {
	n := 0
	for _, v := range vs {
		if v.Property == "prop7 external consistency" {
			n++
		}
	}
	return n
}
