package experiments

import (
	"context"
	"fmt"
	"time"

	"repro/internal/backend"
	"repro/internal/check"
	"repro/internal/cluster"
	"repro/internal/memnet"
	"repro/internal/workload"
)

// E11WorkloadMatrix sweeps the workload engine over every selected ordering
// backend × key distribution (uniform, zipfian) × loop discipline (closed,
// open) on a 2-shard kv deployment, and reports what no earlier experiment
// did: client-observed latency percentiles — the metric the paper's
// optimistic delivery exists to cut — next to throughput, for workload
// shapes chosen by the operator rather than hard-coded by the harness.
//
// The open-loop rows are rate-calibrated, not absolute: each (backend,
// distribution) pair first runs the closed loop, and the open loop then
// offers half that measured capacity, so open-loop percentiles are
// comparable across backends of very different speeds ("the same relative
// load") and stay meaningful on CI boxes of any size. Open-loop samples are
// measured from each request's scheduled arrival (coordinated-omission
// corrected — see EXPERIMENTS.md "Measurement methodology"), which is why a
// zipfian open row's tail can far exceed its closed sibling: the hottest
// group's queue is visible instead of throttling the load.
//
// The OAR cells run one trace checker per ordering group, so every latency
// number only counts where Propositions 1–7 still hold. The "hottest group"
// column reports the observed routing split (from shard.Client.Routed):
// ~50% under uniform keys, and the head key's true weight under zipfian.
func E11WorkloadMatrix(cfg Config) (Result, error) {
	res := Result{
		ID:     "E11",
		Title:  "workload matrix: backend × key distribution × loop discipline (2 shards × n=3, kv, instant network)",
		Header: []string{"backend", "dist", "mode", "target/s", "req/s", "p50", "p90", "p99", "max", "hottest", "violations"},
		Notes: []string{
			"open-loop rows offer half the closed-loop capacity measured for the same (backend, dist) cell",
			"open-loop latency is measured from each request's scheduled arrival (coordinated omission corrected)",
			"hottest = share of requests routed to the busiest ordering group (uniform ≈ 50%, zipfian = head-key weight)",
			"OAR cells run one trace checker per group; baselines are unchecked (-)",
		},
	}
	dists, err := cfg.dists()
	if err != nil {
		return res, err
	}
	wantClosed, wantOpen, err := cfg.workloadModes()
	if err != nil {
		return res, err
	}
	requests := cfg.requests(3000)
	for _, p := range cfg.protocols() {
		for _, dist := range dists {
			// The closed cell always runs: it is either a row of its own, a
			// calibration for the open row, or both.
			closed, err := e11Cell(cfg, p, dist, 0, requests)
			if err != nil {
				return res, fmt.Errorf("E11 %v/%s/closed: %w", p, dist, err)
			}
			if wantClosed {
				res.Rows = append(res.Rows, closed.row)
				res.Latency = append(res.Latency, closed.sample)
			}
			if wantOpen {
				rate := closed.rep.Throughput / 2
				open, err := e11Cell(cfg, p, dist, rate, requests)
				if err != nil {
					return res, fmt.Errorf("E11 %v/%s/open: %w", p, dist, err)
				}
				res.Rows = append(res.Rows, open.row)
				res.Latency = append(res.Latency, open.sample)
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

// workloadModes resolves the -workload selection.
func (c Config) workloadModes() (closed, open bool, err error) {
	switch c.Workload {
	case "":
		return true, true, nil
	case "closed":
		return true, false, nil
	case "open":
		return false, true, nil
	default:
		return false, false, fmt.Errorf("unknown workload mode %q (have: closed, open)", c.Workload)
	}
}

// e11Result is one cell's outcome: the table row, the machine-readable
// sample and the raw workload report (the closed cell's report calibrates
// the open cell's rate).
type e11Result struct {
	row    []string
	sample LatencySample
	rep    workload.Report
}

// routedder is the routing-split surface of the sharded client.
type routedder interface{ Routed() []uint64 }

// e11Cell runs one (backend, distribution, rate) cell: boot a 2-shard
// cluster, drive the workload through two client endpoints, and collect
// latency, throughput, routing split and checker verdicts.
func e11Cell(cfg Config, p cluster.Protocol, dist string, rate float64, requests int) (e11Result, error) {
	const shards = 2
	checked := p == cluster.OAR
	var cks []*check.Checker
	opts := cluster.Options{
		Protocol: p,
		N:        3,
		Shards:   shards,
		Machine:  "kv",
		FD:       cluster.FDNever,
		Net:      memnet.Options{Seed: 31}, // instant delivery
	}
	if checked {
		cks = make([]*check.Checker, shards)
		for i := range cks {
			cks[i] = check.New(3)
		}
		opts.TracerFor = func(s int) backend.Tracer { return cks[s] }
	}
	c, err := cluster.New(opts)
	if err != nil {
		return e11Result{}, err
	}
	defer c.Stop()

	const endpoints = 2
	invokers := make([]workload.Invoke, endpoints)
	clients := make([]cluster.Invoker, endpoints)
	for i := range invokers {
		cli, err := c.NewClient()
		if err != nil {
			return e11Result{}, err
		}
		clients[i] = cli
		invokers[i] = func(ctx context.Context, cmd []byte) error {
			_, err := cli.Invoke(ctx, cmd)
			return err
		}
	}
	spec := workload.Spec{
		Workers:   8,
		Rate:      rate,
		Requests:  requests,
		ReadRatio: cfg.ReadRatio,
		Keys:      256,
		Dist:      dist,
		Seed:      17,
		ValueSize: 16,
	}
	ctx, cancel := context.WithTimeout(context.Background(), 4*invokeTimeout)
	defer cancel()
	rep, err := workload.Run(ctx, spec, invokers, nil)
	if err != nil {
		return e11Result{}, err
	}

	// Routing split: sum the per-group counts over all endpoints.
	routed := make([]uint64, shards)
	var total uint64
	for _, cli := range clients {
		if rc, ok := cli.(routedder); ok {
			for g, n := range rc.Routed() {
				routed[g] += n
				total += n
			}
		}
	}
	hot, hotShare := 0, 0.0
	if total > 0 {
		for g, n := range routed {
			if share := float64(n) / float64(total); share > hotShare {
				hot, hotShare = g, share
			}
		}
	}

	violations := "-"
	if checked {
		n := 0
		for _, ck := range cks {
			n += len(ck.Verify())
		}
		violations = fmt.Sprint(n)
	}
	mode, target := "closed", "-"
	if rate > 0 {
		mode, target = "open", fmt.Sprintf("%.0f", rate)
	}
	s := rep.Latency
	row := []string{
		p.String(), dist, mode, target,
		fmt.Sprintf("%.0f", rep.Throughput),
		s.P50.Round(time.Microsecond).String(),
		s.P90.Round(time.Microsecond).String(),
		s.P99.Round(time.Microsecond).String(),
		s.Max.Round(time.Microsecond).String(),
		fmt.Sprintf("g%d %.0f%%", hot, 100*hotShare),
		violations,
	}
	sample := latencySample(map[string]string{
		"backend": p.String(), "dist": dist, "mode": mode,
	}, s, rep.Throughput)
	return e11Result{row: row, sample: sample, rep: rep}, nil
}
