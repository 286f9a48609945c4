package experiments

import (
	"fmt"
	"time"

	"repro/internal/backend"
	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/nemesis"
)

// E14Nemesis runs the randomized fault-schedule search of internal/nemesis
// as an experiment: batches of seed-derived schedules (minority partitions
// around the sequencer, crashes with orders lost in the crash, wrongful-
// suspicion flaps, gray-slow links, drop/dup/reorder rules) drive a live
// cluster under a mixed read/write workload, and every run must come out
// clean across the full proposition suite plus liveness and structural
// convergence. Quick mode runs 50 schedules, full mode 1000.
//
// The experiment is self-asserting twice over:
//
//   - every positive row must be 100% checker-clean — a single violation
//     fails the experiment instead of printing a hollow table;
//   - a negative-control row re-enables the stale-read-floor bug behind its
//     test hook (backend.StaleReadFloorBug) and requires the SAME search to
//     find a violation and ddmin to shrink it to at most 5 steps — proof
//     the harness detects what it claims to detect, with the exact class of
//     bug the read fast path shipped with.
func E14Nemesis(cfg Config) (Result, error) {
	res := Result{
		ID:     "E14",
		Title:  "randomized fault-schedule search: seeded nemesis schedules, full proposition suite per run",
		Header: []string{"row", "backend", "n", "shards", "schedules", "clean", "found", "shrunk steps", "run p50", "run p99"},
		Notes: []string{
			"each schedule composes fault motifs biased toward hard regions: sequencer-minority partitions, crash+suspicion (orders lost in the crash), flaps, gray links, drop/dup/reorder",
			"every run ends with Verify + VerifyLiveness + machine-fingerprint convergence; positive rows assert zero violations over the whole batch",
			"the control row re-injects the stale read floor bug behind its test hook and asserts the search finds it and shrinking lands at <= 5 steps",
		},
	}

	budget := 1000
	if cfg.Quick {
		budget = 50
	}
	run := nemesis.Config{Requests: 96, Workers: 4, Clients: 1, ReadRatio: 0.65, Seed: 5}

	type shape struct {
		name   string
		n      int
		shards int
		motifs int
		share  int // fraction of the budget, in tenths
	}
	shapes := []shape{
		{"n=3", 3, 1, 2, 6},
		{"n=5", 5, 1, 3, 2},
		{"n=3 x2 shards", 3, 2, 3, 2},
	}

	for _, sh := range shapes {
		count := budget * sh.share / 10
		if count == 0 {
			count = 1
		}
		h := metrics.NewHistogram()
		rc := run
		rc.N, rc.Shards = sh.n, sh.shards
		found, ran, err := nemesis.Search(nemesis.SearchConfig{
			Run:    rc,
			Gen:    nemesis.GenSpec{Motifs: sh.motifs},
			Budget: count,
			Progress: func(seed int64, r *nemesis.Result) {
				h.Record(r.Elapsed)
			},
		})
		if err != nil {
			return res, fmt.Errorf("E14 %s: %w", sh.name, err)
		}
		if found != nil {
			return res, fmt.Errorf("E14 %s: seed %d violated the proposition suite: %v\n%s",
				sh.name, found.Seed, found.Result.Violations, found.Schedule.Encode())
		}
		s := h.Snapshot()
		res.Rows = append(res.Rows, []string{
			sh.name, string(cluster.OAR), fmt.Sprint(sh.n), fmt.Sprint(sh.shards),
			fmt.Sprint(ran), fmt.Sprint(ran), "-", "-",
			s.P50.Round(time.Millisecond).String(), s.P99.Round(time.Millisecond).String(),
		})
		res.Latency = append(res.Latency, latencySample(map[string]string{
			"experiment": "E14", "row": sh.name, "backend": string(cluster.OAR),
		}, s, 1/h.Mean().Seconds()))
	}

	// Negative control: the detector must detect.
	if !backend.StaleReadFloorBug.CompareAndSwap(false, true) {
		return res, fmt.Errorf("E14 control: StaleReadFloorBug already enabled")
	}
	defer backend.StaleReadFloorBug.Store(false)
	h := metrics.NewHistogram()
	found, ran, err := nemesis.Search(nemesis.SearchConfig{
		Run:    run,
		Gen:    nemesis.GenSpec{Motifs: 2},
		Budget: 200,
		Progress: func(seed int64, r *nemesis.Result) {
			h.Record(r.Elapsed)
		},
	})
	if err != nil {
		return res, fmt.Errorf("E14 control: %w", err)
	}
	if found == nil {
		return res, fmt.Errorf("E14 control: injected stale-read-floor bug not found in %d schedules", ran)
	}
	shrunk := nemesis.Shrink(found.Schedule, nemesis.FailOracle(run, 3))
	if len(shrunk.Steps) > 5 {
		return res, fmt.Errorf("E14 control: shrunk schedule has %d steps (want <= 5):\n%s",
			len(shrunk.Steps), shrunk.Encode())
	}
	s := h.Snapshot()
	res.Rows = append(res.Rows, []string{
		"control: stale read floor", string(cluster.OAR), "3", "1",
		fmt.Sprint(ran), fmt.Sprint(ran - 1), fmt.Sprintf("seed %d", found.Seed),
		fmt.Sprint(len(shrunk.Steps)),
		s.P50.Round(time.Millisecond).String(), s.P99.Round(time.Millisecond).String(),
	})
	res.Latency = append(res.Latency, latencySample(map[string]string{
		"experiment": "E14", "row": "control", "backend": string(cluster.OAR),
	}, s, 0))
	return res, nil
}
