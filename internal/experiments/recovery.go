package experiments

import (
	"context"
	"fmt"
	"os"
	"time"

	"repro/internal/check"
	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/nemesis"
)

// restartSchedule builds the canonical crash-recovery schedule for a run
// with the given shard count (the committed corpus file
// internal/nemesis/testdata/corpus/restart-under-load.txt is the one-shard
// instance): replica 2 crashes mid-run, restarts while traffic is still
// flowing — catch-up racing live epochs — passes a full checkpoint in the
// recovered configuration, and is then crashed again right after rejoining.
// Shards are staggered by 3ms so their fault windows overlap but do not
// align.
func restartSchedule(shards int) *nemesis.Schedule {
	s := &nemesis.Schedule{}
	for sh := 0; sh < shards; sh++ {
		off := time.Duration(sh*3) * time.Millisecond
		add := func(at time.Duration, st nemesis.Step) {
			st.At, st.Shard = at+off, sh
			s.Steps = append(s.Steps, st)
		}
		add(6*time.Millisecond, nemesis.Step{Kind: nemesis.StepCrash, A: nemesis.Replica(2)})
		add(9*time.Millisecond, nemesis.Step{Kind: nemesis.StepSuspect, A: nemesis.Any, B: nemesis.Replica(2)})
		add(24*time.Millisecond, nemesis.Step{Kind: nemesis.StepRestart, A: nemesis.Replica(2)})
		add(28*time.Millisecond, nemesis.Step{Kind: nemesis.StepTrust, A: nemesis.Any, B: nemesis.Replica(2)})
		add(48*time.Millisecond, nemesis.Step{Kind: nemesis.StepCheckpoint})
		add(58*time.Millisecond, nemesis.Step{Kind: nemesis.StepCrash, A: nemesis.Replica(2)})
		add(61*time.Millisecond, nemesis.Step{Kind: nemesis.StepSuspect, A: nemesis.Any, B: nemesis.Replica(2)})
		add(80*time.Millisecond, nemesis.Step{Kind: nemesis.StepCheckpoint})
	}
	s.Normalize()
	return s
}

// E15Recovery exercises crash-recovery under load: every backend must survive
// a replica dying mid-run, restarting while traffic flows (local WAL replay
// plus peer catch-up for OAR; in-memory peer catch-up for the baselines),
// passing the full proposition suite — recovery proposition included — in the
// recovered configuration, and dying again right after it rejoined. The
// experiment is self-asserting: any checker violation, or a run in which the
// restarted replica fails to recover, is an error rather than a table cell.
//
// The final row isolates durability: an OAR group with a per-epoch-fsync WAL
// is put through rolling restarts — every replica killed and recovered in
// sequence, under load — and all three machines must converge to byte-exact
// fingerprints, with the checker clean and exactly one recovery observed per
// replica.
func E15Recovery(cfg Config) (Result, error) {
	res := Result{
		ID:     "E15",
		Title:  "crash-recovery under load: WAL replay + peer catch-up, checker-clean",
		Header: []string{"row", "backend", "n", "shards", "runs", "recoveries", "violations", "run p50", "run p99"},
		Notes: []string{
			"schedule per shard: crash r2, restart under load, checkpoint (full suite in the recovered configuration), crash it again",
			"oar cells run with a per-epoch-fsync WAL (restart = local replay + peer catch-up); baselines recover from peers alone",
			"the durability row rolls a crash/restart through every replica of an OAR group and asserts byte-exact fingerprint convergence",
		},
	}

	runs := 6
	if cfg.Quick {
		runs = 2
	}
	for _, sh := range []int{1, 2} {
		sched := restartSchedule(sh)
		for _, p := range cfg.protocols() {
			h := metrics.NewHistogram()
			recoveries := 0
			for seed := int64(1); seed <= int64(runs); seed++ {
				run := nemesis.Config{
					Protocol: p, N: 3, Shards: sh,
					Requests: cfg.requests(640), Workers: 4, Clients: 1,
					ReadRatio: 0.6, Seed: seed,
				}
				if p == cluster.OAR {
					dir, err := os.MkdirTemp("", "oar-e15-wal-")
					if err != nil {
						return res, err
					}
					defer os.RemoveAll(dir)
					run.WALRoot = dir
				}
				r, err := nemesis.Run(run, sched)
				if err != nil {
					return res, fmt.Errorf("E15 %v shards=%d seed=%d: %w", p, sh, seed, err)
				}
				if r.Failed() {
					return res, fmt.Errorf("E15 %v shards=%d seed=%d: violations: %v", p, sh, seed, r.Violations)
				}
				for _, c := range r.Counts {
					recoveries += c.Recoveries
				}
				h.Record(r.Elapsed)
			}
			// Every shard's victim restarts once per run and must have
			// completed recovery by the mid-run checkpoint.
			if want := runs * sh; recoveries < want {
				return res, fmt.Errorf("E15 %v shards=%d: %d recoveries over %d runs, want >= %d",
					p, sh, recoveries, runs, want)
			}
			s := h.Snapshot()
			res.Rows = append(res.Rows, []string{
				"restart under load", p.String(), "3", fmt.Sprint(sh),
				fmt.Sprint(runs), fmt.Sprint(recoveries), "0",
				s.P50.Round(time.Millisecond).String(), s.P99.Round(time.Millisecond).String(),
			})
			res.Latency = append(res.Latency, latencySample(map[string]string{
				"experiment": "E15", "row": "restart-under-load",
				"backend": p.String(), "shards": fmt.Sprint(sh),
			}, s, 0))
		}
	}

	recoveries, elapsed, err := e15RollingRestarts(cfg)
	if err != nil {
		return res, fmt.Errorf("E15 durability: %w", err)
	}
	h := metrics.NewHistogram()
	h.Record(elapsed)
	s := h.Snapshot()
	res.Rows = append(res.Rows, []string{
		"durability: rolling restarts", cluster.OAR.String(), "3", "1",
		"1", fmt.Sprint(recoveries), "0",
		s.P50.Round(time.Millisecond).String(), s.P99.Round(time.Millisecond).String(),
	})
	res.Latency = append(res.Latency, latencySample(map[string]string{
		"experiment": "E15", "row": "durability", "backend": cluster.OAR.String(),
	}, s, 0))
	return res, nil
}

// e15RollingRestarts kills and recovers every replica of a WAL-backed OAR
// group in sequence, with load between the faults, and requires byte-exact
// machine-fingerprint convergence plus a clean checker at the end.
func e15RollingRestarts(cfg Config) (int, time.Duration, error) {
	walRoot, err := os.MkdirTemp("", "oar-e15-durability-")
	if err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(walRoot)

	ck := check.New(3)
	c, err := cluster.New(cluster.Options{
		Protocol:          cluster.OAR,
		N:                 3,
		FD:                cluster.FDOracle,
		Machine:           "kv",
		EpochRequestLimit: 4,
		WALRoot:           walRoot,
		Tracer:            ck,
	})
	if err != nil {
		return 0, 0, err
	}
	defer c.Stop()
	cli, err := c.NewClient()
	if err != nil {
		return 0, 0, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	batch := cfg.requests(120) / 10 // 12 requests per load phase (3 in quick mode)
	seq := 0
	load := func() error {
		for i := 0; i < batch; i++ {
			if _, err := cli.Invoke(ctx, []byte(fmt.Sprintf("set k%d v%d", seq%16, seq))); err != nil {
				return fmt.Errorf("invoke %d: %w", seq, err)
			}
			seq++
		}
		return nil
	}

	start := time.Now()
	for victim := 0; victim < 3; victim++ {
		if err := load(); err != nil {
			return 0, 0, err
		}
		id := c.Group()[victim]
		c.Crash(0, victim)
		ck.MarkCrashed(id)
		c.Suspect(0, id)
		if err := load(); err != nil { // the surviving majority moves on
			return 0, 0, err
		}
		if err := c.Restart(0, victim); err != nil {
			return 0, 0, err
		}
		if !cluster.WaitUntil(30*time.Second, func() bool {
			return c.ReplicaStats(0, victim).Recoveries >= 1
		}) {
			return 0, 0, fmt.Errorf("replica %d never recovered", victim)
		}
		c.Trust(0, id)
	}
	if err := load(); err != nil {
		return 0, 0, err
	}

	if !cluster.WaitUntil(30*time.Second, func() bool {
		fp := c.Machine(0, 0).Fingerprint()
		return fp != "" &&
			c.Machine(0, 1).Fingerprint() == fp &&
			c.Machine(0, 2).Fingerprint() == fp
	}) {
		return 0, 0, fmt.Errorf("fingerprints diverge after rolling restarts: %q / %q / %q",
			c.Machine(0, 0).Fingerprint(), c.Machine(0, 1).Fingerprint(), c.Machine(0, 2).Fingerprint())
	}
	if !cluster.WaitUntil(30*time.Second, ck.LivenessSettled) {
		return 0, 0, fmt.Errorf("run never settled after the last recovery")
	}
	elapsed := time.Since(start)
	if vs := append(ck.Verify(), ck.VerifyLiveness()...); len(vs) > 0 {
		return 0, 0, fmt.Errorf("checker violations: %v", vs)
	}
	if got := ck.Recoveries(); got != 3 {
		return 0, 0, fmt.Errorf("checker saw %d recoveries, want 3", got)
	}
	return 3, elapsed, nil
}
