package experiments

import (
	"fmt"
	"time"

	"repro/internal/backend"
	"repro/internal/check"
	"repro/internal/cluster"
	"repro/internal/memnet"
)

// E10BackendMatrix sweeps the full backend × shards × fault matrix through
// the one protocol-agnostic replica runtime: every registered built-in
// backend (or the subset selected with -protocol), at 1/2(/4) ordering
// groups, with and without a mid-run crash of one group's rank-0 replica —
// the epoch-0 sequencer for OAR and fixedseq, the first consensus
// coordinator for ctab. All cells run the identical cluster code path and
// the identical transport-batching layer; the OAR cells additionally run
// one trace checker per ordering group, so the matrix's numbers only count
// where Propositions 1–7 still hold.
//
// This is the experiment the refactor exists for: before it, the baselines
// could not shard at all and bypassed the proto.Batch layer entirely, so
// cross-protocol rows compared transports as much as protocols.
func E10BackendMatrix(cfg Config) (Result, error) {
	res := Result{
		ID:     "E10",
		Title:  "backend × shards × fault matrix through the unified replica runtime (instant network, n=3 per group)",
		Header: []string{"backend", "shards", "fault", "req/s", "frames/req", "batched/req", "violations"},
		Notes: []string{
			"fault = crash of one group's rank-0 replica between two load phases (heartbeat ◊S fail-over)",
			"every cell boots through the same backend registry path; baselines shard and batch like OAR",
			"violations come from one trace checker per OAR ordering group; baselines are unchecked (-)",
		},
	}
	shardCounts := []int{1, 2}
	if !cfg.Quick {
		shardCounts = []int{1, 2, 4}
	}
	total := cfg.requests(4000)
	const nClients, outstanding = 4, 8
	for _, p := range cfg.protocols() {
		for _, shards := range shardCounts {
			for _, fault := range []bool{false, true} {
				row, err := e10Cell(p, shards, fault, total, nClients, outstanding)
				if err != nil {
					return res, fmt.Errorf("E10 %v shards=%d fault=%v: %w", p, shards, fault, err)
				}
				res.Rows = append(res.Rows, row)
			}
		}
	}
	return res, nil
}

// e10Cell runs one cell of the matrix and returns its table row.
func e10Cell(p cluster.Protocol, shards int, fault bool, total, nClients, outstanding int) ([]string, error) {
	checked := p == cluster.OAR
	var cks []*check.Checker
	opts := cluster.Options{
		Protocol: p,
		N:        3,
		Shards:   shards,
		FD:       cluster.FDNever,
		Net:      memnet.Options{Seed: 29}, // instant delivery
	}
	if checked {
		cks = make([]*check.Checker, shards)
		for i := range cks {
			cks[i] = check.New(3)
		}
		opts.TracerFor = func(s int) backend.Tracer { return cks[s] }
	}
	if fault {
		// The crash cells need a live detector; the generous timeout keeps
		// loaded event loops from false-suspecting on 1-vCPU CI boxes (false
		// suspicion is safe for OAR and ctab, merely noisy — but it would
		// blur the fail-over cost this cell measures).
		opts.FD = cluster.FDHeartbeat
		opts.FDTimeout = 100 * time.Millisecond
		opts.HeartbeatInterval = 20 * time.Millisecond
	}
	c, err := cluster.New(opts)
	if err != nil {
		return nil, err
	}
	defer c.Stop()
	c.ResetNetStats()

	// Per-request keys spread the load over every ordering group.
	cmd := func(i, w, j int) []byte { return []byte(fmt.Sprintf("k%d.%d.%d x", i, w, j)) }
	executed, elapsed, err := pipelinedLoadCmd(c, nClients, outstanding, total/2, cmd)
	if err != nil {
		return nil, err
	}
	if fault {
		// Crash the last group's rank-0 replica: its shard must fail over
		// while the other shards keep serving undisturbed.
		wounded := shards - 1
		if checked {
			cks[wounded].MarkCrashed(c.Group()[0])
		}
		c.Crash(wounded, 0)
	}
	executed2, elapsed2, err := pipelinedLoadCmd(c, nClients, outstanding, total/2, func(i, w, j int) []byte {
		return []byte(fmt.Sprintf("p%d.%d.%d x", i, w, j))
	})
	if err != nil {
		return nil, err
	}
	executed += executed2
	elapsed += elapsed2
	stats := c.NetTotal()

	violations := "-"
	if checked {
		n := 0
		for _, ck := range cks {
			n += len(ck.Verify())
		}
		violations = fmt.Sprint(n)
	}
	faultCol := "none"
	if fault {
		faultCol = "crash"
	}
	return []string{
		p.String(),
		fmt.Sprint(shards),
		faultCol,
		fmt.Sprintf("%.0f", float64(executed)/elapsed.Seconds()),
		fmt.Sprintf("%.1f", float64(stats.MessagesSent)/float64(executed)),
		fmt.Sprintf("%.1f", float64(stats.BatchedMessages)/float64(executed)),
		violations,
	}, nil
}
