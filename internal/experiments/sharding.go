package experiments

import (
	"fmt"
	"runtime"

	"repro/internal/backend"
	"repro/internal/check"
	"repro/internal/cluster"
	"repro/internal/memnet"
)

// E9ShardScaling measures throughput as the keyspace is sharded across
// independent OAR ordering groups (1, 2, 4, ... groups of n=3 each) on the
// instant in-memory network, under the same pipelined load as E8. Every
// group runs under its own trace checker, so the scaling numbers only count
// if each shard still satisfies Propositions 1–7 on its own key subspace.
//
// The expected shape: a single group is capped by one sequencer's event
// loop, so with enough CPU cores throughput grows near-linearly in the shard
// count (the acceptance target is ≥2.5x at 4 shards). On machines with fewer
// cores than event loops the shards time-slice one another and the speedup
// column flattens toward 1x — the gocpus column records what the run had to
// work with.
func E9ShardScaling(cfg Config) (Result, error) {
	res := Result{
		ID:     "E9",
		Title:  "keyspace sharding across independent OAR groups (instant network, n=3 per group)",
		Header: []string{"shards", "clients×pipeline", "req/s", "speedup", "frames/req", "seqorders", "violations", "gocpus"},
		Notes: []string{
			"each shard is a full OAR group with its own sequencer, network and trace checker",
			"clients route by fnv key hash (per-request keys here, so load spreads evenly)",
			"speedup is vs the 1-shard row; it needs >= shards x n cores to approach shards x",
		},
	}
	counts := []int{1, 2, 4}
	if cfg.Quick {
		counts = []int{1, 2}
	}
	if max := cfg.Shards; max > 0 {
		counts = counts[:0]
		for s := 1; s <= max; s *= 2 {
			counts = append(counts, s)
		}
	}
	total := cfg.requests(8000)
	const nClients, outstanding = 8, 16
	var base float64
	for _, shards := range counts {
		cks := make([]*check.Checker, shards)
		for i := range cks {
			cks[i] = check.New(3)
		}
		c, err := cluster.New(cluster.Options{
			N:         3,
			Shards:    shards,
			FD:        cluster.FDNever,
			Net:       memnet.Options{Seed: 23}, // instant delivery
			TracerFor: func(s int) backend.Tracer { return cks[s] },
		})
		if err != nil {
			return res, err
		}
		c.ResetNetStats()
		executed, elapsed, err := pipelinedLoadCmd(c, nClients, outstanding, total, func(i, w, j int) []byte {
			// One key per request: the router spreads them uniformly.
			return []byte(fmt.Sprintf("k%d.%d.%d x", i, w, j))
		})
		stats := c.NetTotal()
		orders := c.TotalStats().SeqOrdersSent
		c.Stop()
		if err != nil {
			return res, fmt.Errorf("E9 shards=%d: %w", shards, err)
		}
		violations := 0
		for _, ck := range cks {
			violations += len(ck.Verify())
		}
		throughput := float64(executed) / elapsed.Seconds()
		if shards == 1 {
			base = throughput
		}
		res.Rows = append(res.Rows, []string{
			fmt.Sprint(shards),
			fmt.Sprintf("%d×%d", nClients, outstanding),
			fmt.Sprintf("%.0f", throughput),
			fmt.Sprintf("%.2fx", throughput/base),
			fmt.Sprintf("%.1f", float64(stats.MessagesSent)/float64(executed)),
			fmt.Sprint(orders),
			fmt.Sprint(violations),
			fmt.Sprint(runtime.GOMAXPROCS(0)),
		})
	}
	return res, nil
}
