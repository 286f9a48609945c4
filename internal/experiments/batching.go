package experiments

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/check"
	"repro/internal/cluster"
	"repro/internal/memnet"
)

// pipelinedLoad drives ~total requests through clients client endpoints,
// each invoked from outstanding concurrent goroutines (a pipelined open-ish
// load, unlike runClosedLoop's one-outstanding-per-client). It returns the
// number of requests actually executed (total rounded to a whole number per
// worker, at least one each) and the elapsed wall time. Pipelining is what
// gives the hot path something to coalesce: several requests of the same
// client can complete in one delivery round and share one reply frame.
func pipelinedLoad(c *cluster.Cluster, clients, outstanding, total int) (int, time.Duration, error) {
	return pipelinedLoadCmd(c, clients, outstanding, total, func(i, w, j int) []byte {
		return []byte(fmt.Sprintf("req %d %d %d", i, w, j))
	})
}

// pipelinedLoadCmd is pipelinedLoad with a caller-supplied command
// generator. Sharded experiments use it to issue commands with per-request
// keys, so the key-hash router spreads the load over all ordering groups.
func pipelinedLoadCmd(c *cluster.Cluster, clients, outstanding, total int, cmdf func(i, w, j int) []byte) (int, time.Duration, error) {
	var wg sync.WaitGroup
	workers := clients * outstanding
	errCh := make(chan error, workers)
	per := max(1, total/workers)
	start := time.Now()
	for i := 0; i < clients; i++ {
		cli, err := c.NewClient()
		if err != nil {
			return 0, 0, err
		}
		for w := 0; w < outstanding; w++ {
			wg.Add(1)
			go func(i, w int, cli cluster.Invoker) {
				defer wg.Done()
				ctx, cancel := context.WithTimeout(context.Background(), invokeTimeout)
				defer cancel()
				for j := 0; j < per; j++ {
					if _, err := cli.Invoke(ctx, cmdf(i, w, j)); err != nil {
						errCh <- fmt.Errorf("client %d/%d: %w", i, w, err)
						return
					}
				}
				errCh <- nil
			}(i, w, cli)
		}
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(errCh)
	for err := range errCh {
		if err != nil {
			return 0, 0, err
		}
	}
	return per * workers, elapsed, nil
}

// E8Batching measures the end-to-end effect of the message-batching layer on
// the optimistic hot path: OAR with the layer off (Unbatched, the
// pre-batching behavior) vs. OAR with adaptive batching, against the ctab
// baseline, on the instant in-memory network where protocol CPU and message
// count — not simulated wire latency — are the bottleneck. The OAR rows run
// under the full trace checker, so the throughput numbers only count if
// Propositions 1–7 still hold.
func E8Batching(cfg Config) (Result, error) {
	res := Result{
		ID:     "E8",
		Title:  "sequencer batching on the optimistic hot path (instant network, n=3)",
		Header: []string{"mode", "clients×pipeline", "req/s", "frames/req", "batched/req", "seqorders", "violations"},
		Notes: []string{
			"unbatched = batching layer off (one SeqOrder and one reply frame per request)",
			"batched coalesces each round's orders and per-client replies into proto.Batch frames",
			"frames/req and batched/req come from the transport's batching counters (also in oar.Stats)",
		},
	}
	total := cfg.requests(8000)
	const nClients, outstanding = 8, 16
	modes := []struct {
		name      string
		protocol  cluster.Protocol
		unbatched bool
		checked   bool
	}{
		{"oar/unbatched", cluster.OAR, true, true},
		{"oar/batched", cluster.OAR, false, true},
		{"ctab", cluster.CTab, false, false},
	}
	for _, m := range modes {
		opts := cluster.Options{
			Protocol:  m.protocol,
			N:         3,
			FD:        cluster.FDNever,
			Net:       memnet.Options{Seed: 21}, // instant delivery
			Unbatched: m.unbatched,
		}
		var ck *check.Checker
		if m.checked {
			ck = check.New(3)
			opts.Tracer = ck
		}
		c, err := cluster.New(opts)
		if err != nil {
			return res, err
		}
		c.ResetNetStats()
		executed, elapsed, err := pipelinedLoad(c, nClients, outstanding, total)
		stats := c.NetTotal()
		var orders uint64
		if m.protocol == cluster.OAR {
			orders = c.TotalStats().SeqOrdersSent
		}
		c.Stop()
		if err != nil {
			return res, fmt.Errorf("E8 %s: %w", m.name, err)
		}
		violations := "-"
		if ck != nil {
			violations = fmt.Sprint(len(ck.Verify()))
		}
		ordersCol := "-"
		if m.protocol == cluster.OAR {
			ordersCol = fmt.Sprint(orders)
		}
		res.Rows = append(res.Rows, []string{
			m.name,
			fmt.Sprintf("%d×%d", nClients, outstanding),
			fmt.Sprintf("%.0f", float64(executed)/elapsed.Seconds()),
			fmt.Sprintf("%.1f", float64(stats.MessagesSent)/float64(executed)),
			fmt.Sprintf("%.1f", float64(stats.BatchedMessages)/float64(executed)),
			ordersCol,
			violations,
		})
	}
	return res, nil
}
