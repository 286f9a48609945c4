// Benchmarks regenerating every experiment of DESIGN.md (one benchmark per
// table/figure; EXPERIMENTS.md records representative output):
//
//	go test -bench=. -benchmem
//
// The scenario benchmarks (E1, E3, E4) replay a fault per iteration and
// report protocol-level counters via b.ReportMetric; the load benchmarks
// (E2, E5, E6, E7, A1) run b.N requests against a live in-process cluster
// with LAN-like simulated latency, so ns/op is the per-request latency of
// the respective protocol.
package oar_test

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/cnsvorder"
	"repro/internal/consensus"
	"repro/internal/experiments"
	"repro/internal/memnet"
	"repro/internal/proto"
	"repro/internal/rmcast"
	"repro/internal/workload"
)

// benchNet is the campus-network latency model shared with the experiment
// suite: 1–2ms one-way. (Sub-millisecond simulated delays would be flattened
// by OS sleep granularity; hop-count shapes are what the paper's claims are
// about.)
func benchNet(seed int64) memnet.Options {
	return memnet.Options{
		MinDelay: time.Millisecond,
		MaxDelay: 2 * time.Millisecond,
		Seed:     seed,
	}
}

// benchCluster boots a cluster for a load benchmark and returns an invoking
// closure plus a cleanup.
func benchCluster(b *testing.B, opts cluster.Options) (*cluster.Cluster, func(cmd string)) {
	b.Helper()
	c, err := cluster.New(opts)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(c.Stop)
	cli, err := c.NewClient()
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	return c, func(cmd string) {
		if _, err := cli.Invoke(ctx, []byte(cmd)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE1Figure1b replays the Figure 1(b) fault per iteration and
// reports external inconsistencies per run: >0 for the baseline, 0 for OAR.
func BenchmarkE1Figure1b(b *testing.B) {
	for _, p := range []cluster.Protocol{cluster.FixedSeq, cluster.OAR} {
		b.Run(p.String(), func(b *testing.B) {
			var inconsistencies, rollbacks int
			for i := 0; i < b.N; i++ {
				out, err := experiments.RunFigure1b(p)
				if err != nil {
					b.Fatal(err)
				}
				inconsistencies += out.External
				rollbacks += out.Undeliveries
			}
			b.ReportMetric(float64(inconsistencies)/float64(b.N), "inconsistencies/run")
			b.ReportMetric(float64(rollbacks)/float64(b.N), "rollbacks/run")
		})
	}
}

// BenchmarkE2FailureFreeLatency: ns/op is the client-observed request
// latency on the failure-free path; msgs/req counts protocol traffic.
func BenchmarkE2FailureFreeLatency(b *testing.B) {
	for _, n := range []int{3, 5, 7} {
		for _, p := range []cluster.Protocol{cluster.OAR, cluster.FixedSeq, cluster.CTab} {
			b.Run(fmt.Sprintf("%s/n=%d", p, n), func(b *testing.B) {
				c, invoke := benchCluster(b, cluster.Options{
					Protocol: p, N: n, FD: cluster.FDNever, Net: benchNet(int64(n)),
				})
				c.Net(0).ResetStats()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					invoke(fmt.Sprintf("m%d", i))
				}
				b.StopTimer()
				b.ReportMetric(float64(c.Net(0).Stats().MessagesSent)/float64(b.N), "msgs/req")
			})
		}
	}
}

// BenchmarkE3Failover: each iteration boots a cluster, crashes the
// sequencer and measures the time until the next reply is adopted.
func BenchmarkE3Failover(b *testing.B) {
	for _, fdTimeout := range []time.Duration{5 * time.Millisecond, 25 * time.Millisecond} {
		b.Run(fmt.Sprintf("fd=%v", fdTimeout), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				c, err := cluster.New(cluster.Options{
					N: 3, Net: benchNet(int64(i)),
					FDTimeout:         fdTimeout,
					HeartbeatInterval: fdTimeout / 4,
				})
				if err != nil {
					b.Fatal(err)
				}
				cli, err := c.NewClient()
				if err != nil {
					b.Fatal(err)
				}
				ctx := context.Background()
				if _, err := cli.Invoke(ctx, []byte("warm")); err != nil {
					b.Fatal(err)
				}
				c.Crash(0, 0)
				b.StartTimer()
				if _, err := cli.Invoke(ctx, []byte("recover")); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				c.Stop()
				b.StartTimer()
			}
		})
	}
}

// BenchmarkE4Figure4 replays the minority-partition scenario per iteration
// (OAR): rollbacks happen, clients stay consistent.
func BenchmarkE4Figure4(b *testing.B) {
	var rollbacks, inconsistencies int
	for i := 0; i < b.N; i++ {
		out, err := experiments.RunFigure4(cluster.OAR)
		if err != nil {
			b.Fatal(err)
		}
		rollbacks += out.Undeliveries
		inconsistencies += out.External + out.TotalOrder
	}
	b.ReportMetric(float64(rollbacks)/float64(b.N), "rollbacks/run")
	b.ReportMetric(float64(inconsistencies)/float64(b.N), "inconsistencies/run")
}

// BenchmarkE5Throughput: b.N requests spread over 8 concurrent closed-loop
// clients; ns/op ≈ 1/throughput.
func BenchmarkE5Throughput(b *testing.B) {
	for _, p := range []cluster.Protocol{cluster.OAR, cluster.FixedSeq, cluster.CTab} {
		b.Run(p.String(), func(b *testing.B) {
			c, err := cluster.New(cluster.Options{
				Protocol: p, N: 3, FD: cluster.FDNever, Net: benchNet(5),
			})
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(c.Stop)
			const workers = 8
			clients := make([]cluster.Invoker, workers)
			for i := range clients {
				cli, err := c.NewClient()
				if err != nil {
					b.Fatal(err)
				}
				clients[i] = cli
			}
			ctx := context.Background()
			var next int64
			var mu sync.Mutex
			b.ResetTimer()
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for {
						mu.Lock()
						if next >= int64(b.N) {
							mu.Unlock()
							return
						}
						next++
						i := next
						mu.Unlock()
						if _, err := clients[w].Invoke(ctx, []byte(fmt.Sprintf("m%d", i))); err != nil {
							b.Error(err)
							return
						}
					}
				}(w)
			}
			wg.Wait()
		})
	}
}

// BenchmarkE6EpochGC: request latency with the Section 5.3 periodic
// PhaseII garbage collection at various epoch limits.
func BenchmarkE6EpochGC(b *testing.B) {
	for _, limit := range []int{0, 32, 256} {
		b.Run(fmt.Sprintf("limit=%d", limit), func(b *testing.B) {
			c, invoke := benchCluster(b, cluster.Options{
				N: 3, FD: cluster.FDNever, Net: benchNet(11), EpochRequestLimit: limit,
			})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				invoke(fmt.Sprintf("m%d", i))
			}
			b.StopTimer()
			b.ReportMetric(float64(c.ReplicaStats(0, 0).Epochs), "epochs")
		})
	}
}

// BenchmarkE7QuorumRule: the client-rule cost — OAR's majority-weight wait
// vs the baseline's first reply, identical network and group size.
func BenchmarkE7QuorumRule(b *testing.B) {
	for _, n := range []int{3, 5, 7} {
		for _, p := range []cluster.Protocol{cluster.OAR, cluster.FixedSeq} {
			b.Run(fmt.Sprintf("%s/n=%d", p, n), func(b *testing.B) {
				_, invoke := benchCluster(b, cluster.Options{
					Protocol: p, N: n, FD: cluster.FDNever, Net: benchNet(int64(3 * n)),
				})
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					invoke(fmt.Sprintf("m%d", i))
				}
			})
		}
	}
}

// BenchmarkE8BatchedThroughput: the message-batching layer on the optimistic
// hot path. b.N requests from 8 clients with 16 pipelined invokes each, on
// the instant in-memory network where protocol CPU and message count are the
// bottleneck; ns/op ≈ 1/throughput. "unbatched" disables the batching layer
// (one SeqOrder and one frame per message, the pre-batching behavior),
// "batched" uses the adaptive default, "ctab" is the consensus baseline.
func BenchmarkE8BatchedThroughput(b *testing.B) {
	modes := []struct {
		name      string
		protocol  cluster.Protocol
		unbatched bool
	}{
		{"unbatched", cluster.OAR, true},
		{"batched", cluster.OAR, false},
		{"ctab", cluster.CTab, false},
	}
	for _, m := range modes {
		b.Run(m.name, func(b *testing.B) {
			c, err := cluster.New(cluster.Options{
				Protocol: m.protocol, N: 3, FD: cluster.FDNever,
				Net:       memnet.Options{Seed: 17}, // instant delivery
				Unbatched: m.unbatched,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(c.Stop)
			const clients, outstanding = 8, 16
			workers := make([]cluster.Invoker, clients)
			for i := range workers {
				cli, err := c.NewClient()
				if err != nil {
					b.Fatal(err)
				}
				workers[i] = cli
			}
			ctx := context.Background()
			c.Net(0).ResetStats()
			var next atomic.Int64
			b.ResetTimer()
			var wg sync.WaitGroup
			for w := 0; w < clients*outstanding; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					cli := workers[w%clients]
					for {
						i := next.Add(1)
						if i > int64(b.N) {
							return
						}
						if _, err := cli.Invoke(ctx, []byte(fmt.Sprintf("m%d", i))); err != nil {
							b.Error(err)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			b.StopTimer()
			b.ReportMetric(float64(c.Net(0).Stats().MessagesSent)/float64(b.N), "frames/req")
		})
	}
}

// BenchmarkE9ShardScaling: throughput at 1/2/4 independent OAR groups with
// key-hash routing, on the instant in-memory network. b.N requests (each
// with its own key, so load spreads uniformly) from 8 clients with 16
// pipelined invokes each; ns/op ≈ 1/throughput, so the 4-shard/1-shard
// ns/op ratio is the scaling factor. Scaling requires cores: each shard adds
// three replica event loops that want a CPU of their own.
func BenchmarkE9ShardScaling(b *testing.B) {
	for _, shards := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			c, err := cluster.New(cluster.Options{
				N: 3, Shards: shards, FD: cluster.FDNever,
				Net: memnet.Options{Seed: 29}, // instant delivery
			})
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(c.Stop)
			const clients, outstanding = 8, 16
			workers := make([]cluster.Invoker, clients)
			for i := range workers {
				cli, err := c.NewClient()
				if err != nil {
					b.Fatal(err)
				}
				workers[i] = cli
			}
			ctx := context.Background()
			c.ResetNetStats()
			var next atomic.Int64
			b.ResetTimer()
			var wg sync.WaitGroup
			for w := 0; w < clients*outstanding; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					cli := workers[w%clients]
					for {
						i := next.Add(1)
						if i > int64(b.N) {
							return
						}
						if _, err := cli.Invoke(ctx, []byte(fmt.Sprintf("k%d m", i))); err != nil {
							b.Error(err)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			b.StopTimer()
			b.ReportMetric(float64(shards), "shards")
			b.ReportMetric(float64(c.NetTotal().MessagesSent)/float64(b.N), "frames/req")
		})
	}
}

// BenchmarkE11Workload: the workload engine driving a 2-shard OAR kv
// cluster, closed loop, per key distribution. b.N measured requests at 8
// workers over 2 endpoints; ns/op ≈ per-request latency under pipelining,
// and the reported p50/p99 are the engine's own percentiles.
func BenchmarkE11Workload(b *testing.B) {
	for _, dist := range workload.Dists() {
		b.Run(dist, func(b *testing.B) {
			c, err := cluster.New(cluster.Options{
				N: 3, Shards: 2, Machine: "kv", FD: cluster.FDNever,
				Net: memnet.Options{Seed: 31}, // instant delivery
			})
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(c.Stop)
			invokers := make([]workload.Invoke, 2)
			for i := range invokers {
				cli, err := c.NewClient()
				if err != nil {
					b.Fatal(err)
				}
				invokers[i] = func(ctx context.Context, cmd []byte) error {
					_, err := cli.Invoke(ctx, cmd)
					return err
				}
			}
			spec := workload.Spec{
				Workers: 8, Requests: b.N, Warmup: -1, Keys: 256, Dist: dist, Seed: 17,
			}
			b.ResetTimer()
			rep, err := workload.Run(context.Background(), spec, invokers, nil)
			b.StopTimer()
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(rep.Latency.P50)/1e3, "p50-µs")
			b.ReportMetric(float64(rep.Latency.P99)/1e3, "p99-µs")
		})
	}
}

// BenchmarkA1RelayStrategy: eager vs lazy reliable-multicast relaying.
func BenchmarkA1RelayStrategy(b *testing.B) {
	for _, mode := range []rmcast.Mode{rmcast.Eager, rmcast.Lazy} {
		name := "eager"
		if mode == rmcast.Lazy {
			name = "lazy"
		}
		b.Run(name, func(b *testing.B) {
			c, invoke := benchCluster(b, cluster.Options{
				N: 5, FD: cluster.FDNever, Net: benchNet(13), RelayMode: mode,
			})
			c.Net(0).ResetStats()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				invoke(fmt.Sprintf("m%d", i))
			}
			b.StopTimer()
			b.ReportMetric(float64(c.Net(0).Stats().MessagesSent)/float64(b.N), "msgs/req")
		})
	}
}

// BenchmarkA2UndoThriftiness: Cnsv-order with and without the lines 15–19
// optimization, on synthetic epochs; undos/op shows the saving.
func BenchmarkA2UndoThriftiness(b *testing.B) {
	// One representative epoch where thriftiness saves everything: the
	// process delivered a prefix nobody else saw, and the merged
	// notdlv re-schedules it in the same order.
	req := func(i int) proto.Request {
		return proto.Request{ID: proto.RequestID{Client: proto.ClientID(0), Seq: uint64(i)}}
	}
	var all []proto.Request
	for i := 0; i < 64; i++ {
		all = append(all, req(i))
	}
	own := cnsvorder.Input{Dlv: all}
	other := cnsvorder.Input{NotDlv: all}
	decision := consensus.Decision{
		{From: 1, Val: other.Marshal()},
		{From: 2, Val: other.Marshal()},
	}
	for _, thrifty := range []bool{true, false} {
		name := "thrifty"
		if !thrifty {
			name = "no-thrift"
		}
		b.Run(name, func(b *testing.B) {
			var undos int
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := cnsvorder.ComputeOpt(own, decision, thrifty)
				if err != nil {
					b.Fatal(err)
				}
				undos += len(res.Bad)
			}
			b.ReportMetric(float64(undos)/float64(b.N), "undos/op")
		})
	}
}

// BenchmarkConsensusDecide measures one full Maj-validity consensus round
// over the in-memory network (the cost of an OAR conservative phase).
func BenchmarkConsensusDecide(b *testing.B) {
	for _, n := range []int{3, 5, 7} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				c, err := cluster.New(cluster.Options{
					N: n, Net: benchNet(int64(i)), EpochRequestLimit: 1,
					FDTimeout: time.Second,
				})
				if err != nil {
					b.Fatal(err)
				}
				cli, err := c.NewClient()
				if err != nil {
					b.Fatal(err)
				}
				ctx := context.Background()
				b.StartTimer()
				// One request with EpochRequestLimit=1 forces a full
				// PhaseII + consensus round after the optimistic delivery.
				if _, err := cli.Invoke(ctx, []byte("m")); err != nil {
					b.Fatal(err)
				}
				if !cluster.WaitUntil(10*time.Second, func() bool {
					return c.ReplicaStats(0, 0).Epochs >= 1
				}) {
					b.Fatal("phase 2 never completed")
				}
				b.StopTimer()
				c.Stop()
				b.StartTimer()
			}
		})
	}
}

// BenchmarkRandomizedSoak is a randomized end-to-end soak: random crash or
// wrong-suspicion faults under load, with the trace checker implicitly
// active in the protocols' assertions. It doubles as a stress benchmark.
func BenchmarkRandomizedSoak(b *testing.B) {
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < b.N; i++ {
		c, err := cluster.New(cluster.Options{
			N: 3, Net: benchNet(rng.Int63()),
			FDTimeout:         10 * time.Millisecond,
			HeartbeatInterval: 2 * time.Millisecond,
		})
		if err != nil {
			b.Fatal(err)
		}
		cli, err := c.NewClient()
		if err != nil {
			b.Fatal(err)
		}
		ctx := context.Background()
		crashAt := 5 + rng.Intn(10)
		for j := 0; j < 20; j++ {
			if j == crashAt {
				c.Crash(0, rng.Intn(3))
			}
			if _, err := cli.Invoke(ctx, []byte(fmt.Sprintf("m%d", j))); err != nil {
				b.Fatal(err)
			}
		}
		c.Stop()
	}
}
