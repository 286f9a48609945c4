package oar_test

import (
	"context"
	"testing"
	"time"

	oar "repro"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// TestTCPWorkloadLatency runs the workload engine against a 3-replica
// cluster over real TCP sockets (the CI smoke step does the same against
// separate oar-server processes), every command on the ordered path, and
// checks that both latency views — the engine's per-path histograms and the
// TCP client's own send-to-adopt histogram — are filled and consistent, and
// that the engine's read-your-writes oracle engaged.
func TestTCPWorkloadLatency(t *testing.T) {
	addrs := []string{"127.0.0.1:39561", "127.0.0.1:39562", "127.0.0.1:39563"}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for rank := range addrs {
		rank := rank
		go func() {
			_ = oar.ListenAndServe(ctx, oar.ServerOptions{
				Rank:             rank,
				Peers:            addrs,
				Machine:          "kv",
				SuspicionTimeout: 200 * time.Millisecond,
			})
		}()
	}

	cli, err := oar.NewTCPClient(oar.ClientOptions{Servers: addrs})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	const requests, warmup = 160, 16
	spec := workload.Spec{
		Workers:  4,
		Requests: requests,
		Warmup:   warmup,
		Keys:     64,
		Dist:     workload.Zipfian,
		Seed:     5,
	}
	invoke := func(ctx context.Context, cmd []byte, _ bool) ([]byte, error) {
		r, err := cli.Invoke(ctx, cmd)
		return r.Result, err
	}
	rctx, rcancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer rcancel()
	rep, err := workload.RunRW(rctx, spec, []workload.RWInvoke{invoke}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}

	if got := rep.Latency.Count + rep.ReadLatency.Count; rep.Measured != requests || got != requests {
		t.Fatalf("measured %d (samples %d), want %d", rep.Measured, got, requests)
	}
	for _, s := range []metrics.Snapshot{rep.Latency, rep.ReadLatency} {
		if s.P50 <= 0 || s.P99 < s.P50 || s.Max < s.P99 {
			t.Errorf("malformed engine percentiles: %+v", s)
		}
	}
	if rep.Throughput <= 0 {
		t.Errorf("throughput = %v", rep.Throughput)
	}
	if rep.RYWChecked == 0 {
		t.Error("read-your-writes oracle never engaged")
	}

	// The client's own histogram covers warmup and reads too, and its
	// percentiles must bracket the engine's: the engine measures a subset of
	// the same invocations (closed loop: identical start/stop points), so
	// its p50 cannot exceed the client's max and vice versa.
	cs := cli.Stats()
	if cs.Latency.Count != requests+warmup {
		t.Errorf("client recorded %d samples, want %d", cs.Latency.Count, requests+warmup)
	}
	if cs.Latency.P50 <= 0 || cs.Latency.Max < rep.Latency.P50 || rep.Latency.Max < cs.Latency.P50 {
		t.Errorf("client/engine percentiles disagree wildly: client %+v engine %+v", cs.Latency, rep.Latency)
	}
	if cs.FramesSent == 0 || cs.FramesReceived == 0 {
		t.Errorf("wire counters empty: %+v", cs)
	}
}
