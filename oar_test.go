package oar_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	oar "repro"
	"repro/internal/cluster"
)

func TestClusterQuickstart(t *testing.T) {
	c, err := oar.NewCluster(oar.ClusterOptions{Replicas: 3, Machine: "kv"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	cli, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	if _, err := cli.Invoke(ctx, []byte("set greeting hello")); err != nil {
		t.Fatal(err)
	}
	reply, err := cli.Invoke(ctx, []byte("get greeting"))
	if err != nil {
		t.Fatal(err)
	}
	if string(reply.Result) != "hello" {
		t.Fatalf("get = %q", reply.Result)
	}
	if reply.Pos != 2 {
		t.Fatalf("pos = %d, want 2", reply.Pos)
	}
	if reply.Endorsers < 2 {
		t.Fatalf("endorsers = %d, want >= majority", reply.Endorsers)
	}
	s := c.Stats()
	if s.OptDelivered == 0 {
		t.Error("no optimistic deliveries recorded")
	}
	if s.Latency.Count != 2 || s.Latency.P50 <= 0 || s.Latency.P99 < s.Latency.P50 {
		t.Errorf("latency not surfaced through Stats: %+v", s.Latency)
	}
}

func TestClusterFailover(t *testing.T) {
	c, err := oar.NewCluster(oar.ClusterOptions{
		Replicas:         3,
		Machine:          "counter",
		SuspicionTimeout: 15 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cli, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	if _, err := cli.Invoke(ctx, []byte("add 1")); err != nil {
		t.Fatal(err)
	}
	c.CrashReplica(0)
	reply, err := cli.Invoke(ctx, []byte("add 1"))
	if err != nil {
		t.Fatalf("invoke after crash: %v", err)
	}
	if string(reply.Result) != "2" {
		t.Fatalf("counter = %q, want 2", reply.Result)
	}
	if s := c.Stats(); s.Epochs == 0 {
		t.Error("fail-over closed no epochs")
	}
}

func TestShardedCluster(t *testing.T) {
	c, err := oar.NewCluster(oar.ClusterOptions{Replicas: 3, Shards: 2, Machine: "kv"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Shards() != 2 {
		t.Fatalf("Shards() = %d, want 2", c.Shards())
	}
	cli, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	const keys = 12
	for i := 0; i < keys; i++ {
		if _, err := cli.Invoke(ctx, []byte(fmt.Sprintf("set key%d v%d", i, i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < keys; i++ {
		reply, err := cli.Invoke(ctx, []byte(fmt.Sprintf("get key%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		if string(reply.Result) != fmt.Sprintf("v%d", i) {
			t.Fatalf("get key%d = %q", i, reply.Result)
		}
		if reply.Endorsers < 2 {
			t.Fatalf("endorsers = %d, want >= majority", reply.Endorsers)
		}
	}
	// 2 writes+reads per key at 3 replicas each, spread over the shards —
	// once the slowest replica has delivered too (a reply only proves a
	// majority has).
	if !cluster.WaitUntil(10*time.Second, func() bool { return c.Stats().OptDelivered == 3*2*keys }) {
		t.Errorf("OptDelivered = %d, want %d", c.Stats().OptDelivered, 3*2*keys)
	}
	s := c.Stats()
	if s.SeqOrdersSent == 0 || s.FramesSent == 0 {
		t.Errorf("batching counters not surfaced: %+v", s)
	}
	if s.Latency.Count != 2*keys {
		t.Errorf("Latency.Count = %d, want %d", s.Latency.Count, 2*keys)
	}
	var perShard uint64
	for sh := 0; sh < c.Shards(); sh++ {
		perShard += c.ShardLatency(sh).Count
	}
	if perShard != 2*keys {
		t.Errorf("shard latency counts sum to %d, want %d", perShard, 2*keys)
	}
}

func TestClusterValidation(t *testing.T) {
	if _, err := oar.NewCluster(oar.ClusterOptions{}); err == nil {
		t.Error("zero replicas accepted")
	}
	if _, err := oar.NewCluster(oar.ClusterOptions{Replicas: 3, Machine: "nope"}); err == nil {
		t.Error("unknown machine accepted")
	}
	if len(oar.Machines()) == 0 {
		t.Error("no machines listed")
	}
}

func TestTCPDeployment(t *testing.T) {
	// Three replica "processes" over real sockets plus a TCP client.
	addrs := []string{"127.0.0.1:39551", "127.0.0.1:39552", "127.0.0.1:39553"}
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

	ictx, icancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer icancel()
	for i := 1; i <= 3; i++ {
		reply, err := cli.Invoke(ictx, []byte(fmt.Sprintf("set k%d v%d", i, i)))
		if err != nil {
			t.Fatalf("tcp invoke %d: %v", i, err)
		}
		if reply.Pos != uint64(i) {
			t.Fatalf("pos = %d, want %d", reply.Pos, i)
		}
	}
	cs := cli.Stats()
	if cs.Latency.Count != 3 || cs.Latency.P50 <= 0 || cs.Latency.Max < cs.Latency.P50 {
		t.Errorf("TCP client latency not recorded: %+v", cs.Latency)
	}
	if cs.FramesSent == 0 || cs.FramesReceived == 0 || cs.BytesSent == 0 || cs.BytesReceived == 0 {
		t.Errorf("TCP wire counters empty: %+v", cs)
	}
}

// TestTCPClientsReuseAnIndex: a client that comes after an earlier one with
// the same ClientIndex — a restarted oar-client, say — is served too. The
// servers remember every delivered request id for ever, so the second client
// must not number its requests from where the first one started.
func TestTCPClientsReuseAnIndex(t *testing.T) {
	addrs := []string{"127.0.0.1:39571", "127.0.0.1:39572", "127.0.0.1:39573"}
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

	for i := 1; i <= 2; i++ {
		cli, err := oar.NewTCPClient(oar.ClientOptions{Servers: addrs, ClientIndex: 7})
		if err != nil {
			t.Fatal(err)
		}
		ictx, icancel := context.WithTimeout(context.Background(), 15*time.Second)
		reply, err := cli.Invoke(ictx, []byte(fmt.Sprintf("set k%d v%d", i, i)))
		icancel()
		cli.Close()
		if err != nil {
			t.Fatalf("client %d with index 7: %v", i, err)
		}
		if reply.Pos != uint64(i) {
			t.Fatalf("client %d adopted at pos %d, want %d", i, reply.Pos, i)
		}
	}
}

func TestServerOptionsValidation(t *testing.T) {
	if err := oar.ListenAndServe(context.Background(), oar.ServerOptions{}); err == nil {
		t.Error("empty server options accepted")
	}
	if _, err := oar.NewTCPClient(oar.ClientOptions{}); err == nil {
		t.Error("empty client options accepted")
	}
}
