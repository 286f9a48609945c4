package core_test

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/check"
	"repro/internal/cluster"
	"repro/internal/memnet"
	"repro/internal/proto"
)

// TestRandomizedFaultSoak drives randomized workloads against randomized
// fault schedules — crashes of a minority, transient link blocks, network
// jitter — and lets the trace checker judge every run against Propositions
// 1–7 and the Cnsv-order specification. Any schedule that violates safety
// fails loudly; quiescent runs are also checked for at-least-once delivery.
func TestRandomizedFaultSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak skipped in -short mode")
	}
	const seeds = 12
	for seed := int64(0); seed < seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			soakOnce(t, seed)
		})
	}
}

func soakOnce(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	n := []int{3, 3, 5}[rng.Intn(3)]
	machine := []string{"recorder", "kv", "bank", "stack"}[rng.Intn(4)]
	gc := []int{0, 4, 16}[rng.Intn(3)]

	ck := check.New(n)
	c := mustCluster(t, cluster.Options{
		N: n, Machine: machine, Tracer: ck,
		EpochRequestLimit: gc,
		FDTimeout:         12 * time.Millisecond,
		HeartbeatInterval: 3 * time.Millisecond,
		Net: memnet.Options{
			MaxDelay: time.Duration(rng.Intn(3)) * time.Millisecond,
			Seed:     seed + 1,
		},
	})

	// Fault schedule: crash up to a minority, plus one transient link block.
	maxCrash := (n - 1) / 2
	crashes := rng.Intn(maxCrash + 1)
	crashAfter := make(map[int]int) // request index -> replica
	for i := 0; i < crashes; i++ {
		crashAfter[3+rng.Intn(15)] = rng.Intn(n)
	}
	blockAt := -1
	if rng.Intn(2) == 0 {
		blockAt = 2 + rng.Intn(10)
	}

	const clients = 2
	const perClient = 12
	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	crashed := make(map[int]bool)
	var mu sync.Mutex

	for ci := 0; ci < clients; ci++ {
		cli, err := c.NewClient()
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(ci int, cli cluster.Invoker) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), testTimeout)
			defer cancel()
			for j := 0; j < perClient; j++ {
				step := ci*perClient + j
				mu.Lock()
				if r, ok := crashAfter[step]; ok && !crashed[r] && len(crashed) < maxCrash {
					crashed[r] = true
					ck.MarkCrashed(proto.NodeID(r))
					c.Crash(0, r)
				}
				if step == blockAt {
					a, b := proto.NodeID(rng.Intn(n)), proto.NodeID(rng.Intn(n))
					c.Net(0).Block(a, b)
					go func() {
						time.Sleep(30 * time.Millisecond)
						c.Net(0).Unblock(a, b)
					}()
				}
				mu.Unlock()

				cmd := soakCmd(machine, ci, j)
				if _, err := cli.Invoke(ctx, []byte(cmd)); err != nil {
					errCh <- fmt.Errorf("client %d step %d: %w", ci, j, err)
					return
				}
			}
			errCh <- nil
		}(ci, cli)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		if err != nil {
			t.Fatal(err)
		}
	}

	// Wait for quiescence: every live replica holds every issued request —
	// the condition VerifyLiveness goes on to assert. (A sum of delivery
	// counters can reach its target early on what crashed replicas had
	// delivered before they died.)
	cluster.WaitUntil(testTimeout, ck.LivenessSettled)
	time.Sleep(20 * time.Millisecond)

	for _, v := range ck.Verify() {
		t.Errorf("safety: %v", v)
	}
	for _, v := range ck.VerifyLiveness() {
		t.Errorf("liveness: %v", v)
	}
}

func soakCmd(machine string, ci, j int) string {
	switch machine {
	case "kv":
		return fmt.Sprintf("set k%d-%d v%d", ci, j, j)
	case "bank":
		if j == 0 {
			return fmt.Sprintf("open acct%d", ci)
		}
		return fmt.Sprintf("deposit acct%d 5", ci)
	case "stack":
		if j%3 == 2 {
			return "pop"
		}
		return fmt.Sprintf("push v%d-%d", ci, j)
	default:
		return fmt.Sprintf("cmd%d-%d", ci, j)
	}
}
