package core_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/check"
	"repro/internal/cluster"
)

// TestBatchingModesEquivalent runs the same workload under the batching
// layer's configurations — disabled (the pre-batching wire behavior),
// adaptive, windowed and self-tuned — and requires identical client-visible
// semantics: consecutive positions, correct results, and a clean
// trace-checker verdict.
func TestBatchingModesEquivalent(t *testing.T) {
	modes := []struct {
		name        string
		batchWindow time.Duration
		maxBatch    int
		autoTune    bool
	}{
		{name: "disabled", batchWindow: -1, maxBatch: 1},
		{name: "adaptive", batchWindow: 0, maxBatch: 0},
		{name: "windowed", batchWindow: 2 * time.Millisecond, maxBatch: 4},
		{name: "autotune", batchWindow: 0, maxBatch: 0, autoTune: true},
	}
	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			ck := check.New(3)
			c := mustCluster(t, cluster.Options{
				N: 3, FD: cluster.FDNever, Tracer: ck,
				BatchWindow: m.batchWindow, MaxBatch: m.maxBatch,
				AutoTune: m.autoTune,
			})
			cli, err := c.NewClient()
			if err != nil {
				t.Fatal(err)
			}
			for i := 1; i <= 8; i++ {
				reply := invoke(t, cli, fmt.Sprintf("m%d", i))
				if reply.Pos != uint64(i) {
					t.Fatalf("request %d adopted at pos %d", i, reply.Pos)
				}
				if string(reply.Result) != fmt.Sprint(i) {
					t.Fatalf("request %d result %q", i, reply.Result)
				}
			}
			ok := cluster.WaitUntil(testTimeout, func() bool {
				return c.TotalStats().OptDelivered == 24
			})
			if !ok {
				t.Fatalf("not all replicas delivered: %+v", c.TotalStats())
			}
			fingerprintsConverge(t, c, []int{0, 1, 2})
			verifyAll(t, ck, true)
		})
	}
}
