package core_test

import (
	"fmt"
	"testing"

	"repro/internal/check"
	"repro/internal/cluster"
)

// TestBatchingModesEquivalent runs the same workload with the batching layer
// disabled (the pre-batching wire behavior, E8's control) and adaptive (the
// default) and requires identical client-visible semantics: consecutive
// positions, correct results, and a clean trace-checker verdict.
func TestBatchingModesEquivalent(t *testing.T) {
	modes := []struct {
		name      string
		unbatched bool
	}{
		{name: "disabled", unbatched: true},
		{name: "adaptive"},
	}
	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			ck := check.New(3)
			c := mustCluster(t, cluster.Options{
				N: 3, FD: cluster.FDNever, Tracer: ck,
				Unbatched: m.unbatched,
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
