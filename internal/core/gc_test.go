package core_test

import (
	"fmt"
	"testing"

	"repro/internal/check"
	"repro/internal/cluster"
	"repro/internal/core"
)

// footprint reaches through the protocol-agnostic replica handle to the OAR
// server's bookkeeping sizes. The cluster must be stopped.
func footprint(c *cluster.Cluster, i int) core.Footprint {
	return c.Replica(0, i).(*core.Server).Footprint()
}

// TestBookkeepingBoundedByEpochGC is the regression test for the unbounded
// per-request state growth: before the fix, the replica kept every request
// ever R-delivered, forever. With epoch GC on (EpochRequestLimit),
// everything a replica buffers for a request must be released once the
// request is A-delivered, so the live footprint after a long run stays
// bounded by the in-flight window rather than the run length.
func TestBookkeepingBoundedByEpochGC(t *testing.T) {
	const (
		limit    = 8
		requests = 240
	)
	ck := check.New(3)
	c := mustCluster(t, cluster.Options{
		N: 3, FD: cluster.FDNever, Tracer: ck,
		EpochRequestLimit: limit,
	})
	cli, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < requests; i++ {
		invoke(t, cli, fmt.Sprintf("m%d", i))
	}

	// Once nothing moves any more, every request is definitively delivered
	// everywhere and the live tables are drained: nothing is pending and only
	// the tail epoch's requests (not yet forced through phase 2 by the limit)
	// may still be buffered. The sizes are the event loops' own state, so
	// they are read after the loops have exited.
	if !c.Quiesce(testTimeout) {
		t.Fatal("cluster did not quiesce")
	}
	c.Stop()
	maxLive := 3 * limit
	for i := 0; i < 3; i++ {
		fp := footprint(c, i)
		if fp.ADelivered < requests-limit || fp.Live > maxLive || fp.Pending != 0 {
			t.Fatalf("p%d: per-request bookkeeping did not drain after A-delivery: %+v", i, fp)
		}
	}
	for i := 0; i < 3; i++ {
		fp := footprint(c, i)
		if fp.Live > maxLive || fp.ODelivered > maxLive {
			t.Errorf("p%d: live footprint not bounded by the epoch limit: %+v", i, fp)
		}
		if fp.Live >= requests/2 {
			t.Errorf("p%d: the epoch table grew with the run length: %+v", i, fp)
		}
	}
	verifyAll(t, ck, true)
}
