package main

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/proto"
)

// The fault schedule of failover-open: half a second into the window, crash
// the current sequencer; restart it after the down time; wait until it has
// recovered; leave a quiet period; repeat while a whole cycle still fits. At
// 0.4 s each, a 20 s window holds about 22 cycles, which is what makes the
// mean gap repeat within a few percent from run to run (8 cycles of 1 s + 1 s
// did not: 13 %).
const (
	faultLeadIn   = 500 * time.Millisecond
	faultDowntime = 400 * time.Millisecond
	faultQuiet    = 400 * time.Millisecond
	// A cycle starts only if this much of the window is left, so the last
	// restarted replica has recovered before the audit compares replicas.
	faultCycleBudget = faultDowntime + faultQuiet + 500*time.Millisecond
)

// cycle is one crash/restart cycle, times relative to the window's opening.
type cycle struct {
	crash    time.Duration
	recovery time.Duration // Restart until the replica reports a completed recovery
}

// injectFaults runs the schedule against the system's cluster until the
// window (opened at base, dur long) has no room for another cycle. lastEpoch
// is the epoch of the last adopted reply, which names the sequencer —
// group[epoch mod n] — from outside the program. onCrash, if set, lets a traced
// run see each crash as it is injected.
func injectFaults(ctx context.Context, sys *system, base time.Time, dur time.Duration, lastEpoch *atomic.Uint64, onCrash func(id proto.NodeID, at time.Time)) ([]cycle, error) {
	var cycles []cycle
	c := sys.mem
	if !sleepUntil(ctx, base.Add(faultLeadIn)) {
		return cycles, nil
	}
	for time.Since(base)+faultCycleBudget <= dur {
		victim := int(lastEpoch.Load() % uint64(len(c.Group())))
		// A restarted replica counts from zero again: keep what this
		// incarnation counted, for the per-operation counter ratios.
		sys.lost.Accumulate(c.ReplicaStats(0, victim))
		at := time.Now()
		c.Crash(0, victim)
		if onCrash != nil {
			onCrash(c.Group()[victim], at)
		}
		cy := cycle{crash: at.Sub(base)}
		if !sleepUntil(ctx, at.Add(faultDowntime)) {
			return cycles, ctx.Err()
		}
		restart := time.Now()
		if err := c.Restart(0, victim); err != nil {
			return cycles, fmt.Errorf("fault cycle %d: %w", len(cycles), err)
		}
		if !cluster.WaitUntil(10*time.Second, func() bool { return c.ReplicaStats(0, victim).Recoveries >= 1 }) {
			return cycles, fmt.Errorf("fault cycle %d: replica %d did not recover within 10s of its restart", len(cycles), victim)
		}
		cy.recovery = time.Since(restart)
		cycles = append(cycles, cy)
		if !sleepUntil(ctx, time.Now().Add(faultQuiet)) {
			return cycles, ctx.Err()
		}
	}
	return cycles, nil
}

// sleepUntil sleeps until t and reports whether ctx is still live.
func sleepUntil(ctx context.Context, t time.Time) bool {
	timer := time.NewTimer(time.Until(t))
	defer timer.Stop()
	select {
	case <-timer.C:
		return true
	case <-ctx.Done():
		return false
	}
}
