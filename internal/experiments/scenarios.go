package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/backend"
	"repro/internal/check"
	"repro/internal/cluster"
	"repro/internal/cnsvorder"
	"repro/internal/consensus"
	"repro/internal/memnet"
	"repro/internal/proto"
)

// Outcome summarizes one fault-injection run.
type Outcome struct {
	External     int // prop7 external-consistency violations
	TotalOrder   int // prop5 divergence violations
	Undeliveries int
	// UndeliveriesEpoch0 counts the Opt-undelivers of epoch 0 — the epoch
	// the scripted fault lands in. What happens after the heal is not
	// scripted: a replica that is the next epoch's sequencer by rotation
	// may Opt-deliver there before it learns the majority closed that epoch
	// without it, and then rightly undoes that too.
	UndeliveriesEpoch0 int
	OtherViols         int
}

func classify(ck *check.Checker) Outcome {
	out := Outcome{Undeliveries: ck.Undeliveries(), UndeliveriesEpoch0: ck.UndeliveriesIn(0)}
	for _, v := range ck.Verify() {
		switch v.Property {
		case "prop7 external consistency":
			out.External++
		case "prop5 total order":
			out.TotalOrder++
		default:
			out.OtherViols++
		}
	}
	return out
}

// RunFigure1b replays the Figure 1(b) fault — the sequencer's reply reaches
// the client, its ordering message is lost in the crash — against the given
// protocol, and reports what the trace checker saw.
//
// Script: stack holds [y]; client c1's "pop" reaches only the sequencer p0;
// client c2's "push x" reaches everyone; p0 processes both, replies, and
// crashes with its ordering messages undelivered; the survivors take over;
// the c1 links heal.
func RunFigure1b(protocol cluster.Protocol, extra ...backend.Tracer) (Outcome, error) {
	ck := check.New(3)
	tracer := backend.MultiTracer(append([]backend.Tracer{ck}, extra...)...)
	c, err := cluster.New(cluster.Options{
		Protocol: protocol, N: 3, Machine: "stack", Tracer: tracer,
		Net:               memnet.Options{MinDelay: 50 * time.Microsecond, MaxDelay: 150 * time.Microsecond, Seed: 5},
		FDTimeout:         10 * time.Millisecond,
		HeartbeatInterval: 2 * time.Millisecond,
	})
	if err != nil {
		return Outcome{}, err
	}
	defer c.Stop()

	c1, err := c.NewClient()
	if err != nil {
		return Outcome{}, err
	}
	c2, err := c.NewClient()
	if err != nil {
		return Outcome{}, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), invokeTimeout)
	defer cancel()

	if _, err := c1.Invoke(ctx, []byte("push y")); err != nil {
		return Outcome{}, fmt.Errorf("push y: %w", err)
	}
	if !cluster.WaitUntil(invokeTimeout, func() bool { return c.DeliveredTotal() == 3 }) {
		return Outcome{}, fmt.Errorf("push y did not replicate")
	}

	// The crash-in-flight: p0's ordering messages stop leaving the box.
	c.Net(0).SetFilter(func(from, to proto.NodeID, payload []byte) memnet.Verdict {
		if from == proto.NodeID(0) && len(payload) > 0 && proto.Kind(payload[0]) == proto.KindSeqOrder {
			return memnet.Drop
		}
		return memnet.Deliver
	})
	c1ID := proto.ClientID(0)
	c.Net(0).Block(c1ID, proto.NodeID(1))
	c.Net(0).Block(c1ID, proto.NodeID(2))

	// The unified Delivered counter makes this wait protocol-agnostic: OAR's
	// optimistic deliveries and the baseline's irrevocable ones both count.
	deliveredAtP0 := func() uint64 { return c.ReplicaStats(0, 0).Delivered }

	// c1: pop (reaches p0 only, directly); wait until p0 ordered it so that
	// p0's order is deterministically (pop; push x), as in Figure 1(b).
	popCh := make(chan proto.Reply, 1)
	go func() {
		ictx, icancel := context.WithTimeout(context.Background(), invokeTimeout)
		defer icancel()
		if r, err := c1.Invoke(ictx, []byte("pop")); err == nil {
			popCh <- r
		}
	}()
	if !cluster.WaitUntil(invokeTimeout, func() bool { return deliveredAtP0() >= 2 }) {
		return Outcome{}, fmt.Errorf("sequencer never processed pop")
	}

	// c2: push x (reaches everyone).
	pushCh := make(chan proto.Reply, 1)
	go func() {
		ictx, icancel := context.WithTimeout(context.Background(), invokeTimeout)
		defer icancel()
		if r, err := c2.Invoke(ictx, []byte("push x")); err == nil {
			pushCh <- r
		}
	}()
	if !cluster.WaitUntil(invokeTimeout, func() bool { return deliveredAtP0() >= 3 }) {
		return Outcome{}, fmt.Errorf("sequencer never processed push x")
	}
	time.Sleep(5 * time.Millisecond) // let p0's replies leave before the crash
	ck.MarkCrashed(proto.NodeID(0))
	c.Crash(0, 0)

	// Fail-over happens; then the client links heal.
	time.Sleep(50 * time.Millisecond)
	c.Net(0).Unblock(c1ID, proto.NodeID(1))
	c.Net(0).Unblock(c1ID, proto.NodeID(2))

	// Both requests must eventually complete at the survivors.
	survivorsDone := func() bool {
		return c.ReplicaStats(0, 1).Delivered >= 3 && c.ReplicaStats(0, 2).Delivered >= 3
	}
	if !cluster.WaitUntil(invokeTimeout, survivorsDone) {
		return Outcome{}, fmt.Errorf("survivors never completed the run")
	}
	// Give adoptions a moment to land, then judge the trace.
	select {
	case <-popCh:
	case <-time.After(2 * time.Second):
	}
	select {
	case <-pushCh:
	case <-time.After(2 * time.Second):
	}
	time.Sleep(20 * time.Millisecond)
	return classify(ck), nil
}

// E1ExternalInconsistency runs the Figure 1(b) fault against both the
// fixed-sequencer baseline and OAR. The baseline must exhibit external
// inconsistency; OAR must not (Proposition 7).
func E1ExternalInconsistency(cfg Config) (Result, error) {
	res := Result{
		ID:     "E1",
		Title:  "Figure 1(b) fault: crash between client reply and ordering broadcast",
		Header: []string{"protocol", "runs", "external inconsistencies", "order divergences", "opt-undeliveries"},
		Notes: []string{
			"fixedseq: the adopted reply is contradicted by the survivors (the paper's motivating flaw)",
			"oar: the client never adopts a minority-weight reply, so the same fault is harmless",
		},
	}
	runs := 3
	if cfg.Quick {
		runs = 1
	}
	for _, p := range []cluster.Protocol{cluster.FixedSeq, cluster.OAR} {
		var sum Outcome
		for r := 0; r < runs; r++ {
			out, err := RunFigure1b(p)
			if err != nil {
				return res, fmt.Errorf("E1 %v run %d: %w", p, r, err)
			}
			sum.External += out.External
			sum.TotalOrder += out.TotalOrder
			sum.Undeliveries += out.Undeliveries
		}
		res.Rows = append(res.Rows, []string{
			p.String(), fmt.Sprint(runs),
			fmt.Sprint(sum.External), fmt.Sprint(sum.TotalOrder), fmt.Sprint(sum.Undeliveries),
		})
	}
	return res, nil
}

// RunFigure4 replays the minority-partition scenario of Figure 4 (n=5, see
// DESIGN.md) against the given protocol and reports the outcome.
func RunFigure4(protocol cluster.Protocol, extra ...backend.Tracer) (Outcome, error) {
	ck := check.New(5)
	tracer := backend.MultiTracer(append([]backend.Tracer{ck}, extra...)...)
	c, err := cluster.New(cluster.Options{
		Protocol: protocol, N: 5, FD: cluster.FDOracle, Tracer: tracer,
		Net: memnet.Options{MinDelay: 50 * time.Microsecond, MaxDelay: 150 * time.Microsecond, Seed: 9},
	})
	if err != nil {
		return Outcome{}, err
	}
	defer c.Stop()

	c1, err := c.NewClient()
	if err != nil {
		return Outcome{}, err
	}
	c2, err := c.NewClient()
	if err != nil {
		return Outcome{}, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), invokeTimeout)
	defer cancel()

	for _, cmd := range []string{"m1", "m2"} {
		if _, err := c1.Invoke(ctx, []byte(cmd)); err != nil {
			return Outcome{}, fmt.Errorf("%s: %w", cmd, err)
		}
	}
	if !cluster.WaitUntil(invokeTimeout, func() bool { return c.DeliveredTotal() == 10 }) {
		return Outcome{}, fmt.Errorf("stage A incomplete")
	}

	// Partition the minority {p0 (sequencer), p1} and c1 from the majority.
	c.Net(0).BlockGroups(pminIDs, pmajIDs)
	c1ID := proto.ClientID(0)
	c.Net(0).BlockGroups([]proto.NodeID{c1ID}, pmajIDs)

	m3Ch := make(chan proto.Reply, 1)
	go func() {
		ictx, icancel := context.WithTimeout(context.Background(), invokeTimeout)
		defer icancel()
		if r, err := c1.Invoke(ictx, []byte("m3")); err == nil {
			m3Ch <- r
		}
	}()
	minorityHas := func(count uint64) bool {
		return c.ReplicaStats(0, 0).Delivered >= count && c.ReplicaStats(0, 1).Delivered >= count
	}
	if !cluster.WaitUntil(invokeTimeout, func() bool { return minorityHas(3) }) {
		return Outcome{}, fmt.Errorf("minority never processed m3")
	}

	m4Ch := make(chan proto.Reply, 1)
	go func() {
		ictx, icancel := context.WithTimeout(context.Background(), invokeTimeout)
		defer icancel()
		if r, err := c2.Invoke(ictx, []byte("m4")); err == nil {
			m4Ch <- r
		}
	}()
	if !cluster.WaitUntil(invokeTimeout, func() bool { return minorityHas(4) }) {
		return Outcome{}, fmt.Errorf("minority never processed m4")
	}

	// The majority suspects the whole minority and moves on without it.
	for _, i := range []int{2, 3, 4} {
		c.Oracle(0, i).Suspect(0)
		c.Oracle(0, i).Suspect(1)
	}
	majorityMoved := func() bool {
		if protocol == cluster.OAR {
			for _, i := range []int{2, 3, 4} {
				if c.ReplicaStats(0, i).Epochs < 1 {
					return false
				}
			}
			return true
		}
		for _, i := range []int{2, 3, 4} {
			if c.ReplicaStats(0, i).Delivered < 3 { // m1 m2 m4
				return false
			}
		}
		return true
	}
	if !cluster.WaitUntil(invokeTimeout, majorityMoved) {
		return Outcome{}, fmt.Errorf("majority never moved on")
	}

	// Heal; trust again; everything must converge.
	c.TrustEverywhere(0)
	c.TrustEverywhere(1)
	c.Net(0).Heal()

	select {
	case <-m3Ch:
	case <-time.After(5 * time.Second):
	}
	select {
	case <-m4Ch:
	case <-time.After(5 * time.Second):
	}
	// Wait for convergence of the replicated state.
	cluster.WaitUntil(5*time.Second, func() bool {
		ref := c.Machine(0, 0).Fingerprint()
		for i := 1; i < 5; i++ {
			if c.Machine(0, i).Fingerprint() != ref {
				return false
			}
		}
		return true
	})
	time.Sleep(20 * time.Millisecond)
	// Stop before reading the verdict, so that no event can land between the
	// checker's counts and what a caller's extra tracer goes on to see.
	c.Stop()
	return classify(ck), nil
}

// E4OptUndeliver runs the Figure 4 minority-partition scenario against both
// protocols: OAR repairs the divergence with Opt-undeliver and keeps clients
// consistent; the baseline splits brain and diverges permanently.
func E4OptUndeliver(cfg Config) (Result, error) {
	res := Result{
		ID:     "E4",
		Title:  "Figure 4 scenario: minority partition with sequencer (n=5)",
		Header: []string{"protocol", "runs", "opt-undeliveries (epoch 0)", "external inconsistencies", "order divergences"},
		Notes: []string{
			"oar: exactly 4 undeliveries of epoch 0 per run (m3, m4 at both minority replicas), zero client impact",
			"after the heal p1, epoch 1's sequencer by rotation, may Opt-deliver m3 there before it learns the majority closed epoch 1 without it, and undo that too: legitimate, and not counted here",
			"the three-event conjunction of Section 6 makes this the only undo-producing shape",
		},
	}
	runs := 2
	if cfg.Quick {
		runs = 1
	}
	for _, p := range []cluster.Protocol{cluster.OAR, cluster.FixedSeq} {
		var sum Outcome
		for r := 0; r < runs; r++ {
			out, err := RunFigure4(p)
			if err != nil {
				return res, fmt.Errorf("E4 %v run %d: %w", p, r, err)
			}
			sum.External += out.External
			sum.TotalOrder += out.TotalOrder
			sum.UndeliveriesEpoch0 += out.UndeliveriesEpoch0
		}
		res.Rows = append(res.Rows, []string{
			p.String(), fmt.Sprint(runs),
			fmt.Sprint(sum.UndeliveriesEpoch0), fmt.Sprint(sum.External), fmt.Sprint(sum.TotalOrder),
		})
	}
	return res, nil
}

// A2UndoThriftiness measures lines 15–19 of Figure 7 on synthetic epochs:
// how many Opt-undelivers the common-prefix optimization avoids.
func A2UndoThriftiness(cfg Config) (Result, error) {
	res := Result{
		ID:     "A2",
		Title:  "undo thriftiness (Figure 7 lines 15–19) on synthetic epochs",
		Header: []string{"mode", "epochs", "total undos", "avoided"},
		Notes:  []string{"scenarios: random delivered prefixes + random majority decisions"},
	}
	epochs := 2000
	if cfg.Quick {
		epochs = 200
	}
	rng := rand.New(rand.NewSource(42))
	var thrifty, wasteful int
	for e := 0; e < epochs; e++ {
		n := 3 + rng.Intn(5)
		total := 1 + rng.Intn(8)
		order := rng.Perm(total)
		req := func(i int) proto.Request {
			return proto.Request{ID: proto.RequestID{Client: proto.ClientID(0), Seq: uint64(i)}}
		}
		inputs := make([]cnsvorder.Input, n)
		for p := 0; p < n; p++ {
			prefix := rng.Intn(total + 1)
			var in cnsvorder.Input
			for _, i := range order[:prefix] {
				in.Dlv = append(in.Dlv, req(i))
			}
			rest := append([]int(nil), order[prefix:]...)
			rng.Shuffle(len(rest), func(a, b int) { rest[a], rest[b] = rest[b], rest[a] })
			for _, i := range rest[:rng.Intn(len(rest)+1)] {
				in.NotDlv = append(in.NotDlv, req(i))
			}
			inputs[p] = in
		}
		maj := proto.MajoritySize(n)
		perm := rng.Perm(n)
		var decision consensus.Decision
		for _, i := range perm[:maj] {
			decision = append(decision, consensus.ProposedValue{From: proto.NodeID(i), Val: inputs[i].Marshal()})
		}
		for p := 0; p < n; p++ {
			rt, err := cnsvorder.ComputeOpt(inputs[p], decision, true)
			if err != nil {
				return res, err
			}
			rw, err := cnsvorder.ComputeOpt(inputs[p], decision, false)
			if err != nil {
				return res, err
			}
			thrifty += len(rt.Bad)
			wasteful += len(rw.Bad)
		}
	}
	res.Rows = append(res.Rows, []string{"thrifty (paper)", fmt.Sprint(epochs), fmt.Sprint(thrifty), fmt.Sprint(wasteful - thrifty)})
	res.Rows = append(res.Rows, []string{"no-thrift (ablation)", fmt.Sprint(epochs), fmt.Sprint(wasteful), "0"})
	return res, nil
}

// All runs the full suite in order.
func All(cfg Config) ([]Result, error) {
	type exp struct {
		name string
		fn   func(Config) (Result, error)
	}
	suite := []exp{
		{"E1", E1ExternalInconsistency},
		{"E2", E2FailureFreeLatency},
		{"E3", E3Failover},
		{"E4", E4OptUndeliver},
		{"E5", E5Throughput},
		{"E6", E6EpochGC},
		{"E7", E7QuorumRule},
		{"E8", E8Batching},
		{"A2", A2UndoThriftiness},
	}
	results := make([]Result, 0, len(suite))
	for _, e := range suite {
		r, err := e.fn(cfg)
		if err != nil {
			return results, fmt.Errorf("%s: %w", e.name, err)
		}
		results = append(results, r)
	}
	return results, nil
}
