package core_test

import (
	"sync"
	"testing"

	"repro/internal/backend"
	"repro/internal/cnsvorder"
	"repro/internal/proto"
)

// countingTracer counts events per kind.
type countingTracer struct {
	mu     sync.Mutex
	counts map[string]int
}

func newCountingTracer() *countingTracer {
	return &countingTracer{counts: make(map[string]int)}
}

func (c *countingTracer) bump(k string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.counts[k]++
}

func (c *countingTracer) get(k string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.counts[k]
}

func (c *countingTracer) Issue(proto.NodeID, proto.RequestID, []byte) { c.bump("issue") }
func (c *countingTracer) OptDeliver(proto.NodeID, uint64, proto.RequestID, uint64, []byte) {
	c.bump("opt")
}
func (c *countingTracer) OptUndeliver(proto.NodeID, uint64, proto.RequestID) { c.bump("undo") }
func (c *countingTracer) ADeliver(proto.NodeID, uint64, proto.RequestID, uint64, []byte) {
	c.bump("a")
}
func (c *countingTracer) EpochClose(proto.NodeID, uint64, cnsvorder.Input, cnsvorder.Result) {
	c.bump("epoch")
}
func (c *countingTracer) Adopt(proto.NodeID, proto.RequestID, proto.Reply) { c.bump("adopt") }
func (c *countingTracer) ReadAdopt(proto.NodeID, proto.RequestID, proto.Reply) {
	c.bump("readadopt")
}

func TestMultiTracerFansOut(t *testing.T) {
	a, b := newCountingTracer(), newCountingTracer()
	m := backend.MultiTracer(a, nil, b) // nil entries must be skipped

	m.Issue(proto.ClientID(0), proto.RequestID{}, nil)
	m.OptDeliver(0, 0, proto.RequestID{}, 1, nil)
	m.OptUndeliver(0, 0, proto.RequestID{})
	m.ADeliver(0, 0, proto.RequestID{}, 1, nil)
	m.EpochClose(0, 0, cnsvorder.Input{}, cnsvorder.Result{})
	m.Adopt(proto.ClientID(0), proto.RequestID{}, proto.Reply{})
	m.ReadAdopt(proto.ClientID(0), proto.RequestID{}, proto.Reply{})

	for _, tr := range []*countingTracer{a, b} {
		for _, k := range []string{"issue", "opt", "undo", "a", "epoch", "adopt", "readadopt"} {
			if tr.get(k) != 1 {
				t.Errorf("tracer missed event %q: count=%d", k, tr.get(k))
			}
		}
	}
}

func TestNopTracerIsSafe(t *testing.T) {
	n := backend.NopTracer()
	n.Issue(0, proto.RequestID{}, nil)
	n.OptDeliver(0, 0, proto.RequestID{}, 0, nil)
	n.OptUndeliver(0, 0, proto.RequestID{})
	n.ADeliver(0, 0, proto.RequestID{}, 0, nil)
	n.EpochClose(0, 0, cnsvorder.Input{}, cnsvorder.Result{})
	n.Adopt(0, proto.RequestID{}, proto.Reply{})
	n.ReadAdopt(0, proto.RequestID{}, proto.Reply{})
}

// TestExtraTracerObservesScenario: the scenario runners accept additional
// tracers (used by cmd/oar-sim); they must see the same events the checker
// sees.
func TestExtraTracerObservesScenario(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario run skipped in -short mode")
	}
	// Imported here to avoid a dependency cycle at the package level.
	ct := newCountingTracer()
	out, err := runFigure4WithTracer(ct)
	if err != nil {
		t.Fatal(err)
	}
	// Figure 4's claim is about the partitioned epoch: m3 and m4 undone at
	// p0 and p1. After the heal p1 may Opt-deliver in epoch 1 and rightly
	// undo that as well, so the total is compared with the checker's, not
	// with a constant.
	if out.UndeliveriesEpoch0 != 4 {
		t.Fatalf("undeliveries of epoch 0 = %d, want 4", out.UndeliveriesEpoch0)
	}
	if ct.get("undo") != out.Undeliveries {
		t.Errorf("extra tracer saw %d undos, the checker %d", ct.get("undo"), out.Undeliveries)
	}
	if ct.get("issue") != 4 || ct.get("adopt") != 4 {
		t.Errorf("extra tracer saw %d issues / %d adoptions, want 4 / 4", ct.get("issue"), ct.get("adopt"))
	}
	if ct.get("opt") == 0 || ct.get("a") == 0 || ct.get("epoch") == 0 {
		t.Error("extra tracer missed deliveries or epoch closes")
	}
}
