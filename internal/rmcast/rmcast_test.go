package rmcast

import (
	"bytes"
	"testing"

	"repro/internal/proto"
)

// fakeNet records sends and lets tests shuttle payloads between endpoints.
type fakeNet struct {
	sent []fakeSend
}

type fakeSend struct {
	from, to proto.NodeID
	payload  []byte
}

func (f *fakeNet) sender(from proto.NodeID) func(proto.NodeID, []byte) {
	return func(to proto.NodeID, payload []byte) {
		f.sent = append(f.sent, fakeSend{from: from, to: to, payload: payload})
	}
}

func (f *fakeNet) take() []fakeSend {
	out := f.sent
	f.sent = nil
	return out
}

func body(t *testing.T, payload []byte) []byte {
	t.Helper()
	k, _, b, err := proto.Unmarshal(payload)
	if err != nil || k != proto.KindRMcast {
		t.Fatalf("payload kind=%v err=%v", k, err)
	}
	return b
}

func TestMulticastSendsToAllOthers(t *testing.T) {
	net := &fakeNet{}
	group := proto.Group(3)
	r := New(Config{Self: 0, Group: group, Send: net.sender(0)})

	inner := proto.Marshal(proto.KindPhaseII, 0, []byte{1})
	local, ok := r.Multicast(inner)
	if !ok || !bytes.Equal(local, inner) {
		t.Fatal("member multicast must deliver locally")
	}
	sends := net.take()
	if len(sends) != 2 {
		t.Fatalf("sent %d messages, want 2", len(sends))
	}
	dests := map[proto.NodeID]bool{}
	for _, s := range sends {
		dests[s.to] = true
	}
	if !dests[1] || !dests[2] {
		t.Errorf("destinations %v, want p1 and p2", dests)
	}
}

func TestClientMulticastNoLocalDelivery(t *testing.T) {
	net := &fakeNet{}
	r := New(Config{Self: proto.ClientID(0), Group: proto.Group(3), Send: net.sender(proto.ClientID(0))})
	_, ok := r.Multicast([]byte("req"))
	if ok {
		t.Fatal("client (outside Π) must not deliver locally")
	}
	if len(net.take()) != 3 {
		t.Fatal("client should send to all 3 servers")
	}
}

func TestIntegrityDeliverOnce(t *testing.T) {
	netA, netB := &fakeNet{}, &fakeNet{}
	a := New(Config{Self: 0, Group: proto.Group(2), Send: netA.sender(0)})
	b := New(Config{Self: 1, Group: proto.Group(2), Send: netB.sender(1)})

	a.Multicast([]byte("m"))
	payload := netA.take()[0].payload

	inner, ok, err := b.OnMessage(body(t, payload))
	if err != nil || !ok || string(inner) != "m" {
		t.Fatalf("first delivery: inner=%q ok=%v err=%v", inner, ok, err)
	}
	// Duplicate (e.g. a relayed copy) must not deliver again.
	_, ok, err = b.OnMessage(body(t, payload))
	if err != nil || ok {
		t.Fatalf("duplicate delivered: ok=%v err=%v", ok, err)
	}
	if b.DeliveredCount() != 1 {
		t.Errorf("DeliveredCount = %d, want 1", b.DeliveredCount())
	}
}

func TestEagerRelayOnFirstDelivery(t *testing.T) {
	netA, netB := &fakeNet{}, &fakeNet{}
	group := proto.Group(3)
	a := New(Config{Self: 0, Group: group, Send: netA.sender(0)})
	b := New(Config{Self: 1, Group: group, Send: netB.sender(1)})

	a.Multicast([]byte("m"))
	payload := netA.take()[0].payload

	if _, ok, _ := b.OnMessage(body(t, payload)); !ok {
		t.Fatal("no delivery")
	}
	relays := netB.take()
	// b must relay to everyone except itself and the origin: only p2.
	if len(relays) != 1 || relays[0].to != 2 {
		t.Fatalf("relays = %+v, want exactly one to p2", relays)
	}
}

func TestAgreementViaRelayChain(t *testing.T) {
	// Origin "crashes" after reaching only p1; eager relay must still get the
	// message to p2 — the Agreement property.
	nets := map[proto.NodeID]*fakeNet{0: {}, 1: {}, 2: {}}
	group := proto.Group(3)
	endpoints := map[proto.NodeID]*RMcast{}
	for _, id := range group {
		endpoints[id] = New(Config{Self: id, Group: group, Send: nets[id].sender(id)})
	}
	client := New(Config{Self: proto.ClientID(0), Group: group, Send: nets[0].sender(proto.ClientID(0))})
	// Reuse nets[0] to capture the client sends.
	client.Multicast([]byte("m"))
	sends := nets[0].take()
	// Deliver only the copy addressed to p1 (client crashed mid-multicast).
	var toP1 []byte
	for _, s := range sends {
		if s.to == 1 {
			toP1 = s.payload
		}
	}
	if _, ok, _ := endpoints[1].OnMessage(body(t, toP1)); !ok {
		t.Fatal("p1 did not deliver")
	}
	// p1's relay must reach p2.
	var delivered bool
	for _, s := range nets[1].take() {
		if s.to == 2 {
			if _, ok, _ := endpoints[2].OnMessage(body(t, s.payload)); ok {
				delivered = true
			}
		}
	}
	if !delivered {
		t.Fatal("agreement violated: p2 never delivered despite p1 delivering")
	}
}

func TestDistinctSeqPerMulticast(t *testing.T) {
	net := &fakeNet{}
	r := New(Config{Self: 0, Group: proto.Group(2), Send: net.sender(0)})
	r.Multicast([]byte("a"))
	r.Multicast([]byte("b"))
	sends := net.take()
	m1, _ := proto.UnmarshalRMcast(body(t, sends[0].payload))
	m2, _ := proto.UnmarshalRMcast(body(t, sends[1].payload))
	if m1.Seq == m2.Seq {
		t.Fatal("two multicasts share a sequence number")
	}
}

func TestOnMessageRejectsGarbage(t *testing.T) {
	r := New(Config{Self: 0, Group: proto.Group(2), Send: func(proto.NodeID, []byte) {}})
	if _, ok, err := r.OnMessage([]byte{0xFF}); err == nil || ok {
		t.Fatal("garbage accepted")
	}
}
