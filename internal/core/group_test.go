package core_test

import (
	"context"
	"testing"
	"time"

	"repro/internal/app"
	"repro/internal/backend"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fd"
	"repro/internal/memnet"
	"repro/internal/proto"
)

// TestServerDropsForeignGroupTraffic: a replica of group 1 must discard
// well-formed protocol messages tagged with group 0 before they touch any
// protocol state, while identical traffic tagged with its own group is
// processed normally.
func TestServerDropsForeignGroupTraffic(t *testing.T) {
	net := memnet.New(memnet.Options{})
	defer net.Close()
	machine, err := app.New("recorder")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := core.NewServer(backend.ReplicaConfig{
		ID:                0,
		Group:             proto.Group(1),
		GroupID:           1,
		Node:              net.Node(0),
		Machine:           machine,
		Detector:          fd.Never{},
		HeartbeatInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() { _ = srv.Run(ctx) }()

	evil := net.Node(proto.ClientID(0))
	order := func(g proto.GroupID, seq uint64) []byte {
		req := proto.Request{ID: proto.RequestID{Group: g, Client: proto.ClientID(0), Seq: seq}, Cmd: []byte("x")}
		return proto.MarshalSeqOrder(g, proto.SeqOrder{Epoch: 0, Reqs: []proto.Request{req}})
	}
	// Foreign (group-0) ordering message: dropped, not delivered.
	if err := evil.Send(0, order(0, 1)); err != nil {
		t.Fatal(err)
	}
	if !cluster.WaitUntil(5*time.Second, func() bool { return srv.Stats().ForeignDropped >= 1 }) {
		t.Fatalf("foreign message never counted as dropped: %+v", srv.Stats())
	}
	if got := srv.Stats().OptDelivered; got != 0 {
		t.Fatalf("foreign-group request was delivered: OptDelivered=%d", got)
	}
	// The same message tagged with the server's own group is processed.
	if err := evil.Send(0, order(1, 2)); err != nil {
		t.Fatal(err)
	}
	if !cluster.WaitUntil(5*time.Second, func() bool { return srv.Stats().OptDelivered == 1 }) {
		t.Fatalf("own-group request never delivered: %+v", srv.Stats())
	}
}
