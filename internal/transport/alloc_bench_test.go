package transport

import (
	"testing"

	"repro/internal/proto"
)

// sinkFrameNode is the cheapest possible FrameSender: it recycles every
// frame on the spot, so benchmarks measure only the batcher's own work.
type sinkFrameNode struct{}

func (sinkFrameNode) ID() proto.NodeID                { return 0 }
func (sinkFrameNode) Send(proto.NodeID, []byte) error { return nil }
func (sinkFrameNode) Recv() <-chan Message            { return nil }
func (sinkFrameNode) Close() error                    { return nil }
func (sinkFrameNode) SendFrame(_ proto.NodeID, f *Frame) error {
	f.Release()
	return nil
}

// BenchmarkHotPathAllocs asserts the transport-layer hot path — the batcher's
// Add/Flush round — allocates nothing in steady state.
// Any regression fails the benchmark run, so CI executes it with
// -benchtime=1x as a gate.
func BenchmarkHotPathAllocs(b *testing.B) {
	payload := proto.MarshalHeartbeat(1)
	batcher := NewBatcher(sinkFrameNode{}, 1)
	round := func() {
		for i := 0; i < 4; i++ {
			batcher.Add(proto.NodeID(i%2), payload)
		}
		batcher.Flush()
	}
	b.Run("batcher add+flush", func(b *testing.B) {
		round() // warm pools and grow reusable buffers once
		if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
			b.Fatalf("%v allocs/op, want 0", allocs)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			round()
		}
	})
}
