package transport

import (
	"testing"
	"time"

	"repro/internal/proto"
	"repro/internal/tune"
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

// BenchmarkHotPathAllocs asserts the transport-layer hot paths allocate
// nothing in steady state — the batcher's Add/Flush round (plain and with
// the AutoTune controller observing every ship) and the tuner's observation
// path itself.
// Any regression fails the benchmark run, so CI executes it with
// -benchtime=1x as a gate.
func BenchmarkHotPathAllocs(b *testing.B) {
	payload := proto.MarshalHeartbeat(1)

	plain := NewBatcher(sinkFrameNode{}, 1)
	tuned := NewBatcherWith(sinkFrameNode{}, 1, BatcherOptions{
		Tuner:    tune.New(tune.Config{}),
		MaxBatch: 512,
	})
	ctl := tune.New(tune.Config{})
	now := time.Now()

	cases := []struct {
		name string
		op   func()
	}{
		{"batcher add+flush", func() {
			for i := 0; i < 4; i++ {
				plain.Add(proto.NodeID(i%2), payload)
			}
			plain.Flush()
		}},
		{"batcher add+flush autotune", func() {
			for i := 0; i < 4; i++ {
				tuned.Add(proto.NodeID(i%2), payload)
			}
			tuned.Flush()
		}},
		{"tuner observe", func() {
			now = now.Add(50 * time.Microsecond)
			ctl.Observe(now, 4, 10*time.Microsecond)
		}},
	}

	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			tc.op() // warm pools and grow reusable buffers once
			if allocs := testing.AllocsPerRun(100, tc.op); allocs != 0 {
				b.Fatalf("%s: %v allocs/op, want 0", tc.name, allocs)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tc.op()
			}
		})
	}
}
