package main

import (
	"context"
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/app"
	"repro/internal/backend"
	"repro/internal/cnsvorder"
	"repro/internal/consensus"
	"repro/internal/fd"
	"repro/internal/memnet"
	"repro/internal/proto"
	"repro/internal/tcpnet"
	"repro/internal/transport"
	"repro/internal/wal"
	"repro/internal/workload"
)

// The probes time calls into one layer's public functions, in isolation, on
// commands drawn from the same generator and seed as the workloads. They say
// what a layer costs when nothing else competes for the processor; the spans
// and counters of the traced window say what it costs in place.

const (
	probeBatch    = 8    // messages per SeqOrder, batch envelope and batcher flush
	probeEpoch    = 4096 // requests per closed epoch: the workloads' EpochRequestLimit
	probeReplayed = 100_000
)

// timeOp calls fn over and over for about dur and returns the mean time per
// call in ns and the number of calls. The clock is read once per 64 calls so
// that it does not dominate a call of a few ns.
func timeOp(dur time.Duration, fn func()) (nsPerOp float64, calls int) {
	start := time.Now()
	for {
		for i := 0; i < 64; i++ {
			fn()
		}
		calls += 64
		if elapsed := time.Since(start); elapsed >= dur {
			return float64(elapsed) / float64(calls), calls
		}
	}
}

// sink keeps the compiler from discarding a probed call's result.
var sink int

// probeCommands draws n write commands from the workload generator.
func probeCommands(seed int64, n int) ([][]byte, error) {
	gen, err := workload.NewGenerator(workload.Spec{
		ReadRatio: -1, Keys: keys, Dist: workload.Zipfian, Theta: theta, ValueSize: valueSize, Seed: seed,
	}, 0)
	if err != nil {
		return nil, err
	}
	cmds := make([][]byte, n)
	for i := range cmds {
		cmds[i] = append([]byte(nil), gen.NextOp().Cmd...)
	}
	return cmds, nil
}

func probeRequests(cmds [][]byte) []proto.Request {
	reqs := make([]proto.Request, len(cmds))
	for i, cmd := range cmds {
		reqs[i] = proto.Request{ID: proto.RequestID{Client: proto.ClientID(i % endpoints), Seq: uint64(i)}, Cmd: cmd}
	}
	return reqs
}

// runProbes fills rep with every probe metric, each timed for about dur.
func runProbes(rep *report, seed int64, dur time.Duration) error {
	cmds, err := probeCommands(seed, probeEpoch)
	if err != nil {
		return err
	}
	reqs := probeRequests(cmds)
	probeProto(rep, reqs, dur)
	probeApp(rep, cmds, dur)
	if err := probeGenerator(rep, seed, dur); err != nil {
		return fmt.Errorf("generator: %w", err)
	}
	probeBatcher(rep, reqs, dur)
	probeMemnet(rep, reqs, dur)
	if err := probeCnsvorder(rep, reqs, dur); err != nil {
		return fmt.Errorf("cnsvorder: %w", err)
	}
	if err := probeConsensus(rep, reqs, dur); err != nil {
		return fmt.Errorf("consensus: %w", err)
	}
	if err := probeTCP(rep, reqs, dur); err != nil {
		return fmt.Errorf("tcpnet: %w", err)
	}
	if err := probeWAL(rep, cmds, dur); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if err := probeSingleReplica(rep, seed, 3*dur); err != nil {
		return fmt.Errorf("single replica: %w", err)
	}
	if err := probeOverhead(rep, seed, 2*dur); err != nil {
		return fmt.Errorf("trace overhead: %w", err)
	}
	return nil
}

// probeProto times the codec on the three messages of the fast path and on
// walking a batch envelope.
func probeProto(rep *report, reqs []proto.Request, dur time.Duration) {
	var buf []byte
	i := 0
	next := func() proto.Request { i++; return reqs[i%len(reqs)] }

	ns, n := timeOp(dur, func() { buf = proto.AppendRequest(buf[:0], next()) })
	rep.set("proto.encode_request_ns", ns, n)

	frames := make([][]byte, len(reqs))
	for j, r := range reqs {
		frames[j] = proto.MarshalRequest(r)
	}
	ns, n = timeOp(dur, func() {
		i++
		_, _, body, _ := proto.Unmarshal(frames[i%len(frames)])
		r, _ := proto.UnmarshalRequest(body)
		sink += len(r.Cmd)
	})
	rep.set("proto.decode_request_ns", ns, n)

	orders := make([]proto.SeqOrder, len(reqs)/probeBatch)
	orderFrames := make([][]byte, len(orders))
	for j := range orders {
		orders[j] = proto.SeqOrder{Epoch: 1, Reqs: reqs[j*probeBatch : (j+1)*probeBatch]}
		orderFrames[j] = proto.MarshalSeqOrder(0, orders[j])
	}
	ns, n = timeOp(dur, func() { i++; buf = proto.AppendSeqOrder(buf[:0], 0, orders[i%len(orders)]) })
	rep.set("proto.encode_seqorder_ns", ns, n)
	var order proto.SeqOrder
	ns, n = timeOp(dur, func() {
		i++
		_, _, body, _ := proto.Unmarshal(orderFrames[i%len(orderFrames)])
		_ = order.UnmarshalBody(body) // frames built above: cannot fail
		sink += len(order.Reqs)
	})
	rep.set("proto.decode_seqorder_ns", ns, n)

	replies := make([]proto.Reply, len(reqs))
	replyFrames := make([][]byte, len(reqs))
	for j, r := range reqs {
		replies[j] = proto.Reply{Req: r.ID, From: 1, Epoch: 1, Weight: proto.WeightOf(0, 1), Pos: uint64(j), Result: []byte("ok")}
		replyFrames[j] = proto.MarshalReply(replies[j])
	}
	ns, n = timeOp(dur, func() { i++; buf = proto.AppendReply(buf[:0], replies[i%len(replies)]) })
	rep.set("proto.encode_reply_ns", ns, n)
	ns, n = timeOp(dur, func() {
		i++
		_, _, body, _ := proto.Unmarshal(replyFrames[i%len(replyFrames)])
		p, _ := proto.UnmarshalReply(body)
		sink += len(p.Result)
	})
	rep.set("proto.decode_reply_ns", ns, n)

	batches := make([][]byte, len(reqs)/probeBatch)
	for j := range batches {
		batches[j] = proto.MarshalBatch(0, replyFrames[j*probeBatch:(j+1)*probeBatch])
	}
	ns, n = timeOp(dur, func() {
		i++
		_, _, body, _ := proto.Unmarshal(batches[i%len(batches)])
		_ = proto.WalkBatch(body, func(msg []byte) { sink += len(msg) })
	})
	rep.set("proto.batch_walk_ns", ns, n)
}

// probeApp times the kv machine: apply, undo, query, snapshot, restore.
func probeApp(rep *report, cmds [][]byte, dur time.Duration) {
	kv := app.NewKV()
	for k := 0; k < keys; k++ {
		kv.Apply(fmt.Appendf(nil, "set k%08d %s", k, preloadValue))
	}
	i := 0
	apply, n := timeOp(dur, func() {
		i++
		res, _ := kv.Apply(cmds[i%len(cmds)])
		sink += len(res)
	})
	rep.set("app.kv_apply_ns", apply, n)
	// Undo is timed as apply-then-undo minus the apply just measured: timing
	// each undo alone would cost two clock reads per ~50 ns call.
	both, n := timeOp(dur, func() {
		i++
		_, undo := kv.Apply(cmds[i%len(cmds)])
		undo()
	})
	rep.set("app.kv_undo_ns", max(both-apply, 0), n)

	gets := make([][]byte, keys)
	for k := range gets {
		gets[k] = fmt.Appendf(nil, "get k%08d", k)
	}
	ns, n := timeOp(dur, func() {
		i++
		res, _ := kv.Query(gets[i%len(gets)])
		sink += len(res)
	})
	rep.set("app.kv_query_ns", ns, n)

	var blob []byte
	ns, n = timeOp(dur, func() { blob, _ = kv.Snapshot() })
	rep.set("app.kv_snapshot_ms", ns/1e6, n)
	restored := app.NewKV()
	ns, n = timeOp(dur, func() { _ = restored.Restore(blob) }) // blob from Snapshot above: cannot fail
	rep.set("app.kv_restore_ms", ns/1e6, n)
}

func probeGenerator(rep *report, seed int64, dur time.Duration) error {
	gen, err := workload.NewGenerator(workload.Spec{
		ReadRatio: 0.9, Keys: keys, Dist: workload.Zipfian, Theta: theta, ValueSize: valueSize, Seed: seed,
	}, 0)
	if err != nil {
		return err
	}
	ns, n := timeOp(dur, func() { sink += len(gen.NextOp().Cmd) })
	rep.set("workload.gen_ns_per_op", ns, n)
	return nil
}

// discardNode is a transport endpoint that drops what it is sent.
type discardNode struct{}

func (discardNode) ID() proto.NodeID                { return 0 }
func (discardNode) Send(proto.NodeID, []byte) error { return nil }
func (discardNode) Recv() <-chan transport.Message  { return nil }
func (discardNode) Close() error                    { return nil }
func (discardNode) SendFrame(_ proto.NodeID, f *transport.Frame) error {
	f.Release()
	return nil
}

// probeBatcher times transport.Batcher per message: probeBatch replies added
// to one destination, then a flush into a discarding node.
func probeBatcher(rep *report, reqs []proto.Request, dur time.Duration) {
	b := transport.NewBatcher(discardNode{}, 0)
	frame := proto.MarshalReply(proto.Reply{Req: reqs[0].ID, From: 1, Epoch: 1, Pos: 1, Result: []byte("ok")})
	ns, n := timeOp(dur, func() {
		for j := 0; j < probeBatch; j++ {
			b.Add(proto.ClientID(0), frame)
		}
		b.Flush()
	})
	rep.set("transport.batcher_add_flush_ns", ns/probeBatch, n*probeBatch)
}

// probeMemnet times one hop over memnet with injected delay 0: Send on one
// node until the message is received on the other.
func probeMemnet(rep *report, reqs []proto.Request, dur time.Duration) {
	net := memnet.New(memnet.Options{})
	defer net.Close()
	a, b := net.Node(0), net.Node(1)
	frame := proto.MarshalRequest(reqs[0])
	ns, n := timeOp(dur, func() {
		_ = a.Send(1, frame) // fails only on a closed network
		msg := <-b.Recv()
		msg.Release()
	})
	rep.set("memnet.hop_ns", ns, n)
}

// probeCnsvorder times cnsvorder.Compute on the failure-free close of a full
// epoch: this replica delivered all of it, the two decided inputs lag a
// little behind.
func probeCnsvorder(rep *report, reqs []proto.Request, dur time.Duration) error {
	own := cnsvorder.Input{Dlv: reqs}
	lagging := cnsvorder.Input{Dlv: reqs[:len(reqs)-64], NotDlv: reqs[len(reqs)-64:]}
	decision := consensus.Decision{{From: 1, Val: lagging.Marshal()}, {From: 2, Val: lagging.Marshal()}}
	var err error
	ns, n := timeOp(dur, func() {
		res, cerr := cnsvorder.Compute(own, decision)
		if cerr != nil {
			err = cerr
		}
		sink += len(res.Good)
	})
	rep.set("cnsvorder.compute_us", ns/1e3, n)
	return err
}

// probeConsensus times one consensus decision among three processes over
// memnet with delay 0, each ticked every millisecond like the server loop,
// on an initial value the size of a full epoch.
func probeConsensus(rep *report, reqs []proto.Request, dur time.Duration) error {
	net := memnet.New(memnet.Options{})
	group := proto.Group(replicas)
	value := cnsvorder.Input{Dlv: reqs}.Marshal()
	decided := make(chan uint64, replicas) // one send per process per instance
	starts := make([]chan uint64, replicas)
	var wg sync.WaitGroup
	for p := range group {
		starts[p] = make(chan uint64)
		wg.Add(1)
		go func(self proto.NodeID, start <-chan uint64) {
			defer wg.Done()
			node := net.Node(self)
			instances := make(map[uint64]*consensus.Instance) // the newest two
			newest := uint64(0)
			instance := func(k uint64) *consensus.Instance {
				if in, ok := instances[k]; ok {
					return in
				}
				newest = max(newest, k)
				in := consensus.NewInstance(consensus.Config{
					Self: self, Group: group, Instance: k,
					Send:     func(to proto.NodeID, payload []byte) { _ = node.Send(to, payload) },
					Detector: fd.Never{},
					OnDecide: func(consensus.Decision) { decided <- k },
				})
				delete(instances, k-2) // decided long ago
				instances[k] = in
				return in
			}
			tick := time.NewTicker(time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case k, ok := <-start:
					if !ok {
						return
					}
					instance(k).Start(value)
				case msg := <-node.Recv():
					if kind, _, body, err := proto.Unmarshal(msg.Payload); err == nil {
						// A straggler of an instance already forgotten must
						// not bring it back to life.
						if k, err := consensus.InstanceOf(body); err == nil && k+1 >= newest {
							_ = instance(k).OnMessage(msg.From, kind, body) // malformed: dropped, like the server does
						}
					}
					msg.Release()
				case now := <-tick.C:
					for _, in := range instances {
						in.Tick(now)
					}
				}
			}
		}(group[p], starts[p])
	}
	var (
		total time.Duration
		n     int
		err   error
	)
	for k := uint64(2); total < dur && err == nil; k++ {
		begin := time.Now()
		for _, s := range starts {
			s <- k
		}
		timeout := time.After(5 * time.Second)
		for got := 0; got < replicas && err == nil; {
			select {
			case <-decided:
				got++
			case <-timeout:
				err = fmt.Errorf("instance %d undecided after 5s", k)
			}
		}
		total += time.Since(begin)
		n++
	}
	for _, s := range starts {
		close(s)
	}
	wg.Wait()
	net.Close()
	rep.set("consensus.decide_us", float64(total)/float64(n)/1e3, n)
	return err
}

// probeTCP times tcpnet over loopback: a request-sized ping answered by a
// reply-sized pong, and one-way streaming of request-sized frames.
func probeTCP(rep *report, reqs []proto.Request, dur time.Duration) error {
	a, err := tcpnet.New(tcpnet.Config{ID: 0, Listen: "127.0.0.1:0"})
	if err != nil {
		return err
	}
	defer a.Close()
	b, err := tcpnet.New(tcpnet.Config{ID: 1, Listen: "127.0.0.1:0", Peers: map[proto.NodeID]string{0: a.Addr().String()}})
	if err != nil {
		return err
	}
	defer b.Close()
	a.SetPeer(1, b.Addr().String())
	ping := proto.MarshalRequest(reqs[0])
	pong := proto.MarshalReply(proto.Reply{Req: reqs[0].ID, From: 1, Epoch: 1, Pos: 1, Result: []byte("ok")})

	done := make(chan struct{})
	var echo sync.WaitGroup
	echo.Add(1)
	go func() { // b answers every ping until told to stream-count instead
		defer echo.Done()
		for {
			select {
			case msg, ok := <-b.Recv():
				if !ok {
					return
				}
				msg.Release()
				_ = b.Send(0, pong) // fails only once b is closed
			case <-done:
				return
			}
		}
	}()
	ns, n := timeOp(dur, func() {
		_ = a.Send(1, ping) // fails only once a is closed
		msg := <-a.Recv()
		msg.Release()
	})
	close(done)
	echo.Wait()
	rep.set("tcpnet.rtt_us", ns/1e3, n)

	// Streaming: a sends as fast as b receives, at most streamAhead frames
	// ahead, so the send queue stays bounded.
	const streamAhead = 4096
	credits := make(chan struct{}, streamAhead) // one slot per frame in flight
	stop := make(chan struct{})
	received := 0
	var recv sync.WaitGroup
	recv.Add(1)
	go func() {
		defer recv.Done()
		for {
			select {
			case msg, ok := <-b.Recv():
				if !ok {
					return
				}
				msg.Release()
				received++
				<-credits
			case <-stop:
				return
			}
		}
	}()
	start := time.Now()
	for time.Since(start) < dur {
		for j := 0; j < 64; j++ {
			credits <- struct{}{}
			_ = a.Send(1, ping)
		}
	}
	elapsed := time.Since(start)
	close(stop)
	recv.Wait()
	rep.set("tcpnet.stream_frames_s", float64(received)/elapsed.Seconds(), received)
	return nil
}

// probeWAL times the log: appends with no fsync, the fsync that closes an
// epoch's worth of appends, and the replay of a log of probeReplayed records.
func probeWAL(rep *report, cmds [][]byte, dur time.Duration) error {
	dir, err := os.MkdirTemp("", "oar-bench-walprobe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	log, err := wal.Open(wal.Options{Dir: dir, Sync: wal.SyncNever})
	if err != nil {
		return err
	}
	var (
		appendTime, syncTime time.Duration
		appends              int
		syncs                []float64
	)
	// At most 100 epochs, ~25 MB of log, however fast the disk is.
	for start := time.Now(); time.Since(start) < 2*dur && len(syncs) < 100; {
		t0 := time.Now()
		for j := 0; j < probeEpoch; j++ {
			if _, err := log.Append(wal.RecordCommand, cmds[j]); err != nil {
				return err
			}
		}
		t1 := time.Now()
		if err := log.Sync(); err != nil {
			return err
		}
		appendTime += t1.Sub(t0)
		appends += probeEpoch
		syncTime = time.Since(t1)
		syncs = append(syncs, float64(syncTime)/1e6)
	}
	if err := log.Close(); err != nil {
		return err
	}
	rep.set("wal.append_ns", float64(appendTime)/float64(appends), appends)
	rep.set("wal.sync_ms", median(syncs), len(syncs))

	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	log, err = wal.Open(wal.Options{Dir: dir, Sync: wal.SyncNever})
	if err != nil {
		return err
	}
	for j := 0; j < probeReplayed; j++ {
		if _, err := log.Append(wal.RecordCommand, cmds[j%len(cmds)]); err != nil {
			return err
		}
	}
	if err := log.Close(); err != nil {
		return err
	}
	var replays []float64
	for start := time.Now(); time.Since(start) < dur || len(replays) == 0; {
		log, err := wal.Open(wal.Options{Dir: dir, Sync: wal.SyncNever})
		if err != nil {
			return err
		}
		t0 := time.Now()
		records := 0
		err = log.Replay(0, func(uint64, wal.RecordType, []byte) error { records++; return nil })
		replays = append(replays, float64(time.Since(t0))/1e6)
		if cerr := log.Close(); err == nil {
			err = cerr
		}
		if err == nil && records != probeReplayed {
			err = fmt.Errorf("replayed %d records, wrote %d", records, probeReplayed)
		}
		if err != nil {
			return err
		}
	}
	rep.set("wal.replay_ms", median(replays), len(replays))
	return nil
}

// probeSingleReplica is the baseline replication is measured against: the
// mem-write-closed load on a group of one.
func probeSingleReplica(rep *report, seed int64, dur time.Duration) error {
	w, _ := findWorkload("mem-write-closed")
	sys, err := bootCluster(w, 1, nil)
	if err != nil {
		return err
	}
	defer sys.stop()
	if err := preload(sys); err != nil {
		return err
	}
	win, err := shortWindow(w, sys, seed, dur)
	if err != nil {
		return err
	}
	writes := win.latencies(false)
	rep.set("cluster.n1_write_p50_us", quantile(writes, 0.5), len(writes))
	return nil
}

// probeOverhead reports what attaching the span tracer costs: the throughput
// of mem-write-closed without and with it, as a share of the former.
func probeOverhead(rep *report, seed int64, dur time.Duration) error {
	w, _ := findWorkload("mem-write-closed")
	var tput [2]float64
	adopted := 0
	for i, traced := range []bool{false, true} {
		var tracer backend.Tracer
		if traced {
			spans := newSpanTracer(replicas)
			spans.recording.Store(true)
			tracer = spans
		}
		sys, err := bootCluster(w, replicas, tracer)
		if err != nil {
			return err
		}
		err = preload(sys)
		var win window
		if err == nil {
			win, err = shortWindow(w, sys, seed, dur)
		}
		sys.stop()
		if err != nil {
			return err
		}
		tput[i], adopted = win.throughput()
	}
	rep.set("trace.overhead_pct", 100*(tput[0]-tput[1])/tput[0], adopted)
	return nil
}

// shortWindow warms sys up for a quarter of dur and drives one window of dur.
func shortWindow(w workloadDef, sys *system, seed int64, dur time.Duration) (window, error) {
	workers, err := newWorkers(w, sys.eps, seed)
	if err != nil {
		return window{}, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), dur+30*time.Second)
	defer cancel()
	drive(ctx, w, workers, time.Now(), dur/4, false)
	drive(ctx, w, workers, time.Now(), dur, true)
	win := collect(workers, dur)
	if win.failed > 0 {
		return win, fmt.Errorf("%d of %d requests failed: %w", win.failed, win.attempted, win.firstErr)
	}
	return win, nil
}
