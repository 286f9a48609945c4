package workload

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestGeneratorDeterministic: the same (spec, worker) must emit the same
// command stream, and distinct workers must not draw the same key and
// read/write sequence.
func TestGeneratorDeterministic(t *testing.T) {
	for _, dist := range Dists() {
		spec := Spec{Dist: dist, Seed: 42, Keys: 64}
		a, err := NewGenerator(spec, 3)
		if err != nil {
			t.Fatal(err)
		}
		b, err := NewGenerator(spec, 3)
		if err != nil {
			t.Fatal(err)
		}
		other, err := NewGenerator(spec, 4)
		if err != nil {
			t.Fatal(err)
		}
		diverged := false
		for i := 0; i < 500; i++ {
			oa, ob, oo := a.NextOp(), b.NextOp(), other.NextOp()
			if !bytes.Equal(oa.Cmd, ob.Cmd) {
				t.Fatalf("%s: command %d diverges: %q vs %q", dist, i, oa.Cmd, ob.Cmd)
			}
			if oa.Key != oo.Key || oa.Read != oo.Read {
				diverged = true
			}
		}
		if !diverged {
			t.Errorf("%s: workers 3 and 4 emitted identical streams", dist)
		}
	}
}

// TestGeneratorCommandShape: commands must parse as kv operations with the
// requested mix and value size.
func TestGeneratorCommandShape(t *testing.T) {
	gen, err := NewGenerator(Spec{ReadRatio: 0.5, ValueSize: 8, Keys: 16, Seed: 7}, 0)
	if err != nil {
		t.Fatal(err)
	}
	reads, writes := 0, 0
	for i := 0; i < 2000; i++ {
		cmd := string(gen.NextOp().Cmd)
		fields := strings.Fields(cmd)
		switch fields[0] {
		case "get":
			if len(fields) != 2 {
				t.Fatalf("malformed read %q", cmd)
			}
			reads++
		case "set":
			if len(fields) != 3 || len(fields[2]) != 8 {
				t.Fatalf("malformed write %q", cmd)
			}
			writes++
		default:
			t.Fatalf("unknown verb in %q", cmd)
		}
		if !strings.HasPrefix(fields[1], "k") || len(fields[1]) != 9 {
			t.Fatalf("malformed key in %q", cmd)
		}
	}
	if reads < 800 || writes < 800 {
		t.Errorf("mix off: %d reads, %d writes (want ~1000 each)", reads, writes)
	}
}

// TestGeneratorReadRatioExtremes: ReadRatio 1 must yield only reads,
// ReadRatio -1 (explicit all-writes) only writes.
func TestGeneratorReadRatioExtremes(t *testing.T) {
	allReads, err := NewGenerator(Spec{ReadRatio: 1, Keys: 8}, 0)
	if err != nil {
		t.Fatal(err)
	}
	allWrites, err := NewGenerator(Spec{ReadRatio: -1, Keys: 8}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if op := allReads.NextOp(); !op.Read || !bytes.HasPrefix(op.Cmd, []byte("get ")) {
			t.Fatalf("ReadRatio=1 emitted %q", op.Cmd)
		}
		if op := allWrites.NextOp(); op.Read || !bytes.HasPrefix(op.Cmd, []byte("set ")) {
			t.Fatalf("ReadRatio=-1 emitted %q", op.Cmd)
		}
	}
}

// TestZipfianSkew: under θ=0.99 the head keys must dominate in a way a
// uniform draw never does.
func TestZipfianSkew(t *testing.T) {
	const keys, draws = 100, 20000
	freq := func(dist string) (max int) {
		rng := rand.New(rand.NewSource(5))
		ch, err := newChooser(dist, keys, 0.99, rng)
		if err != nil {
			t.Fatal(err)
		}
		counts := make(map[uint64]int)
		for i := 0; i < draws; i++ {
			k := ch.next()
			if k >= keys {
				t.Fatalf("%s drew key %d outside [0,%d)", dist, k, keys)
			}
			counts[k]++
		}
		for _, n := range counts {
			if n > max {
				max = n
			}
		}
		return max
	}
	uniformMax := freq(Uniform)
	zipfMax := freq(Zipfian)
	// Uniform expectation is 200/key; zipfian's head key holds ~1/zeta(100) ≈
	// 19% of the mass. Wide margins keep the test deterministic-by-seed but
	// robust to implementation tweaks.
	if uniformMax > 3*draws/keys {
		t.Errorf("uniform max frequency %d suspiciously high", uniformMax)
	}
	if zipfMax < 5*draws/keys {
		t.Errorf("zipfian max frequency %d shows no skew (uniform max %d)", zipfMax, uniformMax)
	}
}

// fakeInvoker counts invocations and optionally sleeps, standing in for a
// replicated service. It keeps no state, so the specs that drive it are
// all-writes (ReadRatio -1): the read-your-writes oracle then has no read to
// judge against a store that does not exist.
func fakeInvoker(delay time.Duration, count *atomic.Int64) RWInvoke {
	return func(ctx context.Context, cmd []byte, _ bool) ([]byte, error) {
		if len(cmd) == 0 {
			return nil, errors.New("empty command")
		}
		if delay > 0 {
			select {
			case <-time.After(delay):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		count.Add(1)
		return []byte("ok"), nil
	}
}

func TestRunClosedLoop(t *testing.T) {
	var calls atomic.Int64
	spec := Spec{Workers: 4, Requests: 200, Warmup: 40, ReadRatio: -1, Keys: 32, Seed: 9}
	rep, err := RunRW(context.Background(), spec, []RWInvoke{fakeInvoker(0, &calls)}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Executed != 240 || calls.Load() != 240 {
		t.Errorf("executed %d (invoked %d), want 240", rep.Executed, calls.Load())
	}
	if rep.Measured != 200 || rep.Latency.Count != 200 {
		t.Errorf("measured %d samples %d, want 200", rep.Measured, rep.Latency.Count)
	}
	if rep.Latency.P50 <= 0 || rep.Latency.P99 < rep.Latency.P50 || rep.Throughput <= 0 {
		t.Errorf("malformed report: %+v", rep)
	}
	if rep.Spec.Mode() != "closed" {
		t.Errorf("mode = %q", rep.Spec.Mode())
	}
}

func TestRunOpenLoopPacing(t *testing.T) {
	var calls atomic.Int64
	// 100 measured requests at 2000/s ≈ a 50ms measured window; the engine
	// must not finish meaningfully faster than the schedule allows.
	spec := Spec{Workers: 8, Rate: 2000, Requests: 100, Warmup: 20, ReadRatio: -1, Keys: 32, Seed: 3}
	t0 := time.Now()
	rep, err := RunRW(context.Background(), spec, []RWInvoke{fakeInvoker(0, &calls)}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	wall := time.Since(t0)
	if rep.Measured != 100 {
		t.Fatalf("measured %d, want 100", rep.Measured)
	}
	if minWall := 110 * time.Duration(float64(time.Second)/2000); wall < minWall/2 {
		t.Errorf("run took %v, faster than the arrival schedule permits (~%v)", wall, minWall)
	}
	// An unloaded fake service keeps up with the schedule. Only a lower
	// bound is asserted: on a CPU-starved box the arrival schedule can fall
	// behind wholesale and then drain as a burst, which legitimately reports
	// an above-target catch-up rate (the latency samples carry the stall).
	if rep.Throughput < 500 {
		t.Errorf("achieved rate %.0f/s far below the 2000/s target", rep.Throughput)
	}
	if rep.Spec.Mode() != "open" {
		t.Errorf("mode = %q", rep.Spec.Mode())
	}
}

// TestRunOpenLoopCoordinatedOmission: a service stall must surface in the
// recorded percentiles because latency is measured from the scheduled
// arrival, not the send.
func TestRunOpenLoopCoordinatedOmission(t *testing.T) {
	var calls atomic.Int64
	slow := fakeInvoker(5*time.Millisecond, &calls)
	// One worker, arrivals every 1ms, service time 5ms: the queue falls
	// behind immediately and scheduled-time latency must grow well past the
	// 5ms service time.
	spec := Spec{Workers: 1, Rate: 1000, Requests: 40, Warmup: -1, ReadRatio: -1, Keys: 8, Seed: 11}
	rep, err := RunRW(context.Background(), spec, []RWInvoke{slow}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Latency.Max < 40*time.Millisecond {
		t.Errorf("max latency %v hides the backlog (service 5ms, arrivals 1ms, 40 reqs)", rep.Latency.Max)
	}
	if rep.Latency.P99 <= rep.Latency.P50 {
		t.Errorf("backlogged open loop shows no latency ramp: %+v", rep.Latency)
	}
}

func TestRunSpreadsWorkersOverInvokers(t *testing.T) {
	var a, b atomic.Int64
	// The 200µs service time keeps any single worker from draining the whole
	// claim counter before the others are scheduled.
	invokers := []RWInvoke{fakeInvoker(200*time.Microsecond, &a), fakeInvoker(200*time.Microsecond, &b)}
	spec := Spec{Workers: 4, Requests: 200, Warmup: -1, ReadRatio: -1, Keys: 8, Seed: 2}
	if _, err := RunRW(context.Background(), spec, invokers, nil, nil); err != nil {
		t.Fatal(err)
	}
	if a.Load() == 0 || b.Load() == 0 {
		t.Errorf("invoker load split %d/%d: an endpoint sat idle", a.Load(), b.Load())
	}
	if a.Load()+b.Load() != 200 {
		t.Errorf("total invocations %d, want 200", a.Load()+b.Load())
	}
}

func TestRunAbortsOnError(t *testing.T) {
	boom := errors.New("boom")
	var n atomic.Int64
	failing := func(ctx context.Context, cmd []byte, _ bool) ([]byte, error) {
		if n.Add(1) > 10 {
			return nil, boom
		}
		return []byte("ok"), nil
	}
	spec := Spec{Workers: 2, Requests: 100, ReadRatio: -1, Keys: 8}
	_, err := RunRW(context.Background(), spec, []RWInvoke{failing}, nil, nil)
	if !errors.Is(err, boom) {
		t.Errorf("err = %v, want the invoker's error", err)
	}
}

// TestRunAbortReleasesWorkers: the first error must cancel the run's
// context so blocked workers abort instead of draining the remaining
// workload, and the root-cause error must win over the secondary
// cancellations.
func TestRunAbortReleasesWorkers(t *testing.T) {
	boom := errors.New("boom")
	var n atomic.Int64
	invoker := func(ctx context.Context, cmd []byte, _ bool) ([]byte, error) {
		if n.Add(1) == 1 {
			return nil, boom // worker 0 fails immediately
		}
		select { // everyone else blocks until cancellation
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(30 * time.Second):
			return []byte("ok"), nil
		}
	}
	start := time.Now()
	spec := Spec{Workers: 4, Requests: 1000, ReadRatio: -1, Keys: 8}
	_, err := RunRW(context.Background(), spec, []RWInvoke{invoker}, nil, nil)
	if !errors.Is(err, boom) {
		t.Errorf("err = %v, want the root cause", err)
	}
	if took := time.Since(start); took > 10*time.Second {
		t.Errorf("abort took %v: workers were not released", took)
	}
}

func TestRunValidation(t *testing.T) {
	ctx := context.Background()
	ok := func(ctx context.Context, cmd []byte, _ bool) ([]byte, error) { return []byte("ok"), nil }
	cases := []Spec{
		{Rate: -1},
		{ReadRatio: 1.5},
		{Dist: "pareto"},
		{Keys: -1},
	}
	for _, spec := range cases {
		if _, err := RunRW(ctx, spec, []RWInvoke{ok}, nil, nil); err == nil {
			t.Errorf("spec %+v accepted", spec)
		}
	}
	if _, err := RunRW(ctx, Spec{}, nil, nil, nil); err == nil {
		t.Error("no invokers accepted")
	}
	if _, err := RunRW(ctx, Spec{}, []RWInvoke{nil}, nil, nil); err == nil {
		t.Error("nil invoker accepted")
	}
}

// TestRunReproducible: two runs with one worker and the same seed must drive
// the identical command sequence (observed through a recording invoker).
func TestRunReproducible(t *testing.T) {
	record := func() (RWInvoke, *[]string) {
		var cmds []string
		return func(ctx context.Context, cmd []byte, _ bool) ([]byte, error) {
			cmds = append(cmds, string(cmd))
			return []byte("ok"), nil
		}, &cmds
	}
	spec := Spec{Workers: 1, Requests: 50, Warmup: -1, ReadRatio: -1, Dist: Zipfian, Keys: 32, Seed: 77}
	invA, cmdsA := record()
	invB, cmdsB := record()
	if _, err := RunRW(context.Background(), spec, []RWInvoke{invA}, nil, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := RunRW(context.Background(), spec, []RWInvoke{invB}, nil, nil); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(*cmdsA) != fmt.Sprint(*cmdsB) {
		t.Error("same seed produced different command sequences")
	}
}

// TestNextOpDeterministicAndTagged: NextOp streams are reproducible per
// (spec, worker), reads are flagged, and write values carry the worker tag
// padded to the requested size.
func TestNextOpDeterministicAndTagged(t *testing.T) {
	spec := Spec{ReadRatio: 0.5, ValueSize: 12, Keys: 16, Seed: 9}
	a, err := NewGenerator(spec, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewGenerator(spec, 2)
	if err != nil {
		t.Fatal(err)
	}
	prefix := OwnValuePrefix(2)
	reads, writes := 0, 0
	for i := 0; i < 1000; i++ {
		oa, ob := a.NextOp(), b.NextOp()
		if string(oa.Cmd) != string(ob.Cmd) || oa.Read != ob.Read || oa.Key != ob.Key {
			t.Fatalf("op %d diverges: %+v vs %+v", i, oa, ob)
		}
		if oa.Read {
			reads++
			if !bytes.HasPrefix(oa.Cmd, []byte("get ")) || oa.Value != nil {
				t.Fatalf("read op malformed: %+v", oa)
			}
			continue
		}
		writes++
		if !bytes.HasPrefix(oa.Value, prefix) {
			t.Fatalf("write value %q missing worker tag %q", oa.Value, prefix)
		}
		if len(oa.Value) < spec.ValueSize {
			t.Fatalf("write value %q shorter than value size %d", oa.Value, spec.ValueSize)
		}
	}
	if reads == 0 || writes == 0 {
		t.Fatalf("mix degenerate: %d reads, %d writes", reads, writes)
	}
}

// fakeKV is a linearizable in-memory kv the RunRW tests drive: the honest
// stand-in for a replicated service.
type fakeKV struct {
	mu   sync.Mutex
	data map[string][]byte
}

func (kv *fakeKV) invoke(ctx context.Context, cmd []byte, read bool) ([]byte, error) {
	f := strings.Fields(string(cmd))
	kv.mu.Lock()
	defer kv.mu.Unlock()
	switch f[0] {
	case "set":
		if kv.data == nil {
			kv.data = make(map[string][]byte)
		}
		kv.data[f[1]] = []byte(f[2])
		return []byte("ok"), nil
	case "get":
		if v, ok := kv.data[f[1]]; ok {
			return v, nil
		}
		return []byte("-"), nil
	}
	return nil, fmt.Errorf("bad cmd %q", cmd)
}

// TestRunRWSplitsAndChecks: reads and writes land in separate histograms,
// the counters add up, and the read-your-writes oracle engages (and stays
// silent) against a correct service.
func TestRunRWSplitsAndChecks(t *testing.T) {
	kv := &fakeKV{}
	spec := Spec{Workers: 3, Requests: 600, Warmup: -1, ReadRatio: 0.5, Keys: 8, Seed: 5}
	rep, err := RunRW(context.Background(), spec, []RWInvoke{kv.invoke}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.MeasuredReads == 0 || rep.MeasuredReads >= rep.Measured {
		t.Fatalf("degenerate split: %d reads of %d measured", rep.MeasuredReads, rep.Measured)
	}
	if got := rep.ReadLatency.Count; got != rep.MeasuredReads {
		t.Errorf("read histogram holds %d samples, want %d", got, rep.MeasuredReads)
	}
	if got := rep.Latency.Count; got != rep.Measured-rep.MeasuredReads {
		t.Errorf("write histogram holds %d samples, want %d", got, rep.Measured-rep.MeasuredReads)
	}
	if rep.RYWChecked == 0 {
		t.Error("read-your-writes oracle never engaged")
	}
}

// TestRunRWDetectsStaleOwnRead: a service that answers reads from a frozen
// first-write snapshot must trip the oracle — the exact failure a read fast
// path that ignored the client's high-water mark would produce.
func TestRunRWDetectsStaleOwnRead(t *testing.T) {
	var mu sync.Mutex
	first := make(map[string][]byte)
	stale := func(ctx context.Context, cmd []byte, read bool) ([]byte, error) {
		f := strings.Fields(string(cmd))
		mu.Lock()
		defer mu.Unlock()
		switch f[0] {
		case "set":
			if _, ok := first[f[1]]; !ok {
				first[f[1]] = []byte(f[2])
			}
			return []byte("ok"), nil
		case "get":
			if v, ok := first[f[1]]; ok {
				return v, nil
			}
			return []byte("-"), nil
		}
		return nil, fmt.Errorf("bad cmd %q", cmd)
	}
	spec := Spec{Workers: 1, Requests: 400, Warmup: -1, ReadRatio: 0.5, Keys: 2, Seed: 3}
	_, err := RunRW(context.Background(), spec, []RWInvoke{stale}, nil, nil)
	if err == nil || !strings.Contains(err.Error(), "read-your-writes violation") {
		t.Fatalf("stale reads not detected: err = %v", err)
	}
}

// TestRunRWDetectsLostWrite: a read that observes the key as absent after
// the worker wrote it is a violation even though no stale value is shown.
func TestRunRWDetectsLostWrite(t *testing.T) {
	lossy := func(ctx context.Context, cmd []byte, read bool) ([]byte, error) {
		if read {
			return []byte("-"), nil
		}
		return []byte("ok"), nil
	}
	spec := Spec{Workers: 1, Requests: 200, Warmup: -1, ReadRatio: 0.5, Keys: 2, Seed: 3}
	_, err := RunRW(context.Background(), spec, []RWInvoke{lossy}, nil, nil)
	if err == nil || !strings.Contains(err.Error(), "read as absent") {
		t.Fatalf("lost write not detected: err = %v", err)
	}
}
