// Package workload is the load-generation engine of the benchmark harness:
// it drives a replicated service — through any client that can invoke a
// command — with a configurable workload shape and measures end-to-end
// response time, the metric the source paper's optimistic delivery exists to
// cut.
//
// Two loop disciplines are supported (see the "Measurement methodology"
// section of EXPERIMENTS.md for why the distinction matters):
//
//   - Closed loop (Rate == 0): Workers concurrent clients, each issuing its
//     next request the moment the previous reply arrives. Offered load
//     adapts to service speed, so a slow system is measured under less
//     load — fine for peak-throughput questions, misleading for latency.
//   - Open loop (Rate > 0): requests arrive on a fixed schedule (Rate per
//     second) regardless of completions, like independent users. Latency is
//     measured from each request's *scheduled* arrival, not from when a
//     worker got around to sending it, so scheduler backlog shows up in the
//     percentiles instead of being silently omitted (the coordinated-
//     omission correction). Workers bounds in-flight requests; a rate beyond
//     the system's capacity shows up as an unbounded latency ramp, which is
//     the honest answer.
//
// Key popularity follows a uniform or scrambled-zipfian distribution, the
// read/write mix and value size are configurable, and the first Warmup
// requests are excluded from the measured window. Every stream is a
// deterministic function of Spec.Seed.
package workload

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
)

// Spec describes one workload.
type Spec struct {
	// Workers is the number of concurrent workers: the closed-loop
	// concurrency, or the in-flight cap of an open-loop run (default 1).
	Workers int
	// Rate is the open-loop arrival rate in requests/second; 0 (default)
	// selects the closed loop.
	Rate float64
	// Requests is the number of measured requests (default 1000).
	Requests int
	// Warmup is the number of unmeasured leading requests that warm code
	// paths, caches and batching before the measured window opens
	// (default Requests/10).
	Warmup int
	// ReadRatio is the fraction of reads in [0, 1] (default 0.5).
	ReadRatio float64
	// Keys is the keyspace size (default 1024).
	Keys int
	// Dist is the key distribution: Uniform (default) or Zipfian.
	Dist string
	// Theta is the zipfian skew in (0, 1) (default 0.99, the YCSB classic).
	Theta float64
	// ValueSize is the write payload size in bytes (default 16).
	ValueSize int
	// Seed makes the whole run reproducible (default 1).
	Seed int64
}

// withDefaults fills the zero fields.
func (s Spec) withDefaults() Spec {
	if s.Workers == 0 {
		s.Workers = 1
	}
	if s.Requests == 0 {
		s.Requests = 1000
	}
	if s.Warmup == 0 {
		s.Warmup = s.Requests / 10
	}
	if s.Warmup < 0 { // explicit "no warmup"
		s.Warmup = 0
	}
	if s.ReadRatio == 0 {
		s.ReadRatio = 0.5
	}
	if s.ReadRatio < 0 { // explicit "all writes"
		s.ReadRatio = 0
	}
	if s.Keys == 0 {
		s.Keys = 1024
	}
	if s.Dist == "" {
		s.Dist = Uniform
	}
	if s.Theta == 0 {
		s.Theta = 0.99
	}
	if s.ValueSize == 0 {
		s.ValueSize = 16
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	return s
}

func (s Spec) validate() error {
	if s.Workers < 0 || s.Requests < 0 || s.Keys <= 0 || s.ValueSize < 0 {
		return fmt.Errorf("workload: invalid spec %+v", s)
	}
	if s.Rate < 0 {
		return fmt.Errorf("workload: negative rate %v", s.Rate)
	}
	if s.ReadRatio > 1 {
		return fmt.Errorf("workload: read ratio %v > 1", s.ReadRatio)
	}
	switch s.Dist {
	case Uniform, Zipfian:
	default:
		return fmt.Errorf("workload: unknown key distribution %q", s.Dist)
	}
	return nil
}

// Mode names the loop discipline the spec selects.
func (s Spec) Mode() string {
	if s.Rate > 0 {
		return "open"
	}
	return "closed"
}

// RWInvoke submits one command on its proper path — read=true marks a
// read-only command the client may answer through the zero-ordering fast
// path — and returns the adopted result. Implementations must be safe for
// concurrent use.
type RWInvoke func(ctx context.Context, cmd []byte, read bool) ([]byte, error)

// Report is the outcome of one workload run.
type Report struct {
	// Spec is the (defaults-filled) spec the run executed.
	Spec Spec
	// Executed counts all completed requests, warmup included.
	Executed int
	// Measured counts the requests inside the measured window.
	Measured uint64
	// Elapsed is the wall time of the measured window.
	Elapsed time.Duration
	// Throughput is Measured/Elapsed in requests/second.
	Throughput float64
	// Latency summarizes the measured requests' response times. In an
	// open-loop run each sample is measured from the request's scheduled
	// arrival time (coordinated-omission corrected). It covers writes only;
	// reads land in ReadLatency.
	Latency metrics.Snapshot

	// MeasuredReads counts the reads inside the measured window (they are
	// included in Measured too).
	MeasuredReads uint64
	// ReadLatency summarizes the measured reads' response times.
	ReadLatency metrics.Snapshot
	// RYWChecked counts reads whose result the engine could verify against
	// the issuing worker's own last write of the key — the
	// read-your-writes oracle. Zero on a read-heavy run would mean the check
	// never engaged; E13 asserts it is positive.
	RYWChecked uint64
}

// RunRW executes the workload against the given client endpoints (worker w
// uses invokers[w % len]) with the read/write split surfaced: reads are
// routed with read=true (clients with a fast path serve them without any
// ordering messages), read and write latencies are recorded into separate
// histograms (either may be nil), and each worker checks read-your-writes —
// a read of a key the worker itself wrote must never observe an older value
// of its own than the last one it adopted a write reply for (write values
// are worker-tagged, see Op.Value, so foreign and stale-own results are
// distinguishable). The check is a hard oracle: a violation aborts the run
// with an error, deterministically for a given spec and seed. The first
// invocation error aborts the run.
func RunRW(ctx context.Context, spec Spec, invokers []RWInvoke, hist, readHist *metrics.Histogram) (Report, error) {
	if len(invokers) == 0 {
		return Report{}, fmt.Errorf("workload: no invokers")
	}
	for i, inv := range invokers {
		if inv == nil {
			return Report{}, fmt.Errorf("workload: invoker %d is nil", i)
		}
	}
	spec = spec.withDefaults()
	if err := spec.validate(); err != nil {
		return Report{}, err
	}
	if hist == nil {
		hist = metrics.NewHistogram()
	}
	if readHist == nil {
		readHist = metrics.NewHistogram()
	}
	total := spec.Warmup + spec.Requests

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		next       atomic.Int64 // request sequence claim counter
		executed   atomic.Int64
		measured   atomic.Uint64
		measReads  atomic.Uint64
		rywChecked atomic.Uint64
		measStart  atomic.Int64 // UnixNano of the measured window's opening
		wg         sync.WaitGroup
	)
	var interval time.Duration
	if spec.Rate > 0 {
		interval = time.Duration(float64(time.Second) / spec.Rate)
	}
	base := time.Now()
	if spec.Warmup == 0 {
		measStart.Store(base.UnixNano())
	}

	errCh := make(chan error, spec.Workers)
	for w := 0; w < spec.Workers; w++ {
		gen, err := newGenerator(spec, w)
		if err != nil {
			return Report{}, err
		}
		wg.Add(1)
		go func(w int, gen *Generator) {
			defer wg.Done()
			invoke := invokers[w%len(invokers)]
			ownPrefix := OwnValuePrefix(w)
			lastWrite := make(map[uint64][]byte) // this worker's last adopted write per key
			for {
				i := next.Add(1) - 1
				if i >= int64(total) {
					errCh <- nil
					return
				}
				op := gen.NextOp()
				start := time.Now()
				if interval > 0 {
					// Open loop: this request was due at base + i·interval.
					// Sleep until then if early; if late (all workers busy),
					// send immediately — the backlog wait stays inside the
					// latency sample, per the coordinated-omission rule.
					sched := base.Add(time.Duration(i) * interval)
					if d := time.Until(sched); d > 0 {
						select {
						case <-time.After(d):
						case <-ctx.Done():
							errCh <- ctx.Err()
							return
						}
					}
					start = sched
				}
				if i == int64(spec.Warmup) {
					measStart.Store(time.Now().UnixNano())
				}
				result, err := invoke(ctx, op.Cmd, op.Read)
				if err == nil {
					if op.Read {
						err = checkReadYourWrites(w, op.Key, result, lastWrite, ownPrefix, &rywChecked)
					} else {
						lastWrite[op.Key] = append(lastWrite[op.Key][:0], op.Value...)
					}
				}
				if err != nil {
					cancel() // first error aborts the run: release the other workers
					errCh <- fmt.Errorf("workload: worker %d request %d: %w", w, i, err)
					return
				}
				executed.Add(1)
				if i >= int64(spec.Warmup) {
					if op.Read {
						readHist.Record(time.Since(start))
						measReads.Add(1)
					} else {
						hist.Record(time.Since(start))
					}
					measured.Add(1)
				}
			}
		}(w, gen)
	}
	wg.Wait()
	end := time.Now()
	close(errCh)
	// The first failing worker cancels ctx to release the others, so the
	// channel may hold secondary cancellation errors alongside the root
	// cause — prefer the latter.
	var runErr error
	for err := range errCh {
		if err == nil {
			continue
		}
		if runErr == nil || (errors.Is(runErr, context.Canceled) && !errors.Is(err, context.Canceled)) {
			runErr = err
		}
	}
	if runErr != nil {
		return Report{}, runErr
	}

	startNS := measStart.Load()
	if startNS == 0 { // everything was warmup (Requests == 0 edge)
		startNS = end.UnixNano()
	}
	elapsed := end.Sub(time.Unix(0, startNS))
	if elapsed <= 0 {
		elapsed = time.Nanosecond
	}
	rep := Report{
		Spec:          spec,
		Executed:      int(executed.Load()),
		Measured:      measured.Load(),
		Elapsed:       elapsed,
		Latency:       hist.Snapshot(),
		MeasuredReads: measReads.Load(),
		ReadLatency:   readHist.Snapshot(),
		RYWChecked:    rywChecked.Load(),
	}
	rep.Throughput = float64(rep.Measured) / elapsed.Seconds()
	return rep, nil
}

// checkReadYourWrites is the per-read oracle of a RunRW worker: once the
// worker has written a key and adopted the write's reply, a later read of
// that key must observe a state that includes the write. Values are
// worker-tagged (Op.Value), so two violations are directly visible from the
// read result alone:
//
//   - the key reads as absent ("-") after this worker wrote it — no command
//     deletes workload keys, so the adopted prefix lost the write;
//   - the result carries this worker's own tag but is not the worker's
//     latest write of the key — the read was answered from a prefix older
//     than one the worker already observed.
//
// A foreign worker's value is always legal (a later write by someone else),
// so the oracle is sound under concurrency, yet engages on every key the
// worker keeps to itself — deterministically for a given seed.
func checkReadYourWrites(w int, key uint64, result []byte, lastWrite map[uint64][]byte, ownPrefix []byte, checked *atomic.Uint64) error {
	last, wrote := lastWrite[key]
	if !wrote {
		return nil
	}
	checked.Add(1)
	if string(result) == "-" {
		return fmt.Errorf("read-your-writes violation: key k%08d read as absent after this worker wrote %q", key, last)
	}
	if bytes.HasPrefix(result, ownPrefix) && !bytes.Equal(result, last) {
		return fmt.Errorf("read-your-writes violation: key k%08d read own stale value %q, last write was %q", key, result, last)
	}
	return nil
}
