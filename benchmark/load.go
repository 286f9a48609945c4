package main

import (
	"bytes"
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/workload"
)

// workloadDef is one workload: the deployment it runs on and the load it
// offers. The rates and counts are sized for a 2-core box (README.md,
// "How the rates were sized"); only a benchmark issue may change them.
type workloadDef struct {
	name string
	// Deployment.
	tcp        bool           // three facade servers over loopback TCP, else a cluster over memnet
	wal        bool           // replicas keep a write-ahead log (always on over TCP)
	fd         cluster.FDMode // failure detector of the memnet cluster
	fdTimeout  time.Duration  // suspicion timeout
	epochLimit int            // EpochRequestLimit
	// Load.
	rate      float64       // open-loop writes per second; 0 selects the closed loop
	inflight  int           // closed-loop concurrency, or the open loop's in-flight cap
	readRatio float64       // share of reads (workload.Spec convention: negative = none)
	timeout   time.Duration // per-request timeout; 0 leaves only the end of the run
	faults    bool          // crash and restart the sequencer on a schedule
}

var workloads = []workloadDef{
	{
		name: "mem-write-closed",
		fd:   cluster.FDNever, epochLimit: 4096,
		inflight: 8, readRatio: -1,
	},
	{
		name: "mem-read-closed",
		fd:   cluster.FDNever, epochLimit: 4096,
		inflight: 8, readRatio: 0.9,
	},
	{
		name: "tcp-wal-open",
		tcp:  true, wal: true, fdTimeout: 2 * time.Second, epochLimit: 4096,
		rate: 10000, inflight: 16, readRatio: -1,
	},
	{
		name: "failover-open",
		wal:  true, fd: cluster.FDHeartbeat, fdTimeout: 25 * time.Millisecond,
		rate: 5000, inflight: 16, readRatio: -1, timeout: 2 * time.Second, faults: true,
	},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// sample is one adopted reply inside a measured window.
type sample struct {
	end   int64 // ns after the window opened
	lat   int64 // ns from submit (closed loop) or from the scheduled send (open loop)
	epoch uint32
	read  bool
}

// ack is a worker's last acknowledged write of one key.
type ack struct {
	value []byte
	pos   uint64 // position of the write in the total order
}

// worker is one in-flight slot of the load generator: a goroutine issuing
// one request at a time through one of the two endpoints. It owns its command
// generator and everything it records, so the hot path shares nothing.
type worker struct {
	id  int
	gen *workload.Generator
	ep  endpoint
	own []byte // the "w<id>v" tag of this worker's values
	// epoch, when set, is raised to the epoch of every adopted write: the
	// fault injector reads the current sequencer off it.
	epoch *atomic.Uint64

	samples   []sample
	lags      []int64 // open loop: ns between a request's scheduled and actual send
	attempted int
	failed    int
	firstErr  error

	// The oracle's state, kept through warm-up and measurement alike.
	acked      map[uint64]ack      // last acknowledged write per key
	unacked    map[uint64][][]byte // values of failed writes: they may or may not have been applied
	rywChecked int
	violations []string
}

// newWorkers builds the workload's in-flight slots over the system's
// endpoints. The seed is the only input to the generators.
func newWorkers(w workloadDef, eps []endpoint, seed int64) ([]*worker, error) {
	spec := workload.Spec{
		ReadRatio: w.readRatio,
		Keys:      keys,
		Dist:      workload.Zipfian,
		Theta:     theta,
		ValueSize: valueSize,
		Seed:      seed,
	}
	workers := make([]*worker, w.inflight)
	for i := range workers {
		gen, err := workload.NewGenerator(spec, i)
		if err != nil {
			return nil, err
		}
		workers[i] = &worker{
			id:      i,
			gen:     gen,
			ep:      eps[i%len(eps)],
			own:     workload.OwnValuePrefix(i),
			acked:   make(map[uint64]ack),
			unacked: make(map[uint64][][]byte),
		}
	}
	return workers, nil
}

// do issues one generated operation and waits for its adopted reply. start is
// when the request was due: now in a closed loop, its scheduled send time in
// an open one. A failure is counted and the worker carries on.
func (w *worker) do(ctx context.Context, timeout time.Duration, base, start time.Time, record bool) {
	op := w.gen.NextOp()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	var (
		r   reply
		err error
	)
	if op.Read {
		r, err = w.ep.read(ctx, op.Cmd)
	} else {
		r, err = w.ep.write(ctx, op.Cmd)
	}
	end := time.Now()
	if record {
		w.attempted++
	}
	if err != nil {
		if record {
			w.failed++
		}
		if w.firstErr == nil {
			w.firstErr = err
		}
		if !op.Read {
			w.unacked[op.Key] = append(w.unacked[op.Key], bytes.Clone(op.Value))
		}
		return
	}
	if op.Read {
		w.checkRead(op.Key, r.result)
	} else {
		a := w.acked[op.Key]
		a.value = append(a.value[:0], op.Value...)
		a.pos = r.pos
		w.acked[op.Key] = a
		if w.epoch != nil {
			raise(w.epoch, r.epoch)
		}
	}
	if record {
		w.samples = append(w.samples, sample{
			end:   int64(end.Sub(base)),
			lat:   int64(end.Sub(start)),
			epoch: uint32(r.epoch), //nolint:gosec // epochs stay far below 2^32 in a run
			read:  op.Read,
		})
	}
}

// raise sets v to at least to.
func raise(v *atomic.Uint64, to uint64) {
	for {
		if cur := v.Load(); to <= cur || v.CompareAndSwap(cur, to) {
			return
		}
	}
}

// checkRead is the read-your-writes oracle, applied to every read: every key
// was preloaded, so none may read as absent; and a result carrying this
// worker's own tag must be its latest acknowledged write of the key (or a
// write of its own that failed and so may have been applied). Another
// worker's value is always legal.
func (w *worker) checkRead(key uint64, result []byte) {
	if string(result) == "-" {
		w.violations = append(w.violations, fmt.Sprintf("worker %d: key k%08d read as absent after it was written", w.id, key))
		return
	}
	last, wrote := w.acked[key]
	if !wrote {
		return
	}
	w.rywChecked++
	if !bytes.HasPrefix(result, w.own) || bytes.Equal(result, last.value) {
		return
	}
	for _, v := range w.unacked[key] {
		if bytes.Equal(result, v) {
			return
		}
	}
	w.violations = append(w.violations, fmt.Sprintf("worker %d: key k%08d read own stale value %q, last acknowledged write was %q", w.id, key, result, last.value))
}

// drive offers the workload's load for dur and returns when every request it
// issued has completed or failed. The window opens at base. With record set,
// requests issued in the window are counted and their replies sampled; the
// warm-up runs without.
func drive(ctx context.Context, w workloadDef, workers []*worker, base time.Time, dur time.Duration, record bool) {
	var (
		wg       sync.WaitGroup
		next     atomic.Int64
		interval time.Duration
		total    int64
	)
	if w.rate > 0 {
		interval = time.Duration(float64(time.Second) / w.rate)
		total = int64(w.rate * dur.Seconds())
	}
	for _, wk := range workers {
		wg.Add(1)
		go func(wk *worker) {
			defer wg.Done()
			for ctx.Err() == nil {
				if w.rate == 0 {
					now := time.Now()
					if now.Sub(base) >= dur {
						return
					}
					wk.do(ctx, w.timeout, base, now, record)
					continue
				}
				// Open loop: request i is due at base + i·interval whether
				// or not earlier ones have been answered. A worker that
				// claims it late sends at once, and the wait stays inside the
				// latency sample because that is timed from the due time.
				i := next.Add(1) - 1
				if i >= total {
					return
				}
				due := base.Add(time.Duration(i) * interval)
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				if record {
					wk.lags = append(wk.lags, int64(time.Since(due)))
				}
				wk.do(ctx, w.timeout, base, due, record)
			}
		}(wk)
	}
	wg.Wait()
}

// window is what one measured window produced, merged over the workers.
type window struct {
	dur       time.Duration
	samples   []sample // sorted by end
	lags      []float64
	attempted int
	failed    int
	firstErr  error
}

// collect merges and clears the workers' recordings.
func collect(workers []*worker, dur time.Duration) window {
	win := window{dur: dur}
	for _, wk := range workers {
		win.samples = append(win.samples, wk.samples...)
		for _, l := range wk.lags {
			win.lags = append(win.lags, float64(l))
		}
		win.attempted += wk.attempted
		win.failed += wk.failed
		if win.firstErr == nil {
			win.firstErr = wk.firstErr
		}
		wk.samples, wk.lags, wk.attempted, wk.failed = nil, nil, 0, 0
	}
	sort.Slice(win.samples, func(i, j int) bool { return win.samples[i].end < win.samples[j].end })
	sort.Float64s(win.lags)
	return win
}

// latencies returns the sorted latencies, in µs, of the window's reads or
// writes.
func (win window) latencies(read bool) []float64 {
	var out []float64
	for _, s := range win.samples {
		if s.read == read {
			out = append(out, float64(s.lat)/1e3)
		}
	}
	sort.Float64s(out)
	return out
}

// throughput is adopted operations per second of the window. Replies that
// arrived after it closed belong to requests issued inside it, but not to its
// throughput. The span divided by ends at the last reply adopted inside the
// window rather than at its nominal close, which keeps an open loop's
// throughput from reading as the same round number on every run; a service
// that went quiet for the last hundredth of the window or more is divided by
// the whole window instead.
func (win window) throughput() (opsPerSec float64, adopted int) {
	adopted = sort.Search(len(win.samples), func(i int) bool { return win.samples[i].end > int64(win.dur) })
	if adopted == 0 {
		return 0, 0
	}
	span := time.Duration(win.samples[adopted-1].end)
	if span < win.dur-win.dur/100 {
		span = win.dur
	}
	return float64(adopted) / span.Seconds(), adopted
}

// ends returns when the window's replies were adopted (ns after it opened),
// in order; writesOnly leaves the reads out.
func (win window) ends(writesOnly bool) []int64 {
	out := make([]int64, 0, len(win.samples))
	for _, s := range win.samples {
		if !writesOnly || !s.read {
			out = append(out, s.end)
		}
	}
	return out
}

// longestGap returns, in ms, the longest interval between consecutive
// replies (ends, sorted) that overlaps [from, to). The window's opening counts
// as a reply, and a stall still running at to is measured up to there.
func longestGap(ends []int64, from, to int64) float64 {
	i := sort.Search(len(ends), func(i int) bool { return ends[i] >= from })
	prev := int64(0)
	if i > 0 {
		prev = ends[i-1]
	}
	var longest int64
	for ; i < len(ends) && prev < to; i++ {
		if gap := ends[i] - prev; gap > longest {
			longest = gap
		}
		prev = ends[i]
	}
	if prev < to && to-prev > longest {
		longest = to - prev
	}
	return float64(longest) / 1e6
}

// crashGaps returns, in ms, the longest time without an adopted reply during
// the down time that followed each crash.
func (win window) crashGaps(crashes []time.Duration) []float64 {
	var (
		gaps []float64
		ends = win.ends(false)
	)
	for _, c := range crashes {
		gaps = append(gaps, longestGap(ends, int64(c), int64(c+faultDowntime)))
	}
	return gaps
}

// epochStallLookback is how far before an epoch's first adopted write its
// stall is looked for. The stall does not sit between the last reply of one
// epoch and the first of the next: requests caught by the epoch's close are
// delivered by its conservative phase and still answer under the old epoch,
// after the stall.
const epochStallLookback = 50 * time.Millisecond

// epochStalls returns, in ms, how long each epoch change kept users waiting:
// the longest interval between consecutive adopted replies (writes only, or
// all) that overlaps the epochStallLookback before the first adopted write of
// a later epoch. It needs no tracer: Reply.Epoch is all it reads.
func (win window) epochStalls(writesOnly bool) []float64 {
	var (
		stalls []float64
		ends   = win.ends(writesOnly)
		cur    uint32
		seen   bool
	)
	for _, s := range win.samples {
		if s.read {
			continue
		}
		if seen && s.epoch > cur {
			stalls = append(stalls, longestGap(ends, s.end-int64(epochStallLookback), s.end))
		}
		if !seen || s.epoch > cur {
			cur, seen = s.epoch, true
		}
	}
	return stalls
}
