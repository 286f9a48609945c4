package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// metricDef names one metric and its unit. The two tables below are what the
// program computes; BENCHMARK.json lists the same names and units (a test
// holds the two together) and adds direction and bound.
type metricDef struct{ name, unit string }

// endToEnd is reported by every untraced run, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"tput_ops_s", "1/s"},
	{"write_p50_us", "us"},
	{"write_p99_us", "us"},
	{"service_gap_ms", "ms"},
}

// perLayer is reported by every traced run. A metric that does not apply to
// the traced workload (read spans on a write-only load, tcpnet counters over
// memnet) is reported as 0 with zero samples.
var perLayer = []metricDef{
	// Spans: request = order + fanout + adopt, exactly.
	{"core.request_us", "us"},
	{"core.order_us", "us"},
	{"core.fanout_us", "us"},
	{"core.adopt_us", "us"},
	{"core.read_us", "us"},
	// Stalls, from the load generator's own reply stream and the fault driver.
	{"core.epoch_stall_ms", "ms"},
	{"core.failover_close_ms", "ms"},
	{"core.failover_resume_ms", "ms"},
	{"core.recovery_ms", "ms"},
	{"core.catchup_served", "count"},
	// Counters per adopted operation.
	{"core.seqorders_per_op", "1/op"},
	{"core.epochs_per_kop", "1/kop"},
	{"core.opt_undelivered", "count"},
	{"core.reads_served_per_read", "1/op"},
	{"core.read_fallbacks", "count"},
	{"transport.msgs_per_frame", "1/frame"},
	{"memnet.frames_per_op", "1/op"},
	{"tcpnet.client_frames_per_op", "1/op"},
	{"tcpnet.client_bytes_per_op", "B/op"},
	{"tcpnet.server_frames_per_op", "1/op"},
	{"tcpnet.server_bytes_per_op", "B/op"},
	{"wal.bytes_per_op", "B/op"},
	// Isolated probes of each layer's public functions.
	{"proto.encode_request_ns", "ns"},
	{"proto.decode_request_ns", "ns"},
	{"proto.encode_seqorder_ns", "ns"},
	{"proto.decode_seqorder_ns", "ns"},
	{"proto.encode_reply_ns", "ns"},
	{"proto.decode_reply_ns", "ns"},
	{"proto.batch_walk_ns", "ns"},
	{"transport.batcher_add_flush_ns", "ns"},
	{"memnet.hop_ns", "ns"},
	{"tcpnet.rtt_us", "us"},
	{"tcpnet.stream_frames_s", "1/s"},
	{"app.kv_apply_ns", "ns"},
	{"app.kv_undo_ns", "ns"},
	{"app.kv_query_ns", "ns"},
	{"app.kv_snapshot_ms", "ms"},
	{"app.kv_restore_ms", "ms"},
	{"wal.append_ns", "ns"},
	{"wal.sync_ms", "ms"},
	{"wal.replay_ms", "ms"},
	{"consensus.decide_us", "us"},
	{"cnsvorder.compute_us", "us"},
	{"cluster.n1_write_p50_us", "us"},
	// Harness and process.
	{"workload.read_p50_us", "us"},
	{"workload.closed_p99_us", "us"},
	{"workload.sched_lag_p99_us", "us"},
	{"workload.gen_ns_per_op", "ns"},
	{"workload.failed_share", "share"},
	{"proc.cpu_us_per_op", "us"},
	{"proc.allocs_per_op", "1/op"},
	{"proc.peak_rss_mb", "MB"},
	{"proc.gc_pause_ms", "ms"},
	{"trace.overhead_pct", "%"},
}

// metric is one reported value. Samples is how many observations the value
// summarizes; it is printed beside the value and kept out of the result line.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"-"`
}

// result is the last line of a single-workload run, in the shape the driver
// reads.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects the metrics of one run against one of the tables above.
type report struct {
	defs   []metricDef
	values map[string]metric
}

func newReport(defs []metricDef) *report {
	return &report{defs: defs, values: make(map[string]metric, len(defs))}
}

// set records a value. Naming a metric the table lacks, or one already set,
// is a bug in the benchmark, so it panics.
func (r *report) set(name string, value float64, samples int) {
	if _, dup := r.values[name]; dup {
		panic("benchmark: metric set twice: " + name)
	}
	for _, d := range r.defs {
		if d.name == name {
			if math.IsNaN(value) || math.IsInf(value, 0) {
				value = 0
			}
			r.values[name] = metric{Value: value, Unit: d.unit, Samples: samples}
			return
		}
	}
	panic("benchmark: unknown metric: " + name)
}

// fillMissing reports every metric of the table not set so far as not
// applicable: 0 with zero samples.
func (r *report) fillMissing() {
	for _, d := range r.defs {
		if _, ok := r.values[d.name]; !ok {
			r.values[d.name] = metric{Unit: d.unit}
		}
	}
}

// missing lists the table's metrics that were never set.
func (r *report) missing() []string {
	var out []string
	for _, d := range r.defs {
		if _, ok := r.values[d.name]; !ok {
			out = append(out, d.name)
		}
	}
	return out
}

// print writes one line per metric, in table order: name, value, unit and
// sample count.
func (r *report) print(w io.Writer, workload string) {
	for _, d := range r.defs {
		m := r.values[d.name]
		fmt.Fprintf(w, "%-18s %-32s %16.4f %-8s n=%d\n", workload, d.name, m.Value, m.Unit, m.Samples)
	}
}

// printResult writes the driver's result line.
func printResult(w io.Writer, res result) error {
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// quantile returns the q-quantile of sorted (ascending) by linear
// interpolation between the two nearest ranks, so that a timing does not read
// exactly the same on every run. It returns 0 for an empty slice.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// sorted returns an ascending copy of values.
func sorted(values []float64) []float64 {
	out := append([]float64(nil), values...)
	sort.Float64s(out)
	return out
}

func median(values []float64) float64 { return quantile(sorted(values), 0.5) }

func mean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	var sum float64
	for _, v := range values {
		sum += v
	}
	return sum / float64(len(values))
}
