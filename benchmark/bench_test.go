package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
)

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestBenchmarkFileMatchesProgram holds BENCHMARK.json and the program
// together: same workloads, same metrics with the same units, same window.
func TestBenchmarkFileMatchesProgram(t *testing.T) {
	bf, err := readBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if bf.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, program default %d", bf.RunSeconds, defaultSeconds)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the program", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, listed []boundedMetric, defs []metricDef) {
		if len(listed) != len(defs) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(listed), len(defs))
		}
		seen := make(map[string]bool)
		for i, m := range listed {
			if m.Name != defs[i].name || m.Unit != defs[i].unit {
				t.Errorf("%s %d: %s [%s] in BENCHMARK.json, %s [%s] in the program", kind, i, m.Name, m.Unit, defs[i].name, defs[i].unit)
			}
			if !metricName.MatchString(m.Name) || seen[m.Name] {
				t.Errorf("%s: bad or repeated name %q", kind, m.Name)
			}
			seen[m.Name] = true
		}
	}
	check("end_to_end", bf.EndToEnd, endToEnd)
	check("per_layer", bf.PerLayer, perLayer)
}

// shortRun is a run small enough for the unit tests.
func shortRun(t *testing.T, w workloadDef) (runConfig, *bytes.Buffer) {
	t.Helper()
	t.Setenv("TMPDIR", t.TempDir())
	log := &bytes.Buffer{}
	cfg := runConfig{
		workload: w, seed: 7, window: 500 * time.Millisecond, warmup: 100 * time.Millisecond,
		setups: 2, probe: 10 * time.Millisecond, outDir: t.TempDir(), log: log,
	}
	if w.faults {
		cfg.window = faultLeadIn + faultCycleBudget + 200*time.Millisecond // room for one cycle
	}
	return cfg, log
}

// checkReported asserts the schema of one run: every metric of the table is
// in the result and printed exactly once, with its unit and a sample count.
func checkReported(t *testing.T, defs []metricDef, res result, log string, needSamples bool) {
	t.Helper()
	if len(res.Metrics) != len(defs) {
		t.Errorf("%d metrics in the result, want %d", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.name]
		if !ok {
			t.Errorf("metric %s missing from the result", d.name)
			continue
		}
		if m.Unit != d.unit {
			t.Errorf("metric %s has unit %q, want %q", d.name, m.Unit, d.unit)
		}
		if needSamples && (m.Samples == 0 || m.Value == 0) {
			t.Errorf("metric %s = %v over %d samples, want both non-zero", d.name, m.Value, m.Samples)
		}
		if n := strings.Count(log, " "+d.name+" "); n != 1 {
			t.Errorf("metric %s printed %d times, want once", d.name, n)
		}
	}
}

// checkReleased asserts that a run left nothing behind: no WAL directory
// under TMPDIR and no goroutine of the deployment.
func checkReleased(t *testing.T, goroutinesBefore int) {
	t.Helper()
	entries, err := os.ReadDir(os.Getenv("TMPDIR"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		t.Errorf("left behind in TMPDIR: %s", e.Name())
	}
	if !cluster.WaitUntil(5*time.Second, func() bool { return runtime.NumGoroutine() <= goroutinesBefore }) {
		t.Errorf("%d goroutines before the run, %d after", goroutinesBefore, runtime.NumGoroutine())
	}
}

func TestEveryWorkloadReportsEveryEndToEndMetric(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			cfg, log := shortRun(t, w)
			before := runtime.NumGoroutine()
			res, err := runUntraced(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("correct=%v failed=%d attempted=%d\n%s", res.Correct, res.Failed, res.Attempted, log)
			}
			checkReported(t, endToEnd, res, log.String(), true)
			checkReleased(t, before)
		})
	}
}

func TestTracedRunReportsEveryPerLayerMetric(t *testing.T) {
	w, _ := findWorkload("mem-read-closed")
	cfg, log := shortRun(t, w)
	cfg.window = 900 * time.Millisecond // a third of it is traced
	before := runtime.NumGoroutine()
	res, err := runTraced(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Errorf("correct=%v failed=%d\n%s", res.Correct, res.Failed, log)
	}
	checkReported(t, perLayer, res, log.String(), false)
	for _, name := range []string{"core.request_us", "core.read_us", "proto.encode_request_ns", "wal.sync_ms", "consensus.decide_us", "cluster.n1_write_p50_us"} {
		if m := res.Metrics[name]; m.Samples == 0 || m.Value <= 0 {
			t.Errorf("%s = %v over %d samples", name, m.Value, m.Samples)
		}
	}
	sum := res.Metrics["core.order_us"].Value + res.Metrics["core.fanout_us"].Value + res.Metrics["core.adopt_us"].Value
	if root := res.Metrics["core.request_us"].Value; sum < 0.99*root || sum > 1.01*root {
		t.Errorf("child spans sum to %v us, request is %v us", sum, root)
	}
	if _, err := os.Stat(cfg.outDir + "/trace-mem-read-closed.json"); err != nil {
		t.Errorf("spans not written: %v", err)
	}
	checkReleased(t, before)
}

// oracleWorkers is two workers that have each acknowledged a write of key 3,
// worker 1's being the later one in the total order.
func oracleWorkers() []*worker {
	mk := func(id int, value string, pos uint64) *worker {
		return &worker{
			id:      id,
			own:     fmt.Appendf(nil, "w%dv", id),
			acked:   map[uint64]ack{3: {value: []byte(value), pos: pos}},
			unacked: map[uint64][][]byte{},
		}
	}
	return []*worker{mk(0, "w0v2aaaaaaaaaaaa", 40), mk(1, "w1v5bbbbbbbbbbbb", 50)}
}

// reader answers the audit's reads from a map, the preloaded value elsewhere.
func reader(state map[uint64]string) func(context.Context, []byte) (reply, error) {
	return func(_ context.Context, cmd []byte) (reply, error) {
		var k uint64
		if _, err := fmt.Sscanf(string(cmd), "get k%d", &k); err != nil {
			return reply{}, err
		}
		if v, ok := state[k]; ok {
			return reply{result: []byte(v)}, nil
		}
		return reply{result: preloadValue}, nil
	}
}

func TestAuditCatchesALostAcknowledgedWrite(t *testing.T) {
	workers := oracleWorkers()
	if ev := audit(context.Background(), reader(map[uint64]string{3: "w1v5bbbbbbbbbbbb"}), workers); len(ev) != 0 {
		t.Fatalf("audit of an intact store: %v", ev)
	}
	// Worker 1's write, the last one acknowledged, is gone: the store still
	// holds worker 0's earlier one.
	ev := audit(context.Background(), reader(map[uint64]string{3: "w0v2aaaaaaaaaaaa"}), workers)
	if len(ev) != 1 || !strings.Contains(ev[0], "k00000003") || !strings.Contains(ev[0], "lost") {
		t.Fatalf("audit of a store that lost a write: %v", ev)
	}
	// A write that failed may have been applied after all: not a loss.
	workers[0].unacked[3] = [][]byte{[]byte("w0v3cccccccccccc")}
	if ev := audit(context.Background(), reader(map[uint64]string{3: "w0v3cccccccccccc"}), workers); len(ev) != 0 {
		t.Fatalf("audit after a failed write was applied: %v", ev)
	}
}

func TestOracleCatchesAStaleRead(t *testing.T) {
	w := oracleWorkers()[0]
	w.checkRead(3, []byte("w0v2aaaaaaaaaaaa")) // own latest write
	w.checkRead(3, []byte("w1v5bbbbbbbbbbbb")) // someone else's, always legal
	w.checkRead(9, preloadValue)               // never written by this worker
	if len(w.violations) != 0 {
		t.Fatalf("legal reads flagged: %v", w.violations)
	}
	w.checkRead(3, []byte("w0v1zzzzzzzzzzzz")) // own, but older than the acknowledged one
	w.checkRead(9, []byte("-"))                // preloaded, yet absent
	if len(w.violations) != 2 || !strings.Contains(w.violations[0], "stale") || !strings.Contains(w.violations[1], "absent") {
		t.Fatalf("stale and absent reads: %v", w.violations)
	}
}

func TestConvergedCatchesDivergingReplicas(t *testing.T) {
	calls := 0
	catchingUp := func() ([]string, error) {
		calls++
		if calls < 3 {
			return []string{"a", "a", "b"}, nil
		}
		return []string{"a", "a", "a"}, nil
	}
	if ev := converged("state", time.Second, catchingUp); len(ev) != 0 {
		t.Fatalf("replicas that caught up: %v", ev)
	}
	diverged := func() ([]string, error) { return []string{"a", "b", "a"}, nil }
	if ev := converged("state", 20*time.Millisecond, diverged); len(ev) != 1 || !strings.Contains(ev[0], "differs") {
		t.Fatalf("replicas that stay apart: %v", ev)
	}
}

func TestGaps(t *testing.T) {
	ms := int64(time.Millisecond)
	ends := []int64{10 * ms, 20 * ms, 70 * ms, 80 * ms, 1500 * ms}
	for _, c := range []struct {
		from, to int64
		want     float64
	}{
		{0, 75 * ms, 50},            // 20→70
		{75 * ms, 100 * ms, 1420},   // the stall running through the slice's end counts whole
		{1600 * ms, 2000 * ms, 500}, // no reply at all: measured up to the slice's end
	} {
		if got := longestGap(ends, c.from, c.to); got != c.want {
			t.Errorf("longestGap(%d, %d) = %v, want %v", c.from/ms, c.to/ms, got, c.want)
		}
	}
}

func TestThroughputCountsRepliesInsideTheWindow(t *testing.T) {
	at := func(ds ...time.Duration) window {
		win := window{dur: time.Second}
		for _, d := range ds {
			win.samples = append(win.samples, sample{end: int64(d)})
		}
		return win
	}
	// The reply after the close is not counted; the span ends at the last one inside.
	if got, n := at(500*time.Millisecond, 999*time.Millisecond, 1200*time.Millisecond).throughput(); n != 2 || got != 2/0.999 {
		t.Errorf("throughput = %v over %d replies, want %v over 2", got, n, 2/0.999)
	}
	// A service quiet for the second half of the window is divided by all of it.
	if got, n := at(500 * time.Millisecond).throughput(); n != 1 || got != 1 {
		t.Errorf("throughput = %v over %d replies, want 1 over 1", got, n)
	}
}
