package main

import (
	"context"
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"repro/internal/backend"
	"repro/internal/proto"
)

// runConfig is one run of one workload.
type runConfig struct {
	workload workloadDef
	seed     int64
	window   time.Duration // measured window
	warmup   time.Duration // unmeasured, straight before the window
	setups   int           // how many times set-up is timed; the last one is kept and used
	probe    time.Duration // traced run: how long each layer probe runs (0: a twentieth of window)
	outDir   string        // where a traced run writes its spans
	log      io.Writer     // human-readable progress and metric lines
}

// Set-up is timed several times per run and the median reported, because one
// boot takes tens of milliseconds and a single timing of it wanders.
const defaultSetups = 9

// measured is one booted system after its warm-up and measured window.
type measured struct {
	sys     *system
	workers []*worker
	win     window
	cycles  []cycle
	setups  []float64 // seconds per timed set-up
}

// measure boots the workload's system (cfg.setups times, keeping the last),
// warms it up and drives one measured window, injecting the fault schedule if
// the workload has one. The caller stops m.sys, also when an error is
// returned beside a non-nil m.
func measure(cfg runConfig, tracer backend.Tracer, onCrash func(proto.NodeID, time.Time), onWindow func(m *measured, open bool)) (*measured, error) {
	m := &measured{}
	for i := 0; i < cfg.setups; i++ {
		if m.sys != nil {
			m.sys.stop()
		}
		start := time.Now()
		sys, err := boot(cfg.workload, tracer)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		m.setups = append(m.setups, time.Since(start).Seconds())
		m.sys = sys
	}
	workers, err := newWorkers(cfg.workload, m.sys.eps, cfg.seed)
	if err != nil {
		return m, err
	}
	m.workers = workers
	var lastEpoch atomic.Uint64
	if cfg.workload.faults {
		for _, wk := range workers {
			wk.epoch = &lastEpoch
		}
	}

	// A request that never completes is cut off here and counted as failed.
	ctx, cancel := context.WithTimeout(context.Background(), cfg.warmup+cfg.window+30*time.Second)
	defer cancel()
	drive(ctx, cfg.workload, workers, time.Now(), cfg.warmup, false)

	if onWindow != nil {
		onWindow(m, true)
	}
	base := time.Now()
	faultErr := make(chan error, 1)
	if cfg.workload.faults {
		go func() {
			var err error
			m.cycles, err = injectFaults(ctx, m.sys, base, cfg.window, &lastEpoch, onCrash)
			faultErr <- err
		}()
	} else {
		faultErr <- nil
	}
	drive(ctx, cfg.workload, workers, base, cfg.window, true)
	err = <-faultErr
	if onWindow != nil {
		onWindow(m, false)
	}
	m.win = collect(workers, cfg.window)
	if err != nil {
		return m, err
	}
	if m.win.attempted == 0 {
		return m, fmt.Errorf("no request was attempted in a window of %v", cfg.window)
	}
	return m, nil
}

// serviceGaps returns, in ms, the longest time without an adopted reply at
// each service interruption of the window: each injected crash where faults
// were injected, each epoch change seen in the reply stream elsewhere. A
// window too short to hold either reports its one longest gap, so the metric
// is never 0.
func (m *measured) serviceGaps() []float64 {
	if len(m.cycles) > 0 {
		crashes := make([]time.Duration, len(m.cycles))
		for i, cy := range m.cycles {
			crashes[i] = cy.crash
		}
		return m.win.crashGaps(crashes)
	}
	if stalls := m.win.epochStalls(false); len(stalls) > 0 {
		return stalls
	}
	return []float64{longestGap(m.win.ends(false), 0, int64(m.win.dur))}
}

// runUntraced measures the end-to-end metrics of one workload with no tracer
// attached, then runs the correctness gate.
func runUntraced(cfg runConfig) (result, error) {
	m, err := measure(cfg, nil, nil, nil)
	if m != nil {
		defer m.sys.stop()
	}
	if err != nil {
		return result{}, err
	}
	evidence := gate(m.sys, m.workers)

	rep := newReport(endToEnd)
	rep.set("setup_s", median(m.setups), len(m.setups))
	tput, adopted := m.win.throughput()
	rep.set("tput_ops_s", tput, adopted)
	writes := m.win.latencies(false)
	rep.set("write_p50_us", quantile(writes, 0.50), len(writes))
	rep.set("write_p99_us", quantile(writes, 0.99), len(writes))
	gaps := m.serviceGaps()
	rep.set("service_gap_ms", mean(gaps), len(gaps))
	if missing := rep.missing(); len(missing) > 0 {
		return result{}, fmt.Errorf("metrics not computed: %v", missing)
	}

	rep.print(cfg.log, cfg.workload.name)
	printDiagnostics(cfg.log, cfg.workload.name, m)
	return finish(cfg, m.win, evidence, rep), nil
}

// printDiagnostics prints what helps read an untraced run but is gated by
// nothing: these values are per-layer metrics of the traced run.
func printDiagnostics(w io.Writer, name string, m *measured) {
	if reads := m.win.latencies(true); len(reads) > 0 {
		fmt.Fprintf(w, "%-18s %-32s %16.4f %-8s n=%d\n", name, "(workload.read_p50_us)", quantile(reads, 0.5), "us", len(reads))
	}
	if len(m.win.lags) > 0 {
		fmt.Fprintf(w, "%-18s %-32s %16.4f %-8s n=%d\n", name, "(workload.sched_lag_p99_us)", quantile(m.win.lags, 0.99)/1e3, "us", len(m.win.lags))
	}
	if stalls := m.win.epochStalls(true); len(stalls) > 0 {
		fmt.Fprintf(w, "%-18s %-32s %16.4f %-8s n=%d\n", name, "(core.epoch_stall_ms)", mean(stalls), "ms", len(stalls))
	}
	checked := 0
	for _, wk := range m.workers {
		checked += wk.rywChecked
	}
	fmt.Fprintf(w, "%-18s fault cycles %d, reads checked against own writes %d\n", name, len(m.cycles), checked)
}

// finish prints the gate's evidence and assembles the result line.
func finish(cfg runConfig, win window, evidence []string, rep *report) result {
	for _, e := range evidence {
		fmt.Fprintf(cfg.log, "%-18s INCORRECT: %s\n", cfg.workload.name, e)
	}
	if win.failed > 0 {
		fmt.Fprintf(cfg.log, "%-18s %d of %d requests failed; first error: %v\n", cfg.workload.name, win.failed, win.attempted, win.firstErr)
	}
	return result{
		Correct:   len(evidence) == 0,
		Attempted: win.attempted,
		Failed:    win.failed,
		Metrics:   rep.values,
	}
}
