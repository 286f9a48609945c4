// Command oar-bench runs the reproduction experiment suite of DESIGN.md
// (E1–E8, E10, E13–E15 and the ablation A2; E9, E11, E12 and A1 are retired)
// and prints one table per experiment — the data recorded in EXPERIMENTS.md.
//
// Usage:
//
//	oar-bench                      # full suite (a few minutes)
//	oar-bench -quick               # scaled-down sweep (tens of seconds)
//	oar-bench -run E2,E5           # a subset
//	oar-bench -protocol oar,ctab   # restrict the backend sweeps (E2, E5, E10, E13, E15)
//	oar-bench -json BENCH.json     # machine-readable results for trend tracking
//	oar-bench -run E8 -cpuprofile cpu.pb.gz -memprofile mem.pb.gz
//	                               # pprof profiles of the selected experiments,
//	                               # for flamegraph-backed perf comparisons
//
// The read fast path sweep (E13) is narrowed with:
//
//	oar-bench -run E13 -dist zipfian           # one key distribution
//	oar-bench -run E13 -rw 0.99                # one read ratio
//
// -json output includes, per experiment, a `latency` array of structured
// samples (labels, count, p50_ns/p90_ns/p99_ns/max_ns, req_per_sec) — the
// stable schema CI trend tracking consumes. -require-latency makes the run
// fail when the selected experiments produced no (or zero-valued) latency
// samples, so the schema cannot silently rot.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/backend"
	"repro/internal/cluster"
	"repro/internal/experiments"
)

func main() {
	os.Exit(run())
}

// jsonResult is the machine-readable form of one experiment's outcome,
// written by -json so the perf trajectory (req/s, frames/req, violations —
// and latency percentiles) can be tracked across commits as
// BENCH_*.json artifacts.
type jsonResult struct {
	ID     string     `json:"id"`
	Title  string     `json:"title,omitempty"`
	Header []string   `json:"header,omitempty"`
	Rows   [][]string `json:"rows,omitempty"`
	Notes  []string   `json:"notes,omitempty"`
	// Latency is the experiment's structured latency samples (see
	// experiments.LatencySample for the stable field schema).
	Latency   []experiments.LatencySample `json:"latency,omitempty"`
	ElapsedMS int64                       `json:"elapsed_ms"`
	// Error marks an experiment that ran but failed, so a trend-tracking
	// consumer can tell "failed" from "not selected".
	Error string `json:"error,omitempty"`
}

// parseProtocols turns the -protocol flag into a backend selection,
// validating every name against the registry so typos fail fast.
func parseProtocols(list string) ([]cluster.Protocol, error) {
	if list == "" {
		return nil, nil
	}
	var out []cluster.Protocol
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		if _, err := backend.Lookup(name); err != nil {
			return nil, err
		}
		out = append(out, cluster.Protocol(name))
	}
	return out, nil
}

// checkLatency enforces the -require-latency gate: at least one selected
// experiment must have produced latency samples, and every sample must have
// a filled schema (count and positive p50/p99). Returns a description of
// the first problem, or "".
func checkLatency(results []jsonResult) string {
	sampled := 0
	for _, r := range results {
		for i, s := range r.Latency {
			if s.Count == 0 || s.P50NS <= 0 || s.P99NS <= 0 {
				return fmt.Sprintf("%s latency sample %d has empty schema fields: %+v", r.ID, i, s)
			}
			sampled++
		}
	}
	if sampled == 0 {
		return "no experiment produced latency samples (expected from E2 and E13–E15)"
	}
	return ""
}

func run() int {
	var (
		quick      = flag.Bool("quick", false, "scaled-down request counts and sweeps")
		only       = flag.String("run", "", "comma-separated experiment IDs (default: all)")
		protoList  = flag.String("protocol", "", "comma-separated ordering backends for the E2/E5/E10/E13/E15 sweeps (default: "+strings.Join(backend.Names(), ",")+")")
		distSel    = flag.String("dist", "", "restrict E13's key distributions: uniform or zipfian (default: both)")
		readRatio  = flag.Float64("rw", 0.5, "read fraction in (0,1]: pins E13's ratio sweep to this one value when set off the 0.5 default")
		jsonPath   = flag.String("json", "", "write machine-readable per-experiment results to this path")
		requireLat = flag.Bool("require-latency", false, "fail unless the selected experiments emitted complete latency samples (the CI schema gate)")
		cpuProfile = flag.String("cpuprofile", "", "write a pprof CPU profile of the selected experiments to this path")
		memProfile = flag.String("memprofile", "", "write a pprof allocation profile to this path at exit")
	)
	flag.Parse()
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "oar-bench: -cpuprofile: %v\n", err)
			return 2
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "oar-bench: -cpuprofile: %v\n", err)
			return 2
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		path := *memProfile
		defer func() {
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintf(os.Stderr, "oar-bench: -memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize the final allocation statistics
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintf(os.Stderr, "oar-bench: -memprofile: %v\n", err)
			}
		}()
	}
	selected, err := parseProtocols(*protoList)
	if err != nil {
		fmt.Fprintf(os.Stderr, "oar-bench: %v\n", err)
		return 2
	}
	cfg := experiments.Config{
		Quick:     *quick,
		Protocols: selected,
		Dist:      *distSel,
		ReadRatio: *readRatio,
	}

	type exp struct {
		id string
		fn func(experiments.Config) (experiments.Result, error)
	}
	suite := []exp{
		{"E1", experiments.E1ExternalInconsistency},
		{"E2", experiments.E2FailureFreeLatency},
		{"E3", experiments.E3Failover},
		{"E4", experiments.E4OptUndeliver},
		{"E5", experiments.E5Throughput},
		{"E6", experiments.E6EpochGC},
		{"E7", experiments.E7QuorumRule},
		{"E8", experiments.E8Batching},
		{"E10", experiments.E10BackendMatrix},
		{"E13", experiments.E13ReadFastPath},
		{"E14", experiments.E14Nemesis},
		{"E15", experiments.E15Recovery},
		{"A2", experiments.A2UndoThriftiness},
	}

	want := map[string]bool{}
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			want[strings.ToUpper(strings.TrimSpace(id))] = true
		}
	}

	start := time.Now()
	failed := false
	collected := []jsonResult{} // non-nil: -json writes [] rather than null when nothing ran
	for _, e := range suite {
		if len(want) > 0 && !want[e.id] {
			continue
		}
		t0 := time.Now()
		res, err := e.fn(cfg)
		took := time.Since(t0)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", e.id, err)
			failed = true
			collected = append(collected, jsonResult{ID: e.id, Error: err.Error(), ElapsedMS: took.Milliseconds()})
			continue
		}
		fmt.Println(res.String())
		fmt.Printf("(%s took %v)\n\n", e.id, took.Round(time.Millisecond))
		collected = append(collected, jsonResult{
			ID:        res.ID,
			Title:     res.Title,
			Header:    res.Header,
			Rows:      res.Rows,
			Notes:     res.Notes,
			Latency:   res.Latency,
			ElapsedMS: took.Milliseconds(),
		})
	}
	fmt.Printf("suite finished in %v\n", time.Since(start).Round(time.Millisecond))
	if *jsonPath != "" {
		blob, err := json.MarshalIndent(collected, "", "  ")
		if err == nil {
			err = os.WriteFile(*jsonPath, append(blob, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "oar-bench: writing %s: %v\n", *jsonPath, err)
			failed = true
		}
	}
	if *requireLat {
		if problem := checkLatency(collected); problem != "" {
			fmt.Fprintf(os.Stderr, "oar-bench: latency schema gate: %s\n", problem)
			failed = true
		}
	}
	if failed {
		return 1
	}
	return 0
}
