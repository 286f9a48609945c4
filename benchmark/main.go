// Command benchmark is the repository's benchmark: four workloads against the
// OAR backend, five end-to-end metrics measured with tracing off, a
// correctness gate after every window, and a separate traced run that splits
// a request's latency by layer. BENCHMARK.json at the repository root names
// the workloads and metrics; README.md in this directory says why these.
//
// The driver's form runs one workload and prints one JSON result line last:
//
//	bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Without --workload every workload runs in turn, --repeat times over, and a
// summary with medians, quartiles and the spread against each metric's bound
// is printed instead.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 20

// warmup is driven, unmeasured, straight before every measured window.
const warmup = 3 * time.Second

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (default: all of them, then a summary)")
		seed    = flag.Int64("seed", 1, "seed of the workload generator; the only source of the inputs")
		seconds = flag.Float64("seconds", defaultSeconds, "length of the measured window")
		trace   = flag.Int("trace", 0, "1: traced run printing the per-layer metrics; 0: untraced run printing the end-to-end metrics")
		repeat  = flag.Int("repeat", 1, "run the selected workloads this many times, alternating their order")
		outDir  = flag.String("out", ".bench_build/out", "directory a traced run writes its spans to")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || *repeat < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	selected := workloads
	if *name != "" {
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
			os.Exit(2)
		}
		selected = []workloadDef{w}
	}

	var (
		runs    []runRecord
		correct = true
	)
	for r := 0; r < *repeat; r++ {
		order := append([]workloadDef(nil), selected...)
		if r%2 == 1 {
			for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
				order[i], order[j] = order[j], order[i]
			}
		}
		for _, w := range order {
			cfg := runConfig{
				workload: w,
				seed:     *seed + int64(r),
				window:   time.Duration(*seconds * float64(time.Second)),
				warmup:   warmup,
				setups:   defaultSetups,
				outDir:   *outDir,
				log:      os.Stdout,
			}
			run := runUntraced
			if *trace == 1 {
				run = runTraced
			}
			res, err := run(cfg)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
				os.Exit(1)
			}
			correct = correct && res.Correct
			runs = append(runs, runRecord{workload: w.name, res: res})
			if err := printResult(os.Stdout, res); err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
				os.Exit(1)
			}
		}
	}
	if len(runs) > 1 {
		if err := summarize(os.Stdout, "BENCHMARK.json", runs); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: summary: %v\n", err)
			os.Exit(1)
		}
	}
	if !correct {
		os.Exit(1)
	}
}

type runRecord struct {
	workload string
	res      result
}

// benchmarkFile is BENCHMARK.json.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []boundedMetric `json:"end_to_end"`
	PerLayer []boundedMetric `json:"per_layer"`
}

type boundedMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readBenchmarkFile(path string) (benchmarkFile, error) {
	var bf benchmarkFile
	raw, err := os.ReadFile(path)
	if err != nil {
		return bf, err
	}
	if err := json.Unmarshal(raw, &bf); err != nil {
		return bf, fmt.Errorf("%s: %w", path, err)
	}
	return bf, nil
}

// summaryRow is one metric on one workload over the repeated runs.
type summaryRow struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Unit     string  `json:"unit"`
	Runs     int     `json:"runs"`
	Median   float64 `json:"median"`
	Q1       float64 `json:"q1"`
	Q3       float64 `json:"q3"`
	Min      float64 `json:"min"`
	Max      float64 `json:"max"`
	// Spread is (Q3-Q1)/Median. Within says whether it stays inside the
	// metric's bound; per-layer metrics have no bound and are always within.
	Spread float64 `json:"spread"`
	Bound  float64 `json:"bound,omitempty"`
	Within bool    `json:"within_bound"`
}

// summarize prints, per workload and metric, the median, quartiles and range
// over the runs and whether the spread stays inside the metric's bound, then
// the same as one JSON line. The benchmark defines measurements and claims no
// gain, which the summary's last field says.
func summarize(w io.Writer, benchmarkPath string, runs []runRecord) error {
	bf, err := readBenchmarkFile(benchmarkPath)
	if err != nil {
		return err
	}
	bounds := make(map[string]float64)
	for _, m := range bf.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	type key struct{ workload, metric string }
	values := make(map[key][]float64)
	units := make(map[string]string)
	var keysInOrder []key
	failed, attempted := 0, 0
	for _, run := range runs {
		failed += run.res.Failed
		attempted += run.res.Attempted
		names := make([]string, 0, len(run.res.Metrics))
		for name := range run.res.Metrics {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			k := key{run.workload, name}
			if _, seen := values[k]; !seen {
				keysInOrder = append(keysInOrder, k)
			}
			values[k] = append(values[k], run.res.Metrics[name].Value)
			units[name] = run.res.Metrics[name].Unit
		}
	}
	rows := make([]summaryRow, 0, len(keysInOrder))
	fmt.Fprintf(w, "\n%-18s %-32s %5s %14s %14s %14s %14s %14s %8s %6s\n",
		"workload", "metric", "runs", "median", "q1", "q3", "min", "max", "spread", "bound")
	for _, k := range keysInOrder {
		vals := sorted(values[k])
		row := summaryRow{
			Workload: k.workload, Metric: k.metric, Unit: units[k.metric], Runs: len(vals),
			Median: quantile(vals, 0.5), Q1: quantile(vals, 0.25), Q3: quantile(vals, 0.75),
			Min: vals[0], Max: vals[len(vals)-1], Bound: bounds[k.metric],
		}
		if row.Median != 0 {
			row.Spread = (row.Q3 - row.Q1) / row.Median
		}
		row.Within = row.Bound == 0 || row.Spread <= row.Bound
		rows = append(rows, row)
		fmt.Fprintf(w, "%-18s %-32s %5d %14.4f %14.4f %14.4f %14.4f %14.4f %8.4f %6.2f\n",
			row.Workload, row.Metric, row.Runs, row.Median, row.Q1, row.Q3, row.Min, row.Max, row.Spread, row.Bound)
	}
	line, err := json.Marshal(struct {
		Runs      int          `json:"runs"`
		Attempted int          `json:"attempted"`
		Failed    int          `json:"failed"`
		Rows      []summaryRow `json:"rows"`
		Claim     *string      `json:"claim"`
	}{len(runs), attempted, failed, rows, nil})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
