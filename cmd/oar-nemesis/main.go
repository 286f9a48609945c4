// Command oar-nemesis drives the deterministic fault-injection harness of
// internal/nemesis: seed-derived scenario schedules (partitions, crashes,
// suspicion scripts, gray links, drop/dup/reorder rules) executed against a
// live in-process cluster under a mixed workload, with the full proposition
// suite checked after every run.
//
// Subcommands:
//
//	oar-nemesis generate -seed 7            # print the schedule seed 7 derives
//	oar-nemesis run -schedule s.txt         # replay one schedule, verify, exit 1 on violations
//	oar-nemesis search -budget 500          # run seeded schedules until one fails
//	oar-nemesis shrink -schedule fail.txt   # ddmin a failing schedule to a minimal artifact
//
// search writes the failing schedule — raw and shrunk — to -out (default
// "nemesis-fail.txt" / "nemesis-fail.min.txt"): committable, diffable text
// artifacts that `oar-nemesis run -schedule` replays exactly. A clean search
// exits 0, a finding exits 1, a harness error exits 2.
//
// -inject stale-read-floor re-introduces the PR 8 read-floor bug behind its
// test hook (backend.StaleReadFloorBug) — the supported way to validate that
// the search/shrink pipeline still detects a real, historical bug class:
//
//	oar-nemesis search -inject stale-read-floor
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/backend"
	"repro/internal/cluster"
	"repro/internal/nemesis"
)

func main() { os.Exit(run()) }

func usage() int {
	fmt.Fprintln(os.Stderr, "usage: oar-nemesis <generate|run|search|shrink> [flags]")
	fmt.Fprintln(os.Stderr, "run 'oar-nemesis <subcommand> -h' for the subcommand's flags")
	return 2
}

// runFlags installs the executor-config flags shared by every subcommand
// that runs schedules. The returned finish func resolves the string-typed
// flags and must be called after fs.Parse.
func runFlags(fs *flag.FlagSet) (*nemesis.Config, func() error) {
	cfg := &nemesis.Config{}
	var protocol string
	fs.StringVar(&protocol, "protocol", "oar", "ordering backend: oar, fixedseq or ctab")
	fs.IntVar(&cfg.N, "n", 3, "replicas per group")
	fs.IntVar(&cfg.Shards, "shards", 1, "number of groups")
	fs.IntVar(&cfg.Requests, "requests", 96, "total operations per run")
	fs.IntVar(&cfg.Workers, "workers", 4, "closed-loop workload concurrency")
	fs.IntVar(&cfg.Clients, "clients", 1, "client endpoints the workers share")
	fs.Float64Var(&cfg.ReadRatio, "rw", 0.65, "read fraction (0 = the 0.5 default, negative = all writes)")
	fs.BoolVar(&cfg.WAL, "wal", false, "give every replica a write-ahead log (fresh temp dir per run); restarted replicas then recover from disk before peer catch-up")
	fs.Int64Var(&cfg.Seed, "workload-seed", 5, "workload stream seed")
	fs.DurationVar(&cfg.OpTimeout, "op-timeout", 30*time.Second, "per-operation liveness bound")
	fs.DurationVar(&cfg.SettleTimeout, "settle-timeout", 10*time.Second, "quiescence bound per verification window")
	inject := fs.String("inject", "", "re-enable a historical bug behind its test hook (stale-read-floor)")
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: oar-nemesis %s [flags]\n", fs.Name())
		fs.PrintDefaults()
	}
	return cfg, func() error {
		cfg.Protocol = cluster.Protocol(protocol)
		switch *inject {
		case "":
		case "stale-read-floor":
			backend.StaleReadFloorBug.Store(true)
		default:
			return fmt.Errorf("unknown -inject %q (supported: stale-read-floor)", *inject)
		}
		return nil
	}
}

func run() int {
	if len(os.Args) < 2 {
		return usage()
	}
	sub, args := os.Args[1], os.Args[2:]
	switch sub {
	case "generate":
		return cmdGenerate(args)
	case "run":
		return cmdRun(args)
	case "search":
		return cmdSearch(args)
	case "shrink":
		return cmdShrink(args)
	default:
		return usage()
	}
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "oar-nemesis:", err)
	return 2
}

func cmdGenerate(args []string) int {
	fs := flag.NewFlagSet("generate", flag.ExitOnError)
	spec := nemesis.GenSpec{}
	fs.IntVar(&spec.N, "n", 3, "replicas per group")
	fs.IntVar(&spec.Shards, "shards", 1, "number of groups")
	fs.IntVar(&spec.Motifs, "motifs", 3, "fault motifs to compose")
	fs.Int64Var(&spec.Seed, "seed", 1, "schedule seed")
	out := fs.String("out", "", "write the schedule here instead of stdout")
	_ = fs.Parse(args)
	text := nemesis.Generate(spec).Encode()
	if *out == "" {
		fmt.Print(text)
		return 0
	}
	if err := os.WriteFile(*out, []byte(text), 0o644); err != nil {
		return fail(err)
	}
	return 0
}

func loadSchedule(path string) (*nemesis.Schedule, error) {
	if path == "" {
		return nil, fmt.Errorf("-schedule is required")
	}
	text, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return nemesis.Parse(string(text))
}

func report(res *nemesis.Result) {
	fmt.Printf("ops=%d reads=%d elapsed=%v\n", res.Ops, res.Reads, res.Elapsed.Round(time.Millisecond))
	for s, c := range res.Counts {
		fmt.Printf("shard %d: issued=%d adopted=%d readAdopted=%d opt=%d cons=%d undone=%d\n",
			s, c.Issued, c.Adoptions, c.ReadAdoptions, c.Opt, c.Cons, c.Undeliveries)
	}
	for _, v := range res.Violations {
		fmt.Println("VIOLATION:", v)
	}
}

func cmdRun(args []string) int {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	cfg, finish := runFlags(fs)
	schedule := fs.String("schedule", "", "schedule file to replay")
	_ = fs.Parse(args)
	if err := finish(); err != nil {
		return fail(err)
	}
	sched, err := loadSchedule(*schedule)
	if err != nil {
		return fail(err)
	}
	res, err := nemesis.Run(*cfg, sched)
	if err != nil {
		return fail(err)
	}
	report(res)
	if res.Failed() {
		return 1
	}
	fmt.Println("clean")
	return 0
}

func cmdSearch(args []string) int {
	fs := flag.NewFlagSet("search", flag.ExitOnError)
	cfg, finish := runFlags(fs)
	budget := fs.Int("budget", 200, "how many seeded schedules to try")
	baseSeed := fs.Int64("seed", 1, "first schedule seed (seed i is seed+i)")
	motifs := fs.Int("motifs", 3, "fault motifs per schedule")
	out := fs.String("out", "nemesis-fail.txt", "failing schedule artifact path")
	noShrink := fs.Bool("no-shrink", false, "skip shrinking the finding")
	repeats := fs.Int("repeats", 3, "runs per shrink candidate (any failure counts)")
	quiet := fs.Bool("q", false, "suppress per-run progress dots")
	_ = fs.Parse(args)
	if err := finish(); err != nil {
		return fail(err)
	}
	found, ran, err := nemesis.Search(nemesis.SearchConfig{
		Run:      *cfg,
		Gen:      nemesis.GenSpec{Motifs: *motifs},
		Budget:   *budget,
		BaseSeed: *baseSeed,
		Progress: func(seed int64, res *nemesis.Result) {
			if !*quiet {
				fmt.Fprint(os.Stderr, ".")
			}
		},
	})
	if !*quiet {
		fmt.Fprintln(os.Stderr)
	}
	if err != nil {
		return fail(err)
	}
	if found == nil {
		fmt.Printf("clean: %d schedules, no violations\n", ran)
		return 0
	}
	fmt.Printf("seed %d failed after %d runs:\n", found.Seed, ran)
	for _, v := range found.Result.Violations {
		fmt.Println("VIOLATION:", v)
	}
	if err := os.WriteFile(*out, []byte(found.Schedule.Encode()), 0o644); err != nil {
		return fail(err)
	}
	fmt.Println("schedule written to", *out)
	if !*noShrink {
		shrunk := nemesis.Shrink(found.Schedule, nemesis.FailOracle(*cfg, *repeats))
		min := minPath(*out)
		if err := os.WriteFile(min, []byte(shrunk.Encode()), 0o644); err != nil {
			return fail(err)
		}
		fmt.Printf("shrunk %d -> %d steps, written to %s\n",
			len(found.Schedule.Steps), len(shrunk.Steps), min)
	}
	return 1
}

// minPath derives the shrunk-artifact path: x.txt -> x.min.txt.
func minPath(p string) string {
	if len(p) > 4 && p[len(p)-4:] == ".txt" {
		return p[:len(p)-4] + ".min.txt"
	}
	return p + ".min"
}

func cmdShrink(args []string) int {
	fs := flag.NewFlagSet("shrink", flag.ExitOnError)
	cfg, finish := runFlags(fs)
	schedule := fs.String("schedule", "", "failing schedule file to minimize")
	out := fs.String("out", "", "shrunk artifact path (default <schedule>.min.txt)")
	repeats := fs.Int("repeats", 3, "runs per candidate (any failure counts)")
	_ = fs.Parse(args)
	if err := finish(); err != nil {
		return fail(err)
	}
	sched, err := loadSchedule(*schedule)
	if err != nil {
		return fail(err)
	}
	oracle := nemesis.FailOracle(*cfg, *repeats)
	if !oracle(sched) {
		return fail(fmt.Errorf("schedule does not fail under this config; nothing to shrink"))
	}
	shrunk := nemesis.Shrink(sched, oracle)
	dst := *out
	if dst == "" {
		dst = minPath(*schedule)
	}
	if err := os.WriteFile(dst, []byte(shrunk.Encode()), 0o644); err != nil {
		return fail(err)
	}
	fmt.Printf("shrunk %d -> %d steps, written to %s\n", len(sched.Steps), len(shrunk.Steps), dst)
	return 0
}
