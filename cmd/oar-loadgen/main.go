// Command oar-loadgen drives a real (multi-process, TCP) OAR deployment
// with a configurable workload and reports end-to-end latency percentiles
// and throughput — the measurement tool behind the methodology section of
// EXPERIMENTS.md.
//
// Start a 3-replica cluster and load it:
//
//	oar-server -rank 0 -peers 127.0.0.1:7000,127.0.0.1:7001,127.0.0.1:7002 &
//	oar-server -rank 1 -peers 127.0.0.1:7000,127.0.0.1:7001,127.0.0.1:7002 &
//	oar-server -rank 2 -peers 127.0.0.1:7000,127.0.0.1:7001,127.0.0.1:7002 &
//	oar-loadgen -servers 127.0.0.1:7000,127.0.0.1:7001,127.0.0.1:7002 \
//	    -workers 16 -requests 5000 -dist zipfian -rw 0.8
//
// A sharded deployment lists one server group per ordering group, separated
// by ';' (group g's servers must run with -group g); commands route to the
// group owning their key exactly like the in-process cluster:
//
//	oar-loadgen -servers "host1:7000,host2:7000,host3:7000;host1:7100,host2:7100,host3:7100" ...
//
// Reads (-rw sets the read fraction) ride the zero-ordering read fast path:
// the client adopts a reply once a majority weight answered at a compatible
// prefix, no ordering messages involved (DESIGN.md "Read fast path"). The
// report splits read and write latency, prints how many read-your-writes
// checks the workload oracle performed, and — with -stats — each server's
// reads_served / read_fallbacks counters.
//
// Loop disciplines: the default is a closed loop (-workers concurrent
// clients, next request after the previous reply). -rate R switches to an
// open loop — requests arrive on a fixed R/s schedule and latency is
// measured from each request's *scheduled* arrival, so backlog waits are
// counted instead of silently omitted (see "Measurement methodology" in
// EXPERIMENTS.md). The engine's percentiles are printed next to each TCP
// client endpoint's own send-to-adopt histogram as a cross-check.
//
// Several loadgen processes may target one cluster; give each a distinct
// -index-base.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"strings"
	"sync/atomic"
	"time"

	oar "repro"
	"repro/internal/metrics"
	"repro/internal/shard"
	"repro/internal/workload"
)

func main() {
	os.Exit(run())
}

// parseGroups splits -servers into per-ordering-group address lists.
func parseGroups(servers string) ([][]string, error) {
	var groups [][]string
	for g, part := range strings.Split(servers, ";") {
		var addrs []string
		for _, a := range strings.Split(part, ",") {
			if a = strings.TrimSpace(a); a != "" {
				addrs = append(addrs, a)
			}
		}
		if len(addrs) == 0 {
			return nil, fmt.Errorf("group %d has no server addresses", g)
		}
		groups = append(groups, addrs)
	}
	if len(groups) == 0 {
		return nil, fmt.Errorf("no server addresses")
	}
	return groups, nil
}

// jsonReport is the machine-readable form of one loadgen run (-json),
// mirroring the latency schema of oar-bench.
type jsonReport struct {
	Mode       string  `json:"mode"`
	TargetRate float64 `json:"target_rate,omitempty"`
	Dist       string  `json:"dist"`
	Groups     int     `json:"groups"`
	Measured   uint64  `json:"count"`
	ReqPerSec  float64 `json:"req_per_sec"`
	MeanNS     int64   `json:"mean_ns"`
	P50NS      int64   `json:"p50_ns"`
	P90NS      int64   `json:"p90_ns"`
	P99NS      int64   `json:"p99_ns"`
	MaxNS      int64   `json:"max_ns"`
	// The read split: counts and percentiles of the fast-path reads (the
	// write-only fields above cover the ordered path).
	MeasuredReads uint64   `json:"reads,omitempty"`
	ReadP50NS     int64    `json:"read_p50_ns,omitempty"`
	ReadP99NS     int64    `json:"read_p99_ns,omitempty"`
	RYWChecked    uint64   `json:"ryw_checked,omitempty"`
	Routed        []uint64 `json:"routed"`
}

func run() int {
	var (
		servers   = flag.String("servers", "", "replica addresses, rank order; ';' separates ordering groups (required)")
		machine   = flag.String("machine", "kv", "state machine the cluster runs (selects the routing key)")
		clients   = flag.Int("clients", 1, "client endpoints per ordering group")
		indexBase = flag.Int("index-base", 0, "first client index (distinct per concurrent loadgen process)")
		workers   = flag.Int("workers", 16, "concurrent workers (closed loop) / in-flight cap (open loop)")
		rate      = flag.Float64("rate", 0, "open-loop arrival rate in req/s (0 = closed loop)")
		requests  = flag.Int("requests", 5000, "measured requests")
		warmup    = flag.Int("warmup", 0, "unmeasured leading requests (0 = requests/10, -1 = none)")
		dist      = flag.String("dist", workload.Uniform, "key distribution: uniform or zipfian")
		theta     = flag.Float64("theta", 0.99, "zipfian skew in (0,1)")
		readRatio = flag.Float64("rw", 0.5, "read fraction in [0,1] (0 = all writes); reads use the zero-ordering fast path and are reported separately")
		valueSize = flag.Int("value-size", 16, "write payload bytes")
		keys      = flag.Int("keys", 1024, "keyspace size")
		seed      = flag.Int64("seed", 1, "workload seed (runs are reproducible per seed)")
		timeout   = flag.Duration("timeout", 2*time.Minute, "overall run deadline")
		jsonPath  = flag.String("json", "", "also write the report as JSON to this path")
		statsURLs = flag.String("stats", "", "comma-separated server stats addresses (oar-server -stats-addr) to report server-observed coalescing from")
	)
	flag.Parse()
	if *servers == "" {
		fmt.Fprintln(os.Stderr, "oar-loadgen: -servers is required")
		flag.Usage()
		return 2
	}
	groups, err := parseGroups(*servers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "oar-loadgen: %v\n", err)
		return 2
	}
	router, err := shard.NewRouter(len(groups), shard.MachineKey(*machine))
	if err != nil {
		fmt.Fprintf(os.Stderr, "oar-loadgen: %v\n", err)
		return 2
	}

	// One TCP client per (endpoint, group); endpoint i routes each command
	// to its group-g client, exactly like the in-process sharded client.
	type endpoint struct {
		perGroup []*oar.TCPClient
	}
	eps := make([]endpoint, *clients)
	defer func() {
		for _, ep := range eps {
			for _, cli := range ep.perGroup {
				if cli != nil {
					cli.Close()
				}
			}
		}
	}()
	for i := range eps {
		eps[i].perGroup = make([]*oar.TCPClient, len(groups))
		for g, addrs := range groups {
			cli, err := oar.NewTCPClient(oar.ClientOptions{
				Servers:     addrs,
				ClientIndex: *indexBase + i,
				GroupID:     g,
			})
			if err != nil {
				fmt.Fprintf(os.Stderr, "oar-loadgen: connecting endpoint %d to group %d: %v\n", i, g, err)
				return 1
			}
			eps[i].perGroup[g] = cli
		}
	}

	// Reads ride the zero-ordering fast path (InvokeRead); writes the ordered
	// path. The RunRW engine times the two separately and checks every read
	// against the worker's own writes (read-your-writes oracle).
	routedCounts := make([]atomic.Uint64, len(groups))
	invokers := make([]workload.RWInvoke, *clients)
	for i := range invokers {
		ep := eps[i]
		invokers[i] = func(ctx context.Context, cmd []byte, read bool) ([]byte, error) {
			g := router.Route(cmd)
			routedCounts[g].Add(1)
			if read {
				r, err := ep.perGroup[g].InvokeRead(ctx, cmd)
				return r.Result, err
			}
			r, err := ep.perGroup[g].Invoke(ctx, cmd)
			return r.Result, err
		}
	}

	spec := workload.Spec{
		Workers:   *workers,
		Rate:      *rate,
		Requests:  *requests,
		Warmup:    *warmup,
		ReadRatio: *readRatio,
		Keys:      *keys,
		Dist:      *dist,
		Theta:     *theta,
		ValueSize: *valueSize,
		Seed:      *seed,
	}
	if *readRatio == 0 {
		spec.ReadRatio = -1 // all writes
	}
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	fmt.Printf("oar-loadgen: %s loop, %d workers, %d requests (+%d warmup), dist=%s rw=%.2f, %d group(s) × %d endpoint(s)\n",
		spec.Mode(), spec.Workers, *requests, effectiveWarmup(*warmup, *requests), *dist, spec.ReadRatio, len(groups), *clients)
	rep, err := workload.RunRW(ctx, spec, invokers, nil, nil)
	if err != nil {
		fmt.Fprintf(os.Stderr, "oar-loadgen: %v\n", err)
		return 1
	}

	// The read/write split: Latency covers the ordered writes, ReadLatency
	// the fast-path reads (see workload.Report).
	s := rep.Latency
	r := rep.ReadLatency
	target := "-"
	if *rate > 0 {
		target = fmt.Sprintf("%.0f", *rate)
	}
	writes := rep.Measured - rep.MeasuredReads
	fmt.Println()
	fmt.Printf("%s loop (target %s/s): %.0f req/s over %d measured (%d writes, %d reads)\n",
		rep.Spec.Mode(), target, rep.Throughput, rep.Measured, writes, rep.MeasuredReads)
	latRows := [][]string{{
		"write", fmt.Sprint(writes),
		us(s.Mean), us(s.P50), us(s.P90), us(s.P99), us(s.Max),
	}}
	if rep.MeasuredReads > 0 {
		latRows = append(latRows, []string{
			"read", fmt.Sprint(rep.MeasuredReads),
			us(r.Mean), us(r.P50), us(r.P90), us(r.P99), us(r.Max),
		})
	}
	fmt.Print(metrics.Table(
		[]string{"path", "n", "mean", "p50", "p90", "p99", "max"},
		latRows,
	))
	if rep.MeasuredReads > 0 && s.P50 > 0 {
		fmt.Printf("read-your-writes checks: %d, read/write p50: %.2f\n",
			rep.RYWChecked, float64(r.P50)/float64(s.P50))
	}

	fmt.Println()
	routed := make([]uint64, len(groups))
	for g := range routedCounts {
		routed[g] = routedCounts[g].Load()
	}
	var rows [][]string
	var total uint64
	for _, n := range routed {
		total += n
	}
	for g, n := range routed {
		share := "-"
		if total > 0 {
			share = fmt.Sprintf("%.0f%%", 100*float64(n)/float64(total))
		}
		rows = append(rows, []string{fmt.Sprintf("g%d", g), fmt.Sprint(n), share})
	}
	fmt.Print(metrics.Table([]string{"group", "routed", "share"}, rows))

	// Cross-check: each TCP client endpoint's own histogram (recorded at
	// Invoke, warmup included) should agree with the engine's percentiles
	// up to warmup skew and bucket resolution.
	fmt.Println()
	rows = rows[:0]
	for i, ep := range eps {
		for g, cli := range ep.perGroup {
			cs := cli.Stats()
			if cs.Latency.Count == 0 && cs.ReadLatency.Count == 0 {
				continue
			}
			readP50 := "-"
			if cs.ReadLatency.Count > 0 {
				readP50 = us(cs.ReadLatency.P50)
			}
			rows = append(rows, []string{
				fmt.Sprintf("ep%d/g%d", i, g),
				fmt.Sprint(cs.Latency.Count),
				us(cs.Latency.P50), us(cs.Latency.P99), us(cs.Latency.Max),
				fmt.Sprint(cs.ReadLatency.Count), readP50,
				fmt.Sprint(cs.FramesSent), fmt.Sprint(cs.FramesReceived),
				fmt.Sprint(cs.BytesSent), fmt.Sprint(cs.BytesReceived),
			})
		}
	}
	fmt.Print(metrics.Table(
		[]string{"client", "wrN(+warmup)", "p50", "p99", "max", "rdN(+warmup)", "rd p50", "frTX", "frRX", "byTX", "byRX"}, rows))

	// Server-side view (needs oar-server -stats-addr): how well each replica's
	// send batcher coalesced — outbound frames per delivered request and
	// protocol messages per frame.
	if *statsURLs != "" {
		rows = rows[:0]
		for _, addr := range strings.Split(*statsURLs, ",") {
			if addr = strings.TrimSpace(addr); addr == "" {
				continue
			}
			rep, err := fetchServerStats(addr)
			if err != nil {
				fmt.Fprintf(os.Stderr, "oar-loadgen: stats %s: %v\n", addr, err)
				rows = append(rows, []string{addr, "-", "-", "-", "-", "-", "-"})
				continue
			}
			framesPerReq, msgsPerFrame := "-", "-"
			if rep.Delivered > 0 {
				framesPerReq = fmt.Sprintf("%.2f", float64(rep.BatchFrames)/float64(rep.Delivered))
			}
			if rep.BatchFrames > 0 {
				msgsPerFrame = fmt.Sprintf("%.2f", float64(rep.BatchedSends)/float64(rep.BatchFrames))
			}
			rows = append(rows, []string{
				addr,
				fmt.Sprint(rep.Delivered),
				fmt.Sprint(rep.ReadsServed),
				fmt.Sprint(rep.ReadFallbacks),
				fmt.Sprint(rep.BatchFrames),
				framesPerReq,
				msgsPerFrame,
			})
		}
		fmt.Println()
		fmt.Print(metrics.Table(
			[]string{"server", "delivered", "reads", "rd-fallback", "frames", "frames/req", "msgs/frame"}, rows))
	}

	if *jsonPath != "" {
		blob, err := json.MarshalIndent(jsonReport{
			Mode:       rep.Spec.Mode(),
			TargetRate: *rate,
			Dist:       *dist,
			Groups:     len(groups),
			Measured:   rep.Measured,
			ReqPerSec:  rep.Throughput,
			MeanNS:     int64(s.Mean),
			P50NS:      int64(s.P50),
			P90NS:      int64(s.P90),
			P99NS:      int64(s.P99),
			MaxNS:      int64(s.Max),

			MeasuredReads: rep.MeasuredReads,
			ReadP50NS:     int64(r.P50),
			ReadP99NS:     int64(r.P99),
			RYWChecked:    rep.RYWChecked,
			Routed:        routed,
		}, "", "  ")
		if err == nil {
			err = os.WriteFile(*jsonPath, append(blob, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "oar-loadgen: writing %s: %v\n", *jsonPath, err)
			return 1
		}
	}
	return 0
}

// fetchServerStats reads one replica's /stats JSON document.
func fetchServerStats(addr string) (oar.ServerReport, error) {
	var rep oar.ServerReport
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get(addr + "/stats")
	if err != nil {
		return rep, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return rep, fmt.Errorf("status %s", resp.Status)
	}
	err = json.NewDecoder(resp.Body).Decode(&rep)
	return rep, err
}

func effectiveWarmup(warmup, requests int) int {
	switch {
	case warmup == 0:
		return requests / 10
	case warmup < 0:
		return 0
	default:
		return warmup
	}
}

func us(d time.Duration) string { return d.Round(time.Microsecond).String() }
