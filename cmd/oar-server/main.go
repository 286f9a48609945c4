// Command oar-server runs one OAR replica as an OS process over TCP.
//
// Start a 3-replica key-value service:
//
//	oar-server -rank 0 -peers 127.0.0.1:7000,127.0.0.1:7001,127.0.0.1:7002 &
//	oar-server -rank 1 -peers 127.0.0.1:7000,127.0.0.1:7001,127.0.0.1:7002 &
//	oar-server -rank 2 -peers 127.0.0.1:7000,127.0.0.1:7001,127.0.0.1:7002 &
//
// then talk to it with oar-client, or load-test it with oar-loadgen.
//
// A sharded deployment runs one replica group per ordering group: group
// g's replicas all pass -group g and list only their own group's -peers.
// Clients (oar-client -group, oar-loadgen's ';'-separated -servers) route
// by key hash; traffic that reaches the wrong group is dropped at the
// door, never misordered.
//
// A replica started with -wal-dir is durable: definitive deliveries are
// journaled (fsynced per closed epoch) and snapshots taken at epoch
// boundaries. Restarting the same command line after a crash recovers the
// replica automatically — it replays its snapshot and log tail, catches the
// remainder up from its peers, and re-enters ordering:
//
//	oar-server -rank 1 -peers ... -wal-dir /var/lib/oar/r1   # boot
//	<kill -9>
//	oar-server -rank 1 -peers ... -wal-dir /var/lib/oar/r1   # recovers
//
// Flags: -rank, -peers, -listen, -machine, -group, -suspicion-timeout
// (◊S detection; lower = faster fail-over, more false suspicions — safe
// but slower), -epoch-limit (force a conservative phase every N requests
// to bound optimistic bookkeeping; 0 = never), -wal-dir (persist the
// replica's state there and crash-recover from it; each replica needs its
// own directory), -autotune (self-tune the
// send batch window between a latency floor and a throughput ceiling),
// -stats-addr (serve replica counters as JSON at /stats — what
// oar-loadgen -stats reads to report server-observed coalescing).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	oar "repro"
	"repro/internal/app"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		rank     = flag.Int("rank", 0, "this replica's index in -peers (0-based)")
		peers    = flag.String("peers", "", "comma-separated replica addresses, in rank order (required)")
		listen   = flag.String("listen", "", "local bind address (default: the -peers entry for -rank)")
		machine  = flag.String("machine", "kv", "replicated state machine: "+strings.Join(app.Names(), ", "))
		fdTO     = flag.Duration("suspicion-timeout", 100*time.Millisecond, "failure-detector (◊S) timeout")
		gcLimit  = flag.Int("epoch-limit", 1024, "force a conservative phase every N requests (0 = never)")
		walDir   = flag.String("wal-dir", "", "durable state directory (write-ahead log + snapshots); empty = in-memory only")
		group    = flag.Int("group", 0, "ordering group (shard) this replica serves; peers and clients must match")
		autoTune = flag.Bool("autotune", false, "self-tune the send batch window (closed-loop controller)")
		stats    = flag.String("stats-addr", "", "serve replica counters as JSON at http://ADDR/stats (off when empty)")
	)
	flag.Parse()
	if *peers == "" {
		fmt.Fprintln(os.Stderr, "oar-server: -peers is required")
		flag.Usage()
		return 2
	}
	addrs := strings.Split(*peers, ",")

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	fmt.Printf("oar-server: replica %d/%d, machine %q, listening on %s\n",
		*rank, len(addrs), *machine, addrs[*rank])
	err := oar.ListenAndServe(ctx, oar.ServerOptions{
		Rank:              *rank,
		Peers:             addrs,
		Listen:            *listen,
		Machine:           *machine,
		GroupID:           *group,
		SuspicionTimeout:  *fdTO,
		EpochRequestLimit: *gcLimit,
		WALDir:            *walDir,
		AutoTune:          *autoTune,
		StatsAddr:         *stats,
	})
	if err != nil && ctx.Err() == nil {
		fmt.Fprintf(os.Stderr, "oar-server: %v\n", err)
		return 1
	}
	return 0
}
