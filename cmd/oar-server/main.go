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
// own directory), -stats-addr (serve replica counters as JSON at /stats —
// what oar-loadgen -stats reads to report server-observed coalescing).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
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

// parseFlags turns the command line into the replica's options, reporting
// what is wrong with it on stderr. A -rank that names no entry of -peers is a
// usage error here, before anything indexes the peer list with it.
func parseFlags(args []string, stderr io.Writer) (oar.ServerOptions, error) {
	fs := flag.NewFlagSet("oar-server", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		rank    = fs.Int("rank", 0, "this replica's index in -peers (0-based)")
		peers   = fs.String("peers", "", "comma-separated replica addresses, in rank order (required)")
		listen  = fs.String("listen", "", "local bind address (default: the -peers entry for -rank)")
		machine = fs.String("machine", "kv", "replicated state machine: "+strings.Join(app.Names(), ", "))
		fdTO    = fs.Duration("suspicion-timeout", 100*time.Millisecond, "failure-detector (◊S) timeout")
		gcLimit = fs.Int("epoch-limit", 1024, "force a conservative phase every N requests (0 = never)")
		walDir  = fs.String("wal-dir", "", "durable state directory (write-ahead log + snapshots); empty = in-memory only")
		group   = fs.Int("group", 0, "ordering group (shard) this replica serves; peers and clients must match")
		stats   = fs.String("stats-addr", "", "serve replica counters as JSON at http://ADDR/stats (off when empty)")
	)
	if err := fs.Parse(args); err != nil {
		return oar.ServerOptions{}, err
	}
	addrs := strings.Split(*peers, ",")
	var err error
	switch {
	case *peers == "":
		err = errors.New("-peers is required")
	case *rank < 0 || *rank >= len(addrs):
		err = fmt.Errorf("-rank %d names no entry of the %d -peers", *rank, len(addrs))
	}
	if err != nil {
		fmt.Fprintf(stderr, "oar-server: %v\n", err)
		fs.Usage()
		return oar.ServerOptions{}, err
	}
	return oar.ServerOptions{
		Rank:              *rank,
		Peers:             addrs,
		Listen:            *listen,
		Machine:           *machine,
		GroupID:           *group,
		SuspicionTimeout:  *fdTO,
		EpochRequestLimit: *gcLimit,
		WALDir:            *walDir,
		StatsAddr:         *stats,
	}, nil
}

func run() int {
	opts, err := parseFlags(os.Args[1:], os.Stderr)
	if errors.Is(err, flag.ErrHelp) {
		return 0
	}
	if err != nil {
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	fmt.Printf("oar-server: replica %d/%d, machine %q, listening on %s\n",
		opts.Rank, len(opts.Peers), opts.Machine, opts.Peers[opts.Rank])
	err = oar.ListenAndServe(ctx, opts)
	if err != nil && ctx.Err() == nil {
		fmt.Fprintf(os.Stderr, "oar-server: %v\n", err)
		return 1
	}
	return 0
}
